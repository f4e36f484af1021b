from fractions import Fraction

import pytest

from mplab.exactlin import GaussianRational, LinearInvolution, RatMatrix
from mplab.weights import (
    ExactGroupElement2x2,
    GroupElement2x2,
    InvolutionSpec,
    diagonal_project,
    identity_involution,
    involution_eigenspaces,
    is_dominant,
    negation_involution,
    weight_embed,
)

F = Fraction


def test_weight_embed():
    assert weight_embed(3) == (F(3),)
    assert weight_embed((2, 1)) == (F(2), F(1))
    assert weight_embed(0) == (F(0),)


def test_is_dominant():
    assert is_dominant((3,))
    assert not is_dominant((-1,))
    assert is_dominant((0,))  # boundary of the chamber
    assert not is_dominant((2, -1))


def test_diagonal_project():
    assert diagonal_project((2, 1)) == (F(3),)
    assert diagonal_project((1, 1)) == (F(2),)
    assert diagonal_project((0, 0)) == (F(0),)
    with pytest.raises(ValueError):
        diagonal_project((1,))


def test_dominant_lattice_points_are_nonnegative_integers():
    for n in range(-5, 6):
        assert is_dominant(weight_embed(n)) == (n >= 0)


class TestInvolutionEigenspaces:
    def test_negation_rank1(self):
        fixed, negated = involution_eigenspaces(negation_involution())
        assert fixed == []
        assert negated == [(F(1),)]  # whole torus dual is negated

    def test_identity(self):
        fixed, negated = involution_eigenspaces(identity_involution())
        assert fixed == [(F(1),)]
        assert negated == []

    def test_swap_rank2(self):
        swap = InvolutionSpec(LinearInvolution(RatMatrix.from_rows([[0, 1], [1, 0]])), "swap")
        fixed, negated = involution_eigenspaces(swap)
        assert fixed == [(F(1), F(1))]
        assert negated == [(F(1), F(-1))]

    def test_dimensions_sum_to_rank(self):
        for spec in (negation_involution(2), identity_involution(2),
                     InvolutionSpec(LinearInvolution(RatMatrix.from_rows([[0, 1], [1, 0]])))):
            fixed, negated = involution_eigenspaces(spec)
            assert len(fixed) + len(negated) == spec.rank

    def test_eigenbasis_clears_to_lattice(self):
        swap = InvolutionSpec(LinearInvolution(RatMatrix.from_rows([[0, 1], [1, 0]])))
        for basis in involution_eigenspaces(swap):
            for vec in basis:
                denom = 1
                for c in vec:
                    denom = denom * c.denominator
                assert all((c * denom).denominator == 1 for c in vec)

    def test_lattice_preservation_enforced(self):
        half = RatMatrix.from_rows([[F(1, 2), F(3, 2)], [F(1, 2), F(-1, 2)]])
        inv = LinearInvolution(half)  # valid involution, but not integral
        with pytest.raises(ValueError, match="lattice"):
            InvolutionSpec(inv)


class TestGroupElement2x2:
    def test_determinant_validated(self):
        with pytest.raises(ValueError):
            GroupElement2x2(1, 0, 0, 2)

    def test_predicates(self):
        b = GroupElement2x2(2, 3 + 1j, 0, 0.5)
        assert b.in_borel() and not b.in_unipotent()
        n = GroupElement2x2(1, 5, 0, 1)
        assert n.in_unipotent()
        h = GroupElement2x2(2, -1, 0, 0.5)
        assert h.in_real_borel_identity()
        assert not GroupElement2x2(-2, 0, 0, -0.5).in_real_borel_identity()
        u = GroupElement2x2(0.6 + 0.8j, 0, 0, 0.6 - 0.8j)
        assert u.in_su2()

    def test_apply(self):
        g = GroupElement2x2(2, 1, 0, 0.5)
        assert g.apply((1, 1)) == (3, 0.5)


class TestExactGroupElement2x2:
    def test_upper_and_apply(self):
        two = GaussianRational.of(2)
        one = GaussianRational.of(1)
        g = ExactGroupElement2x2.upper(two, one)
        assert g.in_borel() and g.in_real_borel_identity()
        out = g.apply((one, one))
        assert out[0] == GaussianRational.of(3)
        assert out[1] == GaussianRational.of(F(1, 2))

    def test_determinant_exact(self):
        one = GaussianRational.of(1)
        with pytest.raises(ValueError):
            ExactGroupElement2x2(one, one, one, one)
