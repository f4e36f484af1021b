from fractions import Fraction

import pytest

from mplab.exactlin import GaussianRational, LinearInvolution, RatMatrix
from mplab.weights import (
    ExactGroupElement2x2,
    InvolutionSpec,
    identity_involution,
    involution_eigenspaces,
    negation_involution,
)

F = Fraction


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
        for matrix in (-RatMatrix.identity(2), RatMatrix.identity(2),
                       RatMatrix.from_rows([[0, 1], [1, 0]])):
            spec = InvolutionSpec(LinearInvolution(matrix))
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
