from fractions import Fraction

import pytest

from mplab.exactlin import GaussianRational
from mplab.polytope import RationalPolytope, hull
from mplab.weights import (
    ExactGroupElement2x2,
    InvolutionSpec,
    identity_involution,
    negation_involution,
)

F = Fraction


class TestInvolutionEigenspaces:
    """An involution of the weight axis is a sign; its -1 eigenspace is the
    whole axis for negation and the origin for the identity."""

    def test_negation_rank1(self):
        neg = negation_involution()
        assert (neg.sign, neg.label) == (-1, "negation")
        seg = hull([1, 3])
        assert neg.negated_cut(seg) == seg  # whole torus dual is negated

    def test_identity(self):
        ident = identity_involution()
        assert (ident.sign, ident.label) == (1, "identity")
        assert ident.negated_cut(hull([-1, 3])) == hull([0])
        assert ident.negated_cut(hull([1, 3])) == RationalPolytope.empty()

    def test_lattice_preservation_enforced(self):
        # the only lattice-preserving involutions of the line are w -> -w and w -> w
        for sign in (0, 2, -2, F(1, 2)):
            with pytest.raises(ValueError, match="sign"):
                InvolutionSpec(sign)


class TestExactGroupElement2x2:
    def test_upper_and_apply(self):
        two = GaussianRational.of(2)
        one = GaussianRational.of(1)
        g = ExactGroupElement2x2.upper(two, one)
        out = g.apply((one, one))
        assert out[0] == GaussianRational.of(3)
        assert out[1] == GaussianRational.of(F(1, 2))

    def test_determinant_exact(self):
        one = GaussianRational.of(1)
        with pytest.raises(ValueError):
            ExactGroupElement2x2(one, one, one, one)
