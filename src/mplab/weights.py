"""Torus involutions on the weight axis and exact 2x2 group elements.

Conventions for the worked model: the maximal torus of SU(2) consists of the
diagonal matrices and weights are stored in alpha-units, integers on the
lattice.  The torus dual is a line, whose only lattice-preserving involutions
are w -> -w and w -> w, so an involution is a sign.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import GaussianRational, Value
from .polytope import RationalPolytope, contains, hull


class InvolutionSpec(Value):
    """Involution w -> sign * w of the torus dual, with a descriptive tag."""

    sign: int
    label: str

    def __init__(self, sign: int, label: str = ""):
        if sign not in (1, -1):
            raise ValueError(f"involution sign {sign} is not +1 or -1")
        self.__dict__.update(sign=sign, label=label)

    def negated_cut(self, p: RationalPolytope) -> RationalPolytope:
        """Exact cut of ``p`` by the -1 eigenspace of the involution.

        Negation negates the whole axis, so the cut is ``p``; the identity
        negates only the origin, so the cut is ``{0}`` or empty.
        """
        if self.sign == -1:
            return p
        return hull([0]) if contains(p, 0) else RationalPolytope.empty()


def negation_involution() -> InvolutionSpec:
    return InvolutionSpec(-1, "negation")


def identity_involution() -> InvolutionSpec:
    return InvolutionSpec(1, "identity")


class ExactGroupElement2x2(Value):
    """2x2 matrix over Q(i) with determinant exactly 1."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    def __init__(self, a: GaussianRational, b: GaussianRational,
                 c: GaussianRational, d: GaussianRational):
        det = a * d - b * c
        if not (det.re == 1 and det.im == 0):
            raise ValueError("determinant is not exactly 1")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @classmethod
    def upper(cls, alpha: GaussianRational, beta: GaussianRational) -> "ExactGroupElement2x2":
        """Borel element [[alpha, beta], [0, 1/alpha]]."""
        if alpha.is_zero:
            raise ValueError("alpha must be nonzero")
        zero = GaussianRational(Fraction(0))
        one = GaussianRational(Fraction(1))
        return cls(alpha, beta, zero, one / alpha)

    def apply(self, pair: tuple[GaussianRational, GaussianRational]
              ) -> tuple[GaussianRational, GaussianRational]:
        x, y = pair
        return (self.a * x + self.b * y, self.c * x + self.d * y)
