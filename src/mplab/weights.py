"""Torus involutions on the weight axis and exact 2x2 group elements.

Conventions for the worked model: the maximal torus of SU(2) consists of the
diagonal matrices and weights are stored in alpha-units, integers on the
lattice.  All involution data acts on these coordinates by an integer matrix,
which keeps every eigenspace basis rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import GaussianRational, LinearInvolution, RatMatrix, Vector, eigensplit


@dataclass(frozen=True)
class InvolutionSpec:
    """Lattice-preserving involution on the torus dual, with a descriptive tag."""

    action: LinearInvolution
    label: str = ""

    def __post_init__(self):
        for row in self.action.matrix.entries:
            for entry in row:
                if entry.denominator != 1:
                    raise ValueError("involution does not preserve the weight lattice")

    @property
    def rank(self) -> int:
        return self.action.dim


def negation_involution() -> InvolutionSpec:
    return InvolutionSpec(LinearInvolution(-RatMatrix.identity(1)), "negation")


def identity_involution() -> InvolutionSpec:
    return InvolutionSpec(LinearInvolution(RatMatrix.identity(1)), "identity")


def involution_eigenspaces(gamma: InvolutionSpec) -> tuple[list[Vector], list[Vector]]:
    """Bases of the (fixed part, negated part) of the torus dual under gamma.

    The fixed (+1) eigenspace carries the compact-side weights, the negated
    (-1) eigenspace is where moment values of involution-fixed points live.
    """
    return eigensplit(gamma.action)


@dataclass(frozen=True)
class ExactGroupElement2x2:
    """2x2 matrix over Q(i) with determinant exactly 1."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not (det.re == 1 and det.im == 0):
            raise ValueError("determinant is not exactly 1")

    @classmethod
    def upper(cls, alpha: GaussianRational, beta: GaussianRational) -> "ExactGroupElement2x2":
        """Borel element [[alpha, beta], [0, 1/alpha]]."""
        if alpha.is_zero:
            raise ValueError("alpha must be nonzero")
        zero = GaussianRational(Fraction(0))
        one = GaussianRational(Fraction(1))
        return cls(alpha, beta, zero, one / alpha)

    def in_borel(self) -> bool:
        return self.c.is_zero

    def in_real_borel_identity(self) -> bool:
        return (self.c.is_zero and self.a.is_real and self.b.is_real
                and self.d.is_real and self.a.re > 0)

    def apply(self, pair: tuple[GaussianRational, GaussianRational]
              ) -> tuple[GaussianRational, GaussianRational]:
        x, y = pair
        return (self.a * x + self.b * y, self.c * x + self.d * y)
