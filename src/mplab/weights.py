"""Weight lattice, dominant chamber, torus involutions and 2x2 group elements.

Conventions for the worked model: the maximal torus of SU(2) consists of the
diagonal matrices, weights are stored in alpha-units (one coordinate per
SU(2) factor, integers on the lattice), and the dominant chamber is the
nonnegative orthant.  All involution data acts on these coordinates by an
integer matrix, which keeps every eigenspace basis rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    GaussianRational,
    LinearInvolution,
    RatMatrix,
    Vector,
    eigensplit,
    frac,
    vector,
)

Weight = Vector


def weight_embed(coords) -> Weight:
    """Integer weight(s) in alpha-units; accepts a single int or one per factor."""
    if isinstance(coords, (int, Fraction)):
        coords = (coords,)
    return vector(coords)


def is_dominant(w: Sequence) -> bool:
    return all(frac(c) >= 0 for c in w)


def diagonal_project(w: Sequence) -> Weight:
    """Dual of the diagonal inclusion: a rank-2 weight maps to its coordinate sum."""
    wv = vector(w)
    if len(wv) != 2:
        raise ValueError("diagonal projection expects a rank-2 weight")
    return (wv[0] + wv[1],)


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


def negation_involution(rank: int = 1) -> InvolutionSpec:
    return InvolutionSpec(LinearInvolution(-RatMatrix.identity(rank)), "negation")


def identity_involution(rank: int = 1) -> InvolutionSpec:
    return InvolutionSpec(LinearInvolution(RatMatrix.identity(rank)), "identity")


def involution_eigenspaces(gamma: InvolutionSpec) -> tuple[list[Vector], list[Vector]]:
    """Bases of the (fixed part, negated part) of the torus dual under gamma.

    The fixed (+1) eigenspace carries the compact-side weights, the negated
    (-1) eigenspace is where moment values of involution-fixed points live.
    """
    return eigensplit(gamma.action)


@dataclass(frozen=True)
class GroupElement2x2:
    """Numeric 2x2 complex matrix of determinant 1 (tolerance 1e-12)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1) > 1e-12:
            raise ValueError(f"determinant {det} is not 1")

    @property
    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def in_borel(self, tol: float = 1e-12) -> bool:
        """Upper triangular: member of B."""
        return abs(self.c) <= tol

    def in_unipotent(self, tol: float = 1e-12) -> bool:
        """Strictly upper triangular unipotent: member of N = [B, B]."""
        return abs(self.c) <= tol and abs(self.a - 1) <= tol and abs(self.d - 1) <= tol

    def in_real_borel_identity(self, tol: float = 1e-12) -> bool:
        """Real upper triangular with positive diagonal: member of H."""
        return (abs(self.c) <= tol
                and abs(self.a.imag) <= tol and abs(self.b.imag) <= tol
                and abs(self.d.imag) <= tol and self.a.real > 0)

    def in_su2(self, tol: float = 1e-9) -> bool:
        return (abs(self.d - self.a.conjugate()) <= tol
                and abs(self.c + self.b.conjugate()) <= tol)

    def apply(self, pair: tuple[complex, complex]) -> tuple[complex, complex]:
        x, y = pair
        return (self.a * x + self.b * y, self.c * x + self.d * y)


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
