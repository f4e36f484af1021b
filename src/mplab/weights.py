"""Torus involutions on the weight axis.

Conventions for the worked model: the maximal torus of SU(2) consists of the
diagonal matrices and weights are stored in alpha-units, integers on the
lattice.  The torus dual is a line, whose only lattice-preserving involutions
are w -> -w and w -> w, so an involution is a sign.
"""

from __future__ import annotations

from .exactlin import Value
from .polytope import RationalPolytope, _interval, contains


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
        return _interval(0) if contains(p, 0) else RationalPolytope.empty()


def negation_involution() -> InvolutionSpec:
    return InvolutionSpec(-1, "negation")


def identity_involution() -> InvolutionSpec:
    return InvolutionSpec(1, "identity")
