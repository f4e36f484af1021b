"""Exact closed intervals on the rank-1 weight axis.

Every polytope of the worked model lives in the dual of the diagonal torus
of SU(2), which is a line, so a polytope is an exact closed interval over Q:
empty, a point or a segment.  It is stored as its sorted distinct endpoints,
each a ``Fraction``, so equality is syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .exactlin import Value, frac


class RationalPolytope(Value):
    """Closed interval in Q given by its endpoints; construct via :func:`hull`."""

    vertices: tuple[Fraction, ...]

    def __init__(self, vertices: tuple[Fraction, ...]):
        if len(vertices) > 2 or not all(isinstance(v, Fraction) for v in vertices):
            raise ValueError("a polytope on the line has at most two Fraction vertices")
        if list(vertices) != sorted(set(vertices)):
            raise ValueError("vertices must be unique and sorted")
        object.__setattr__(self, "vertices", vertices)

    @classmethod
    def empty(cls) -> "RationalPolytope":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        if len(self.vertices) == 1:
            return f"{{{self.vertices[0]}}}"
        return f"[{self.vertices[0]}, {self.vertices[1]}]"


def hull(points: Iterable) -> RationalPolytope:
    """Exact convex hull ``[min, max]`` of rationals on the line."""
    pts = [frac(p) for p in points]
    if not pts:
        return RationalPolytope.empty()
    lo, hi = min(pts), max(pts)
    return RationalPolytope((lo,) if lo == hi else (lo, hi))


def contains(p: RationalPolytope, x) -> bool:
    """Exact membership ``lo <= x <= hi`` of a rational in the closed interval."""
    x = frac(x)
    return not p.is_empty and p.vertices[0] <= x <= p.vertices[-1]
