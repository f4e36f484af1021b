"""Exact closed intervals on the rank-1 weight axis.

Every polytope of the worked model lives in the dual of the diagonal torus
of SU(2), which is a line, so a polytope is an exact closed interval over Q:
empty, a point or a segment.  It is stored as its sorted distinct endpoints,
each a 1-tuple, so equality is syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactlin import Vector, vector


@dataclass(frozen=True)
class RationalPolytope:
    """Closed interval in Q^1 given by its endpoints; construct via :func:`hull`."""

    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.vertices) > 2 or any(len(v) != 1 for v in self.vertices):
            raise ValueError("a polytope on the line has at most two 1-D vertices")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be unique and sorted")

    @classmethod
    def empty(cls) -> "RationalPolytope":
        return cls(())

    @property
    def dim(self) -> int:
        return 1

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        if len(self.vertices) == 1:
            return f"{{{self.vertices[0][0]}}}"
        return f"[{self.vertices[0][0]}, {self.vertices[1][0]}]"


def _point(x: Sequence) -> Vector:
    xv = vector(x)
    if len(xv) != 1:
        raise ValueError(f"dimension mismatch: {len(xv)}-D point on the line")
    return xv


def hull(points: Iterable[Sequence]) -> RationalPolytope:
    """Exact convex hull ``[min, max]`` of points on the line."""
    pts = [_point(p) for p in points]
    if not pts:
        return RationalPolytope.empty()
    lo, hi = min(pts), max(pts)
    return RationalPolytope((lo,) if lo == hi else (lo, hi))


def contains(p: RationalPolytope, x: Sequence) -> bool:
    """Exact membership ``lo <= x <= hi`` of a point in the closed interval."""
    xv = _point(x)
    return not p.is_empty and p.vertices[0] <= xv <= p.vertices[-1]


def equals(p: RationalPolytope, q: RationalPolytope) -> bool:
    """Syntactic equality of canonical intervals."""
    return p.vertices == q.vertices
