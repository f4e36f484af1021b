"""Exact closed intervals on the rank-1 weight axis.

Every polytope of the worked model lives in the dual of the diagonal torus
of SU(2), which is a line, so a polytope is an exact closed interval over Q:
empty, a point or a segment.  It is stored as its sorted distinct endpoints,
each a 1-tuple, so equality is syntactic.  A linear subspace of the line is
the whole axis or the origin, so a subspace cut keeps the interval or keeps
at most the origin.
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


def intersect_subspace(p: RationalPolytope, basis: Sequence[Sequence]) -> RationalPolytope:
    """Exact cut of ``p`` by the span of ``basis``, a linear subspace of the line.

    One basis vector spans the whole axis and the cut is ``p``; no basis
    vector spans the origin and the cut is ``{0}`` or empty.
    """
    vecs = [_point(v) for v in basis]
    if len(vecs) > 1 or any(v[0] == 0 for v in vecs):
        raise ValueError("a basis of a subspace of the line has at most one nonzero vector")
    if vecs:
        return p
    origin = (0,)
    return hull([origin]) if contains(p, origin) else RationalPolytope.empty()
