"""Floating-point laboratory: moment map, orbit samplers, and identity checks.

Axis conventions (fixed once by calibration against the exact engine, not by
formula):

* the dominant chamber is the positive third-axis ray,
* real-coordinate points have moment values in the (e1, e3)-plane (the
  negated eigenspace of entrywise conjugation), and the fixed axis of the
  conjugation involution is e2,
* the per-factor unit vector sends (0:1) to +e3 and the Borel-fixed point
  (1:0) to -e3.  The latter sign is forced by the exact polytopes: the
  factor-times-point orbit closure must land on {lam1 - lam2}, not
  {lam1 + lam2}, on the chamber ray.

The derivative identity for invariant sections is checked with the
fundamental vector field generated by exp(-t*xi); with that convention and
the pairing normalization calibrated below, the identity

    L(xi_M) |s|^2 = 4 pi r (-w(pr xi) + <pr xi, Phi>) |s|^2

holds for every upper-triangular xi, where w is the section's weight in
alpha-units and pr is the imaginary-part projection onto the compact algebra.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cached_property
from typing import IO

import numpy as np

from .exactlin import Value
from .orbits import FlagPoint
from .reps import BiHomogPoly, SectionSpaceSpec, highest_weight_vector

KSTAR_AXIS = 1  # coordinate fixed by the conjugation involution

ComplexPair = tuple[complex, complex]
ComplexFlagPoint = tuple[ComplexPair, ComplexPair]


def _check_base(point) -> tuple[ComplexFlagPoint, list[float]]:
    """The point's pairs as complex floats, and their squared moduli |a|^2 + |c|^2.

    Refuses a coordinate beyond the float range, a non-finite coordinate, a
    zero pair and a pair whose squared modulus a float cannot hold (0 or inf
    from a nonzero pair).  The pairs of a FlagPoint are exactly nonzero, so
    floats (0, 0) there underflow.
    """
    (a1, c1), (a2, c2) = ((point.coords[:2], point.coords[2:])
                          if isinstance(point, FlagPoint) else point)
    try:
        base = ((complex(a1), complex(c1)), (complex(a2), complex(c2)))
    except OverflowError:
        raise ValueError("a coordinate is beyond the float range; "
                         "scale its pair toward 1") from None
    moduli = []
    for a, c in base:
        if not (cmath.isfinite(a) and cmath.isfinite(c)):
            raise ValueError("base point coordinates must be finite")
        if a == 0 and c == 0 and not isinstance(point, FlagPoint):
            raise ValueError("zero coordinate pair")
        try:
            n = abs(a) ** 2 + abs(c) ** 2
        except OverflowError:
            n = math.inf
        if n == 0 or n == math.inf:
            raise ValueError(f"squared modulus of the coordinate pair ({a}, {c}) "
                             f"{'underflows to 0' if n == 0 else 'overflows'}; "
                             "scale the pair toward 1")
        moduli.append(n)
    return base, moduli


def _hopf_batch(a: np.ndarray, c: np.ndarray, lam) -> np.ndarray:
    """lam (a scalar or an (n, 1) column) times the unit vectors of the pairs
    (a, c), (0:1) -> +e3 and (1:0) -> -e3, as a column-major (n, 3) array."""
    aa, cc = np.abs(a) ** 2, np.abs(c) ** 2
    ac = np.conj(a) * c
    h = np.empty((len(a), 3), order="F")
    np.multiply(ac.real, -2, out=h[:, 0])
    np.multiply(ac.imag, -2, out=h[:, 1])
    np.subtract(cc, aa, out=h[:, 2])
    h /= (aa + cc)[:, None]
    h *= lam
    return h


def _check_float_weights(lam1, lam2) -> None:
    for lam in (lam1, lam2):
        if lam != lam:
            raise ValueError("a weight is nan")
        if not -sys.float_info.max <= lam <= sys.float_info.max:  # also +-inf
            raise ValueError("a weight is beyond the float range")


def moment_map(point, lam1: float, lam2: float) -> np.ndarray:
    """Diagonal-action moment value lam1*h(p1) + lam2*h(p2) in R^3 (alpha-units);
    refuses what :func:`sample_orbit` refuses in a base point or a weight."""
    _check_float_weights(lam1, lam2)
    return _moment_value(_check_base(point)[0], lam1, lam2)


def _moment_value(base: ComplexFlagPoint, lam1: float, lam2: float) -> np.ndarray:
    """:func:`moment_map` at pairs that :func:`_check_base` returned."""
    a, c = np.array(base, order="F").T  # (a1, a2) and (c1, c2)
    h = _hopf_batch(a, c, np.array([[lam1], [lam2]], float))
    return h[0] + h[1]


class SampleSet(Value):
    """Reproducible orbit sample: identical (inputs, seed) give equal, unhashable sets."""

    coords: np.ndarray   # (n, 4) complex: a1, c1, a2, c2; column-major when sampled
    phis: np.ndarray     # (n, 3) float; column-major when sampled

    def __init__(self, coords: np.ndarray, phis: np.ndarray):
        self.__dict__.update(coords=coords, phis=phis)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._astuple(), other._astuple()))

    @property
    def count(self) -> int:
        return int(self.coords.shape[0])

    @cached_property
    def norms(self) -> np.ndarray:
        """|Phi| of every sample, computed once.

        Summed as (p0 p0 + p1 p1) + p2 p2, the order of ``np.linalg.norm``'s
        reduction along a row of three, so the two agree bit for bit.
        """
        p0, p1, p2 = (self.phis[:, c] for c in range(3))
        return np.sqrt((p0 * p0 + p1 * p1) + p2 * p2)


# A 2x2 matrix per sample, as its four entries (g00, g01, g10, g11): each an
# (n,) complex array or a complex scalar shared by every sample.
_Entry = np.ndarray | complex
Entries = tuple[_Entry, _Entry, _Entry, _Entry]


def _draw_matrices(subgroup: str, n: int, rng: np.random.Generator
                   ) -> tuple[Entries, Entries]:
    """Per-sample 2x2 matrices (g1, g2) applied to the two factors."""
    if subgroup == "B":
        alpha = np.exp(rng.uniform(-3, 3, n) + 1j * rng.uniform(-np.pi, np.pi, n))
        beta = np.tan(rng.uniform(-1.55, 1.55, n)) + 1j * np.tan(rng.uniform(-1.55, 1.55, n))
        g = (alpha, beta, 0j, 1 / alpha)
        return g, g
    if subgroup == "H":
        alpha = np.exp(rng.uniform(-3, 3, n)).astype(complex)
        beta = np.tan(rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, n)).astype(complex)
        g = (alpha, beta, 0j, 1 / alpha)
        return g, g
    if subgroup == "G":
        return _haar_su2(n, rng), _haar_su2(n, rng)
    # G', the only tag left after check_sample_args: g = k @ an with the
    # rotation k = [[cos, sin], [-sin, cos]] and an = [[alpha, beta],
    # [0, 1/alpha]], all real.  The left column needs no sum, as an's
    # lower-left entry is 0.  The right column is correctly rounded,
    # fma(k_i1, 1/alpha, round(k_i0 * beta)), so the bytes are the same on
    # every host and BLAS kernel.  _fma is exact only without overflow and
    # underflow: every entry is at most e^2 * tan(1.5) ~ 105 in modulus, and
    # every nonzero product at least about 1e-33.
    theta = rng.uniform(-np.pi, np.pi, n)
    t = rng.uniform(-2, 2, n)
    s = np.tan(rng.uniform(-1.5, 1.5, n))
    cos, sin = np.cos(theta), np.sin(theta)
    alpha = np.exp(t)
    beta = alpha * s
    inv_alpha = 1 / alpha
    g = (cos * alpha, _fma(sin, inv_alpha, cos * beta),
         -sin * alpha, _fma(cos, inv_alpha, -sin * beta))
    g = tuple(entry.astype(complex) for entry in g)
    return g, g


_VELTKAMP = 2.0 ** 27 + 1  # splits a 53-bit significand into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = round(a + b) and the error e, so that a + b == s + e exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fma(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a * b + c rounded once to nearest, entrywise on float arrays.

    Boldo & Melquiond, "Emulation of FMA and correctly rounded sums: proved
    algorithms using rounding to odd", IEEE Trans. Computers 57(4), 2008:
    Dekker's two-product gives a * b == p + e exactly, a TwoSum gives
    c + p == hi + lo exactly, lo + e is rounded to odd, and one rounding to
    nearest adds it to hi.  Exact only when no product, split or sum
    overflows and no nonzero product underflows; the caller bounds its
    inputs.
    """
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    hi, lo = _two_sum(c, p)
    v, err = _two_sum(lo, e)
    # Round to odd: an inexact v with an even last bit steps one ulp toward
    # err.  On the bits of a nonzero float, +1 moves |v| up and -1 down.
    bits = v.view(np.int64)
    step = ((bits & 1) == 0) & (err != 0)
    up = np.signbit(v) == np.signbit(err)
    bits += step & up
    bits -= step & ~up
    # 0 - v is -v, or +0 for either zero, and x - (+0) is x: where lo + e is
    # exactly 0 the result is hi, its zero's sign included.
    return hi - (0.0 - v)


def _haar_su2(n: int, rng: np.random.Generator) -> Entries:
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return (q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3],
            -q[:, 2] + 1j * q[:, 3], q[:, 0] - 1j * q[:, 1])


def _apply(g: Entries, a: complex, c: complex, out: np.ndarray) -> None:
    """Write g @ (a, c) into the two columns of out.

    Each entry is summed from zero in matmul's order, (0 + g00*a) + g01*c,
    so the result equals a batched ``g @ [a, c]`` bit for bit, signed zeros
    included.
    """
    g00, g01, g10, g11 = g
    np.add(0 + g00 * a, g01 * c, out=out[:, 0])
    np.add(0 + g10 * a, g11 * c, out=out[:, 1])


def check_sample_args(subgroup: str, n: int) -> None:
    """Refuse, before any work, a sample size below 1 or a tag other than B, H, G and G'."""
    if n < 1:
        raise ValueError("need n >= 1")
    if subgroup not in ("B", "H", "G", "G'"):
        raise ValueError(f"unknown subgroup tag {subgroup!r}; expected B, H, G or G'")


def _orbit_coords(base: ComplexFlagPoint, subgroup: str, n: int, seed: int) -> np.ndarray:
    """The column-major (n, 4) complex coordinates of the drawn g.x; the
    matrices die here."""
    g1, g2 = _draw_matrices(subgroup, n, np.random.default_rng(seed))
    coords = np.empty((n, 4), dtype=complex, order="F")
    _apply(g1, *base[0], coords[:, 0:2])
    _apply(g2, *base[1], coords[:, 2:4])
    return coords


def sample_orbit(x, subgroup: str, n: int, seed: int,
                 lam1: int = 2, lam2: int = 1) -> SampleSet:
    """n orbit points g.x with g from a seeded parametrization of the subgroup.

    B is the complex upper-triangular determinant-1 group, H its real
    positive-diagonal identity component, G pairs of independently drawn
    special-unitary elements acting factor-by-factor, and G' the real
    determinant-1 group; B, H, G' act by the same matrix on both factors.
    A zero coordinate pair, a non-finite coordinate or a pair whose squared
    modulus underflows to 0 or overflows is refused before anything is
    drawn, and so is a weight a float cannot hold.  A drawn element can
    still scale a pair near either end out of range, so a sample with a
    non-finite moment value is refused after.
    """
    check_sample_args(subgroup, n)
    _check_float_weights(lam1, lam2)
    base = _check_base(x)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        coords = _orbit_coords(base, subgroup, n, seed)
        phis = _hopf_batch(coords[:, 0], coords[:, 1], lam1)
        phis += _hopf_batch(coords[:, 2], coords[:, 3], lam2)
    if not np.isfinite(phis).all():
        raise ValueError("a drawn orbit point leaves the float range; "
                         "scale the base point's pairs toward 1")
    return SampleSet(coords=coords, phis=phis)


def sampled_delta(samples: SampleSet, mode: str = "radial",
                  eps: float = 0.05) -> tuple[float, float] | None:
    """Interval estimate of the chamber-ray cut of the sampled moment image.

    ``radial`` returns [min |Phi|, max |Phi|]; valid when the sampled image
    is swept around the (e1, e3)-plane, as for real tori and diagonal-type
    orbits.  ``angular`` keeps only samples within ``eps`` radians of the
    positive chamber ray and hulls their norms; returns None when no sample
    qualifies (the numeric stand-in for an empty cut).
    """
    if samples.count == 0:
        raise ValueError("empty sample set")
    norms = samples.norms
    if mode == "radial":
        return (float(norms.min()), float(norms.max()))
    if mode == "angular":
        safe = np.maximum(norms, 1e-300)
        angles = np.arccos(np.clip(samples.phis[:, 2] / safe, -1.0, 1.0))
        angles = np.where(norms == 0, 0.0, angles)  # the origin lies on the ray
        keep = angles < eps
        if not keep.any():
            return None
        kept = norms[keep]
        return (float(kept.min()), float(kept.max()))
    raise ValueError(f"unknown mode {mode!r}")


def _gather_columns(points: np.ndarray, index: np.ndarray) -> np.ndarray:
    """points[index] as a column-major array, gathered one column at a time."""
    out = np.empty((len(index), points.shape[1]), order="F")
    for c in range(points.shape[1]):
        # every index is in range; "clip" spares the buffered bounds check
        np.take(points[:, c], index, out=out[:, c], mode="clip")
    return out


# The exact sweep and cell grid behind hausdorff_distance.  Every squared
# distance is summed column by column, d0^2 + d1^2 + ..., in the order cKDTree
# sums it, and the one square root is taken at the end, so their distance
# equals the tree's bit for bit.
_FIRST_WINDOW = 8      # sorted targets scanned around each query in the first round
_PROBE = 256           # queries that try the first round before a cloud is swept
_CHUNK = 1 << 18       # candidate distances held at once by one round
_GRID_MAX_DIM = 3      # the cell grid serves clouds of at most this dimension
_CELLS_PER_TARGET = 0.5  # the grid's cell count, per target
_GRID_MAX_SIDE = 1 << 20  # cells along an axis, so index rounding stays below the margin
_GRID_MARGIN = 1 - 1e-9  # a grid minimum below (margin * edge)^2 is exact


def _sorted_along_spread(targets: np.ndarray) -> tuple[np.ndarray, int]:
    """The targets sorted along their axis of largest spread, column-major,
    and that axis."""
    axis = int(np.argmax(np.ptp(targets, axis=0)))
    return _gather_columns(targets, np.argsort(targets[:, axis])), axis


def _sweep_round(queries: np.ndarray, pos: np.ndarray, targets: np.ndarray,
                 axis: int, inner: int, half: int, best: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Scan the sorted targets at offsets [-half, -inner) and [inner, half) of pos.

    Each column of the column-major targets is gathered with one index array.

    Returns each query's best squared distance so far and whether it is
    resolved: no unscanned target is nearer along the axis than that best.
    Offsets beyond either end of the cloud are clamped to that end, a real
    target, so scanning it twice changes no minimum.
    """
    n, d = targets.shape
    offsets = np.r_[np.arange(-half, -inner), np.arange(inner, half)]
    step = max(1, _CHUNK // len(offsets))
    scanned = np.empty(len(queries))
    for s in range(0, len(queries), step):
        rows = queries[s:s + step]
        cand = np.clip(pos[s:s + step, None] + offsets, 0, n - 1)
        diff = rows[:, 0, None] - targets[:, 0][cand]
        sq = diff * diff
        for c in range(1, d):
            diff = rows[:, c, None] - targets[:, c][cand]
            sq += diff * diff
        scanned[s:s + step] = sq.min(axis=1)
    best = np.minimum(best, scanned)
    # The axis term of a distance never exceeds the rounded sum, so the
    # squared axis gap to the nearest unscanned target bounds all of them.
    xs, qx = targets[:, axis], queries[:, axis]
    left, right = pos - half - 1, pos + half
    gap_left = np.where(left >= 0, qx - xs[np.maximum(left, 0)], np.inf)
    gap_right = np.where(right < n, xs[np.minimum(right, n - 1)] - qx, np.inf)
    return best, best <= np.minimum(gap_left * gap_left, gap_right * gap_right)


def _probe_resolves(queries: np.ndarray, targets: np.ndarray, axis: int) -> bool:
    """Whether the first round resolves at least half of a spread of queries.

    Points on a curve resolve in a few neighbours along the axis; a cloud
    that fills a volume or an area mostly does not, and the cell grid serves
    it better.  A cloud of at most _PROBE queries is swept whatever its shape.
    """
    if len(queries) <= _PROBE:
        return True
    probe = queries[np.linspace(0, len(queries) - 1, _PROBE).astype(np.intp)]
    pos = np.searchsorted(targets[:, axis], probe[:, axis])
    _, done = _sweep_round(probe, pos, targets, axis, 0, _FIRST_WINDOW // 2,
                           np.full(_PROBE, np.inf))
    return 2 * int(done.sum()) >= _PROBE


def _sweep_max_sq(queries: np.ndarray, targets: np.ndarray, axis: int,
                  floor: float) -> float:
    """max(floor, largest squared distance from a query to its nearest target).

    Each query's window of sorted targets grows outward from its
    ``searchsorted`` position, doubling its width each round, until it is
    resolved.  A query whose best cannot raise the running maximum is
    dropped unresolved.
    """
    queries = _gather_columns(queries, np.argsort(queries[:, axis]))
    pos = np.searchsorted(targets[:, axis], queries[:, axis])
    best = np.full(len(queries), np.inf)
    inner, half = 0, _FIRST_WINDOW // 2
    while len(queries):
        best, done = _sweep_round(queries, pos, targets, axis, inner, half, best)
        if done.any():
            floor = max(floor, float(best[done].max()))
        keep = ~done & (best > floor)
        queries, pos, best = queries[keep], pos[keep], best[keep]
        inner, half = half, 2 * half
    return floor


def _segment_minima(queries: np.ndarray, targets: np.ndarray, owner: np.ndarray,
                    first: np.ndarray, length: np.ndarray, best: np.ndarray) -> None:
    """Lower best[i] to the least squared distance from queries[i] to its segments.

    Segment j is targets[first[j]:first[j] + length[j]], searched for query
    owner[j]; owner is nondecreasing.  The segments are laid end to end and
    cut into slices of _CHUNK candidates, and each query's minimum over a
    slice comes from one ``np.minimum.reduceat``.
    """
    keep = length > 0
    owner, first, length = owner[keep], first[keep], length[keep]
    end = np.cumsum(length)
    begin = end - length
    total = int(end[-1]) if len(end) else 0
    for s in range(0, total, _CHUNK):
        e = min(s + _CHUNK, total)
        j0, j1 = np.searchsorted(end, s, "right"), np.searchsorted(begin, e)
        lo = np.maximum(begin[j0:j1], s)
        size = np.minimum(end[j0:j1], e) - lo
        cand = np.repeat(first[j0:j1] - begin[j0:j1], size) + np.arange(s, e)
        rows = np.repeat(owner[j0:j1], size)
        diff = queries[:, 0][rows] - targets[:, 0][cand]
        sq = diff * diff
        for c in range(1, targets.shape[1]):
            diff = queries[:, c][rows] - targets[:, c][cand]
            sq += diff * diff
        own = owner[j0:j1]
        run = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
        best[own[run]] = np.minimum(best[own[run]], np.minimum.reduceat(sq, lo[run] - s))


def _cell_ids(points: np.ndarray, lo: np.ndarray, edge: float, side: np.ndarray
              ) -> np.ndarray:
    """Each point's cell in the padded grid, row-major; a point beyond the
    grid's box is clipped to its border cells."""
    cell = np.zeros(len(points), dtype=np.intp)
    for c in range(points.shape[1]):
        k = np.clip(np.floor((points[:, c] - lo[c]) / edge), 0, side[c] - 3) + 1
        cell = cell * side[c] + k.astype(np.intp)
    return cell


def _grid_max_sq(queries: np.ndarray, targets: np.ndarray,
                 ordered: tuple[np.ndarray, int], floor: float) -> float:
    """max(floor, largest squared distance from a query to its nearest target).

    The fixed-radius cell method of Bentley, Stanat and Williams (1977).  The
    targets are binned into cubic cells of edge h over the box both clouds
    span, with an empty ring around it; a point beyond the box is clipped to
    its border cells.  A query's minimum over its own cell bounds its
    distance; a query whose bound can raise the running maximum searches the
    3^d cells around it.  A minimum below (h (1 - 1e-9))^2 is exact: every
    target outside the block lies more than h away along some axis, rounding
    of the cell indices included.  Queries more than h outside the targets'
    box are swept first, which raises the running maximum early; once it
    exceeds (2h)^2, no minimum the grid settles can raise it, and the sweep's
    first round drops most of the rest, so they are swept too.  The few the
    grid leaves open are swept last; ``ordered`` is the targets sorted along
    their spread.
    """
    n, d = targets.shape
    t_lo, t_hi = targets.min(axis=0), targets.max(axis=0)
    lo = np.maximum(t_lo, queries.min(axis=0))
    span = np.maximum(np.minimum(t_hi, queries.max(axis=0)) - lo, 0)
    # a box of one point takes its edge from the targets' box, or any edge
    edge = _cell_edge(span, n) or _cell_edge(t_hi - t_lo, n) or 1.0
    far = ((queries < t_lo - edge) | (queries > t_hi + edge)).any(axis=1)
    floor = _sweep_spread(queries[far], targets, ordered, floor)
    queries = queries[~far]
    limit = (edge * _GRID_MARGIN) ** 2
    if floor >= 4 * limit:
        return _sweep_max_sq(queries, *ordered, floor)
    side = (np.minimum(np.floor(span / edge), _GRID_MAX_SIDE) + 3).astype(np.intp)
    cell = _cell_ids(targets, lo, edge, side)
    order = np.argsort(cell)
    binned, cell = _gather_columns(targets, order), cell[order]
    count = np.bincount(cell, minlength=int(np.prod(side)))
    first = np.cumsum(count) - count
    qcell = _cell_ids(queries, lo, edge, side)
    bound = np.full(len(queries), np.inf)
    _segment_minima(queries, binned, np.arange(len(queries)),
                    first[qcell], count[qcell], bound)
    stride = np.cumprod(np.r_[1, side[:0:-1]])[::-1]
    around = np.stack(np.meshgrid(*[(-1, 0, 1)] * d, indexing="ij"), -1).reshape(-1, d)
    around = around[around.any(axis=1)] @ stride
    left = []
    for pick in (count[qcell] == 0, count[qcell] > 0):  # empty own cells first
        sel = np.flatnonzero(pick & (bound > floor))
        near = (qcell[sel, None] + around).ravel()
        _segment_minima(queries, binned, np.repeat(sel, len(around)),
                        first[near], count[near], bound)
        done = bound[sel] < limit
        if done.any():
            floor = max(floor, float(bound[sel][done].max()))
        left.append(sel[~done])
    left = np.concatenate(left)
    return _sweep_max_sq(queries[left[bound[left] > floor]], *ordered, floor)


def _sweep_spread(queries: np.ndarray, targets: np.ndarray,
                  ordered: tuple[np.ndarray, int], floor: float) -> float:
    """_sweep_max_sq along the axis of largest spread of the queries and the
    targets together; ``ordered`` serves when that is the targets' own axis."""
    if not len(queries):
        return floor
    axis = int(np.argmax(np.maximum(targets.max(axis=0), queries.max(axis=0))
                         - np.minimum(targets.min(axis=0), queries.min(axis=0))))
    if axis != ordered[1]:
        ordered = _gather_columns(targets, np.argsort(targets[:, axis])), axis
    return _sweep_max_sq(queries, *ordered, floor)


def _cell_edge(span: np.ndarray, n: int) -> float:
    """The edge of about n * _CELLS_PER_TARGET cubic cells over a box of these
    spans, or 0 when every span is 0.

    An axis shorter than the edge is one cell, so a sheet or a line makes no
    more cells than a volume.  The geometric means are taken in logs, to
    stay in the float range.
    """
    logs = sorted((math.log(s) for s in span.tolist() if s > 0), reverse=True)
    total = -math.log(max(1.0, n * _CELLS_PER_TARGET))
    edge = 0.0
    for k, log in enumerate(logs, 1):
        total += log
        edge = max(edge, math.exp(total / k))
    return edge


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric sample-based Hausdorff distance between two point clouds.

    The distance is exact and equal bit for bit to ``scipy.spatial.cKDTree``;
    it never imports SciPy.  The queries of each direction are swept along
    the targets' axis of largest spread.  When a probe of the first round
    leaves most queries unresolved, as on clouds that fill a volume, and
    d <= 3, a cell grid over the targets answers them instead, and hands the
    few it cannot settle to the sweep.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.size == 0 or b.size == 0:
        raise ValueError("a point cloud must have shape (n, d) with n, d >= 1")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"point clouds of dimensions {a.shape[1]} and {b.shape[1]}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("point clouds must be finite, with no nan or inf")
    # d squared differences of at most twice the bound sum to at most float
    # max, with a margin of (d + 2) epsilon for the roundings on the way.
    d = a.shape[1]
    bound = math.sqrt(sys.float_info.max / (4 * d)) * (1 - (d + 2) * sys.float_info.epsilon)
    if max(np.abs(a).max(), np.abs(b).max()) > bound:
        raise ValueError(f"a point cloud coordinate exceeds {bound} in magnitude, "
                         f"where a squared distance in dimension {d} can overflow")
    floor = -np.inf
    for queries, targets in ((a, b), (b, a)):
        ordered = _sorted_along_spread(targets)
        if d <= _GRID_MAX_DIM and not _probe_resolves(queries, *ordered):
            floor = _grid_max_sq(queries, targets, ordered, floor)
        else:
            floor = _sweep_max_sq(queries, *ordered, floor)
    return float(np.sqrt(floor))


# The largest radius coadjoint_fixed_check takes.  Its clouds lie on the sphere
# of radius lam, so every squared distance is at most 12 lam^2 (about 1.2e301
# here) and stays in the float range: hausdorff_distance takes up to 3.87e153.
COADJOINT_MAX_RADIUS = 1e150


def coadjoint_fixed_check(lam: float, n: int, seed: int, plane: str = "q") -> float:
    """Hausdorff distance between a sphere-plane cut and a stabilizer orbit.

    The sphere of radius lam cut by the (e1, e3)-plane is compared with the
    orbit of lam*e3 under the rotation subgroup fixed by entrywise
    conjugation (computed by genuinely conjugating the algebra element, not
    by reusing the circle parametrization).  ``plane='k'`` is the negative
    control: the sphere is cut by the fixed axis instead, leaving two points.
    A lam that is not a number in [0, COADJOINT_MAX_RADIUS] is refused before
    anything is drawn.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= lam <= COADJOINT_MAX_RADIUS:  # also refuses nan
        raise ValueError(f"lam must be a radius in [0, {COADJOINT_MAX_RADIUS:g}], got {lam!r}")
    rng = np.random.default_rng(seed)
    if plane == "q":
        th = rng.uniform(0, 2 * np.pi, n)
        cut = np.zeros((n, 3), order="F")
        np.multiply(lam, np.cos(th), out=cut[:, 0])
        np.multiply(lam, np.sin(th), out=cut[:, 2])
    elif plane == "k":  # the fixed axis meets the sphere in +-lam e2 alone
        cut = np.zeros((2, 3), order="F")
        cut[:, KSTAR_AXIS] = lam, -lam
    else:
        raise ValueError(f"unknown plane {plane!r}")
    # u = [[cos, sin], [-sin, cos]] conjugates the algebra element (i h) sigma3,
    # h = lam/2, whose coordinates are (0, 0, lam).  Written out entry by
    # entry, the first row of u (i h sigma3) is i (a, b) with (a, b) =
    # h (cos, -sin), and the coordinates of xi = u (i h sigma3) u^* in the
    # (i/2) Pauli basis are 2 Im(xi_01) = 2 (b cos + a (-sin)), 2 Re(xi_01) = 0
    # (u is real) and 2 Im(xi_00) = 2 (b sin + a cos).  Each sum is one fma
    # over the rounded first product, as an FMA matmul kernel computes it, so
    # it is correctly rounded on every host.  _fma is exact here from
    # lam = COADJOINT_MAX_RADIUS (no split or product overflows) down to about
    # 1e-259: below that, the smallest nonzero product, h times the square of
    # the smallest nonzero |cos| or |sin| a draw can give (about 6e-17), falls
    # under 2^-969, where Dekker's two-product stops being exact, and an entry
    # can be off in its last bits.
    psi = rng.uniform(0, 2 * np.pi, n)
    cos, sin = np.cos(psi), np.sin(psi)
    h = lam / 2
    a, b = cos * h, -sin * h
    orbit = np.zeros((n, 3), order="F")
    np.multiply(_fma(b, cos, a * -sin), 2, out=orbit[:, 0])
    np.multiply(_fma(b, sin, a * cos), 2, out=orbit[:, 2])
    return hausdorff_distance(cut, orbit)


def section_norm_sq(vec: BiHomogPoly, spec: SectionSpaceSpec, point) -> float:
    """Scale-invariant squared norm |F(z)|^2 / (|z1|^(2 r lam1) |z2|^(2 r lam2)),
    at a point that :func:`_check_gradient_point` accepts."""
    return _norm_sq(vec, *_check_gradient_point(point, spec))


def _norm_sq(vec: BiHomogPoly, base: ComplexFlagPoint, divisor: float) -> float:
    """:func:`section_norm_sq` at what :func:`_check_gradient_point` returned."""
    (a1, c1), (a2, c2) = base
    return float(abs(vec.evaluate_complex((a1, c1, a2, c2))) ** 2 / divisor)


_FLOW_STEP = 1e-5  # central-difference step of the gradient check along the flow


def _flow_matrix(a: np.ndarray) -> np.ndarray:
    """exp(a) of an upper-triangular 2x2 a, in closed form.

    exp([[u, b], [0, v]]) = [[e^u, b e^m sinh(h)/h], [0, e^v]] with
    m = (u + v)/2, h = (u - v)/2 and sinh(h)/h = 1 at h = 0.  The entry of a
    below the diagonal is not read; _check_borel bounds it by 1e-12.  Raises
    OverflowError where an exponential leaves the float range.
    """
    u, b, v = complex(a[0, 0]), complex(a[0, 1]), complex(a[1, 1])
    h = (u - v) / 2
    sinhc = cmath.sinh(h) / h if h else 1
    return np.array([[cmath.exp(u), b * cmath.exp((u + v) / 2) * sinhc],
                     [0, cmath.exp(v)]])


def _check_gradient_point(point, spec: SectionSpaceSpec) -> tuple[ComplexFlagPoint, float]:
    """The point's complex pairs and the divisor of :func:`section_norm_sq`,
    the product over both pairs of the squared modulus to the power r*lam.

    Refuses, naming the point, what :func:`sample_orbit` refuses, and a
    point where the divisor underflows to 0 or overflows.
    """
    try:
        base, moduli = _check_base(point)
        try:
            divisor = moduli[0] ** (spec.r * spec.lam1) * moduli[1] ** (spec.r * spec.lam2)
        except OverflowError:
            divisor = math.inf
        if not 0 < divisor < math.inf:
            raise ValueError(f"the squared moduli of its pairs to the powers "
                             f"{spec.r * spec.lam1} and {spec.r * spec.lam2} multiply to "
                             f"{'0' if divisor == 0 else 'more than a float holds'}; "
                             "scale the pairs toward 1")
    except ValueError as exc:
        raise ValueError(f"point {point}: {exc}") from None
    return base, divisor


def _check_borel(xi: np.ndarray):
    if np.shape(xi) != (2, 2):
        raise ValueError(f"xi must be a 2 x 2 matrix, got shape {np.shape(xi)}")
    if not np.isfinite(xi).all():
        raise ValueError("xi must be finite, with no nan or inf")
    if abs(xi[1, 0]) > 1e-12 or abs(xi[0, 0] + xi[1, 1]) > 1e-12:
        raise ValueError("xi must be upper triangular and traceless")


def _identity_terms(base: ComplexFlagPoint, divisor: float, xi: np.ndarray,
                    spec: SectionSpaceSpec, k: int) -> tuple[float, float, float, float]:
    """The terms of the derivative identity for section k at (point, xi),
    given the point's pairs and divisor from :func:`_check_gradient_point`.

    Returns the central difference of |s|^2 along the exp(-t*xi) flow, |s|^2,
    w(pr xi) / 4 pi and <Phi, pr xi>.  Refuses an xi whose flow, or the
    section norms along it, leave the float range.
    """
    vec = highest_weight_vector(spec, k)
    norm2 = _norm_sq(vec, base, divisor)
    flowed = []  # |s|^2 at the point moved by exp(-t*xi), t = +-_FLOW_STEP, each checked
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in (_FLOW_STEP, -_FLOW_STEP):
                g = _flow_matrix(-t * xi)
                flowed.append(section_norm_sq(vec, spec, [g @ np.array(pair) for pair in base]))
        derivative = (flowed[0] - flowed[1]) / (2 * _FLOW_STEP)
    except (ArithmeticError, ValueError):  # out of range, or a flowed point refused
        derivative = math.nan
    if not math.isfinite(derivative):
        raise ValueError(f"the flow of xi = {xi.tolist()} over t = +-{_FLOW_STEP:g}, "
                         "or the section norms along it, leave the float range")
    # pr xi = (xi + xi^*)/(2i) in the (i/2) Pauli basis, with w = xi_01 + conj(xi_10)
    w = xi[0, 1] + xi[1, 0].conjugate()
    theta = np.array([-w.real, w.imag, -2 * xi[0, 0].real])
    weight_alpha = (spec.r * (spec.lam1 + spec.lam2) - 2 * k) / spec.r
    pairing = float(np.dot(_moment_value(base, spec.lam1, spec.lam2), theta))
    return derivative, norm2, weight_alpha * theta[2] / (4 * np.pi), pairing


def calibrate_gradient_normalization() -> float:
    """Fix the pairing constant from one closed-form datum and freeze it.

    Uses the r=1, weights (2,1), k=0 section at a fixed real point with a
    real-diagonal-plus-shear flow direction; the constant is the unique
    scalar making the derivative identity exact there.
    """
    spec = SectionSpaceSpec(1, 2, 1)
    point = ((1.0 + 0j, 2.0 + 0j), (1.0 + 0j, 3.0 + 0j))
    xi = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
    derivative, norm2, weight_term, pairing = _identity_terms(
        *_check_gradient_point(point, spec), xi, spec, 0)
    return float((derivative / (4 * np.pi * spec.r * norm2) + weight_term) / pairing)


def gradient_identity_residual(point, xi: np.ndarray, spec: SectionSpaceSpec,
                               k: int, kappa: float) -> float:
    """Relative residual of the derivative identity at one (point, direction).

    Central finite difference of |s|^2 along the exp(-t*xi) flow against
    4 pi r (-w(pr xi) + kappa * <Phi, pr xi>) |s|^2, relative to max(1, |rhs|),
    with kappa from :func:`calibrate_gradient_normalization`.  Raises if the
    section vanishes at the point, or if the point or xi cannot be evaluated
    in floating point.
    """
    base, divisor = _check_gradient_point(point, spec)
    try:
        xi = np.asarray(xi, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"xi must be a matrix of numbers: {exc}") from None
    _check_borel(xi)
    derivative, norm2, weight_term, pairing = _identity_terms(base, divisor, xi, spec, k)
    if norm2 <= 0:
        raise ValueError("section vanishes at the point; residual undefined")
    rhs = 4 * np.pi * spec.r * (-weight_term + kappa * pairing) * norm2
    return float(abs(derivative - rhs) / max(1.0, abs(rhs)))


CSV_COLUMNS = ("a1re", "a1im", "c1re", "c1im", "a2re", "a2im",
               "c2re", "c2im", "phi1", "phi2", "phi3", "norm")


# A float repr never holds a comma, quote or newline, so no field needs quoting.
_CSV_ROW = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"

# Rows turned into Python floats at a time: a 100 000-row table turned into
# one list at once holds 1.2 million float objects, about 45 MB against the
# table's 9.6 MB.
_CSV_BLOCK_ROWS = 1024


def write_samples_csv(samples: SampleSet, stream: IO[str]) -> None:
    """Deterministic CSV dump of a sample set (row order = draw order).

    Every field is the ``repr`` of a Python float, so the bytes are those of
    ``csv.writer`` with ``lineterminator="\\n"``.
    """
    table = np.empty((samples.count, len(CSV_COLUMNS)))
    table[:, 0:8:2] = samples.coords.real
    table[:, 1:8:2] = samples.coords.imag
    table[:, 8:11] = samples.phis
    table[:, 11] = samples.norms
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for start in range(0, samples.count, _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS].tolist()
        stream.writelines(_CSV_ROW % tuple(row) for row in block)
