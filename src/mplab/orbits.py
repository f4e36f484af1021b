"""Exact engine for Borel-orbit closures in CP1 x CP1 and their polytopes.

A point x = ((a1:c1), (a2:c2)) with exact Q(i) coordinates determines the
closure X of its orbit under the upper-triangular Borel group acting
diagonally on both factors.  Three decidable predicates classify X:

* z1: c1 = 0 (first point is the Borel-fixed point),
* z2: c2 = 0,
* d:  a1*c2 - a2*c1 = 0 (the two points coincide).

They are decided over Gaussian integers: each coordinate pair is scaled by
the lcm of its own four denominators, which moves neither the projective
point nor whether d vanishes, and d compares the real and imaginary parts
of a1*c2 and a2*c1 as integer cross products.  The pairs are cleared once
per point, at construction, and kept as the point's ``pairs``; no
``Fraction`` product is made, and projective equality of two points uses
the same cross product.

The distinguished invariant vectors evaluate on the orbit through x as
F(x) times a nonzero factor, so their closed form
c1^(r*lam1-k) * c2^(r*lam2-k) * (a1*c2 - a2*c1)^k reduces every vanishing
question to the three predicates.  From that case analysis:

* dense orbit            -> [|lam1 - lam2|, lam1 + lam2]
* diagonal               -> {lam1 + lam2}
* CP1 x {(1:0)}          -> {lam1 - lam2} if lam1 >= lam2, else empty
  (the nonvanishing route forces k = r*lam2 <= r*lam1; symmetrically for
  {(1:0)} x CP1, which is why exactly one of the two factor cases is empty
  when lam1 != lam2)
* the fixed point        -> empty

Membership of a weight (:func:`membership_in_C`) reads this polytope: it is
containment plus the parity of the least bundle power that achieves lam.

Real-form counterparts cut these by the negated eigenspace of the torus
involution (:meth:`InvolutionSpec.negated_cut`); the headline identity
"real polytope = polytope cut by the negated eigenspace" is computed by two
independent routes, compared on every call; a disagreement raises
:class:`RouteDisagreementError`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .exactlin import GaussianRational, Value, _integral, frac
from .polytope import RationalPolytope, _interval, contains
from .reps import SectionSpaceSpec, check_weights, highest_weight_vector, power_tables
from .weights import InvolutionSpec


class OrbitClass(Enum):
    DENSE = "dense"
    DIAGONAL = "diagonal"
    FIRST_FACTOR = "first_factor"
    SECOND_FACTOR = "second_factor"
    POINT = "point"


class FlagPoint(Value):
    """Pair of homogeneous coordinate pairs over Q(i); equality is projective.

    The derived field ``pairs`` holds each coordinate pair's parts
    (a.re, a.im, c.re, c.im) times their least common denominator: the same
    projective point over Gaussian integers, computed at construction.
    """

    a1: GaussianRational
    c1: GaussianRational
    a2: GaussianRational
    c2: GaussianRational
    _derived = ("pairs",)

    def __init__(self, a1: GaussianRational, c1: GaussianRational,
                 a2: GaussianRational, c2: GaussianRational):
        if a1.is_zero and c1.is_zero:
            raise ValueError("first coordinate pair is (0, 0)")
        if a2.is_zero and c2.is_zero:
            raise ValueError("second coordinate pair is (0, 0)")
        self.__dict__.update(a1=a1, c1=c1, a2=a2, c2=c2,
                             pairs=(_pair_ints(a1, c1), _pair_ints(a2, c2)))

    @classmethod
    def real(cls, a1, c1, a2, c2) -> "FlagPoint":
        return cls(*(GaussianRational.of(v) for v in (a1, c1, a2, c2)))

    @property
    def is_real(self) -> bool:
        return all(g.is_real for g in (self.a1, self.c1, self.a2, self.c2))

    @property
    def coords(self) -> tuple[GaussianRational, GaussianRational, GaussianRational, GaussianRational]:
        return (self.a1, self.c1, self.a2, self.c2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagPoint):
            return NotImplemented
        (p, q), (p2, q2) = self.pairs, other.pairs
        return _coincide(p, p2) and _coincide(q, q2)

    __hash__ = None  # projective equality is not hash-compatible

    def __str__(self) -> str:
        return f"(({self.a1}:{self.c1}), ({self.a2}:{self.c2}))"


def _pair_ints(a: GaussianRational, c: GaussianRational) -> tuple[int, ...]:
    """The parts (a.re, a.im, c.re, c.im) times their least common
    denominator: the same projective point over Gaussian integers."""
    return tuple(_integral((a.re, a.im, c.re, c.im))[0])


def _coincide(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Whether a*c' - a'*c vanishes for the integer pairs p = (a, c), q = (a', c')."""
    ar, ai, cr, ci = p
    br, bi, dr, di = q
    return ar * dr - ai * di == br * cr - bi * ci and ar * di + ai * dr == br * ci + bi * cr


def orbit_predicates(x: FlagPoint) -> tuple[bool, bool, bool]:
    """(z1, z2, d): the three exact vanishing predicates, decided over ints."""
    p, q = x.pairs
    return not (p[2] or p[3]), not (q[2] or q[3]), _coincide(p, q)


def classify_borel_orbit_closure(x: FlagPoint) -> OrbitClass:
    z1, z2, d = orbit_predicates(x)
    if z1 and z2:
        return OrbitClass.POINT
    if z1:
        return OrbitClass.SECOND_FACTOR
    if z2:
        return OrbitClass.FIRST_FACTOR
    return OrbitClass.DIAGONAL if d else OrbitClass.DENSE


class Membership(NamedTuple):
    member: bool
    witness: int | None


def membership_in_C(x: FlagPoint, lam1: int, lam2: int, lam) -> Membership:
    """Does some bundle power carry an invariant vector of weight r*lam
    that is nonzero on the orbit closure of x?

    Exactly when lam lies in ``moment_polytope(x, lam1, lam2)``.  The
    witness, the least such r, is a multiple of den(lam); at r = m*den(lam)
    every condition on k = r(lam1 + lam2 - lam)/2 but its being an integer
    scales with r (k in [0, min(r*lam1, r*lam2)], and which closed-form
    factors vanish), and those are the polytope's case table.  Integrality
    is the parity of r(lam1 + lam2 - lam): m = 1 meets it, or else m = 2.
    """
    return _membership(moment_polytope(x, lam1, lam2), lam1, lam2, lam)


def _membership(delta: RationalPolytope, lam1: int, lam2: int, lam) -> Membership:
    """``membership_in_C`` for the point's ``moment_polytope`` ``delta``."""
    lam = frac(lam)
    if not contains(delta, lam):
        return Membership(False, None)
    q = lam.denominator
    return Membership(True, q if (q * (lam1 + lam2) - lam.numerator) % 2 == 0 else 2 * q)


def moment_polytope(x: FlagPoint, lam1: int, lam2: int) -> RationalPolytope:
    """Closure of the achievable-weight set for the orbit closure of x.

    Closed-form case analysis on the orbit class; lives in the rank-1
    torus dual (alpha-units), so the result is a segment, a point or empty.
    """
    check_weights(lam1, lam2)
    cls = classify_borel_orbit_closure(x)
    if cls is OrbitClass.DENSE:
        return _interval(abs(lam1 - lam2), lam1 + lam2)
    if cls is OrbitClass.DIAGONAL:
        return _interval(lam1 + lam2)
    if cls is OrbitClass.FIRST_FACTOR:
        return _interval(lam1 - lam2) if lam1 >= lam2 else RationalPolytope.empty()
    if cls is OrbitClass.SECOND_FACTOR:
        return _interval(lam2 - lam1) if lam2 >= lam1 else RationalPolytope.empty()
    return RationalPolytope.empty()


class RealFormCase(Value):
    """A conjugation-fixed (all-real) base point together with the torus involution."""

    x: FlagPoint
    gamma: InvolutionSpec

    def __init__(self, x: FlagPoint, gamma: InvolutionSpec):
        if not x.is_real:
            raise ValueError("base point must have real coordinates")
        self.__dict__.update(x=x, gamma=gamma)


def _achieved_hull(coords: tuple[GaussianRational, ...], lam1: int, lam2: int) -> RationalPolytope:
    """Hull of the weights whose invariant vectors at the first bundle power
    are nonzero at ``coords``; independent of the involution.  Every vector
    tested is summed over one set of power tables of the cleared point."""
    spec = SectionSpaceSpec(1, lam1, lam2)
    # F is homogeneous, so it vanishes at coords exactly where it vanishes
    # at D * coords, D the lcm of their denominators: a Gaussian-integer point.
    tables = power_tables(_integral([part for g in coords for part in (g.re, g.im)])[0],
                          lam1, lam2)
    # The weight falls as k grows, so the least and the greatest achieving k
    # span the same hull as every achieving k does.
    low = _first_nonzero(spec, range(spec.k_max + 1), tables)
    if low is None:
        return RationalPolytope.empty()
    high = _first_nonzero(spec, range(spec.k_max, low, -1), tables)
    top = lam1 + lam2
    return _interval(top - 2 * low) if high is None else _interval(top - 2 * high, top - 2 * low)


def _first_nonzero(spec: SectionSpaceSpec, ks: range, tables: list) -> int | None:
    """The first k in ``ks`` whose invariant vector is nonzero at the
    Gaussian-integer point whose power tables are ``tables``."""
    return next((k for k in ks
                 if highest_weight_vector(spec, k).table_sum(tables) != (0, 0)), None)


def gamma_highest_weight_polytope(case: RealFormCase, lam1: int, lam2: int) -> RationalPolytope:
    """Closure of the constrained weight set, by the representation route.

    Evaluates the expanded invariant vectors of the first bundle power at the
    base point, hulls the achieved weights lam1 + lam2 - 2k, and cuts them by
    the negated eigenspace of gamma.  With integer weights the higher powers
    add no vertex, so they are not evaluated.  The weight falls as k grows,
    so k is scanned from both ends: upward to the first vector that does not
    vanish, then downward to the last, stopping short of the first; the k in
    between are never evaluated.  A dense point costs two vectors; the other
    classes achieve at most one k and cost every vector.
    """
    check_weights(lam1, lam2)
    return case.gamma.negated_cut(_achieved_hull(case.x.coords, lam1, lam2))


class RouteDisagreementError(AssertionError):
    """The two routes to a real-form polytope gave different answers.

    Carries both polytopes and the inputs: the point, the weights and the
    involution.
    """

    def __init__(self, case: RealFormCase, lam1: int, lam2: int,
                 via_intersection: RationalPolytope, via_representation: RationalPolytope):
        super().__init__(f"route disagreement at {case.x}, weights ({lam1},{lam2}): "
                         f"{via_intersection} vs {via_representation}")
        self.point = case.x
        self.gamma = case.gamma
        self.lam1 = lam1
        self.lam2 = lam2
        self.via_intersection = via_intersection
        self.via_representation = via_representation

    @property
    def orbit_class(self) -> OrbitClass:
        return classify_borel_orbit_closure(self.point)


def real_moment_polytope(case: RealFormCase, lam1: int, lam2: int) -> RationalPolytope:
    """Polytope of the real form, by the intersection route.

    Cuts the exact orbit polytope with the negated eigenspace of gamma and
    checks agreement with the representation route before returning; on
    disagreement it raises :class:`RouteDisagreementError` with both answers.
    """
    check_weights(lam1, lam2)
    via_intersection = case.gamma.negated_cut(moment_polytope(case.x, lam1, lam2))
    via_representation = gamma_highest_weight_polytope(case, lam1, lam2)
    if via_intersection != via_representation:
        raise RouteDisagreementError(case, lam1, lam2, via_intersection, via_representation)
    return via_intersection


def orbit_representatives() -> dict[OrbitClass, FlagPoint]:
    """One real representative per orbit-closure class."""
    return {
        OrbitClass.DENSE: FlagPoint.real(0, 1, 1, 1),
        OrbitClass.DIAGONAL: FlagPoint.real(1, 1, 1, 1),
        OrbitClass.FIRST_FACTOR: FlagPoint.real(0, 1, 1, 0),
        OrbitClass.SECOND_FACTOR: FlagPoint.real(1, 0, 0, 1),
        OrbitClass.POINT: FlagPoint.real(1, 0, 1, 0),
    }


def enumerate_polytope_catalog(lam1: int, lam2: int,
                               gamma: InvolutionSpec) -> list[RationalPolytope]:
    """Distinct real-form polytopes over the five orbit classes (at most 5),
    sorted by vertex count, then vertices.

    Each call compares the two routes at every class and returns a new list.
    """
    check_weights(lam1, lam2)
    seen: list[RationalPolytope] = []
    for rep in orbit_representatives().values():
        poly = real_moment_polytope(RealFormCase(rep, gamma), lam1, lam2)
        if poly not in seen:
            seen.append(poly)
    return sorted(seen, key=lambda p: (len(p.vertices), p.vertices))
