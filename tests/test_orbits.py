import itertools
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import borel_act, q_add, q_div, q_mul, q_sub, reference_value, vanishes_at
from mplab import orbits, reps, wire
from mplab.checks import check_two_routes, load_golden_cases
from mplab.exactlin import GaussianRational
from mplab.orbits import (
    FlagPoint,
    Membership,
    OrbitClass,
    RealFormCase,
    classify_borel_orbit_closure,
    enumerate_polytope_catalog,
    gamma_highest_weight_polytope,
    membership_in_C,
    moment_polytope,
    orbit_predicates,
    orbit_representatives,
    RouteDisagreementError,
    real_moment_polytope,
)
from mplab.polytope import (
    RationalPolytope,
    contains,
    hull,
)
from mplab.reps import BiHomogPoly, SectionSpaceSpec, highest_weight_vector
from mplab.weights import identity_involution, negation_involution

F = Fraction
REPS = orbit_representatives()
NEG = negation_involution()


def seg(lo, hi):
    return hull([lo, hi])


class TestFlagPoint:
    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            FlagPoint.real(0, 0, 1, 1)

    def test_projective_equality(self):
        a = FlagPoint.real(1, 2, 1, 1)
        b = FlagPoint.real(2, 4, 3, 3)
        assert a == b
        assert a != FlagPoint.real(1, 2, 1, 2)

    def test_projective_equality_over_q_i(self):
        zero = GaussianRational.of(0)
        s, u = GaussianRational.of(F(2, 3), -1), GaussianRational.of(0, F(5, 7))
        a1, c1 = GaussianRational.of(1, F(1, 2)), GaussianRational.of(-3, 2)
        a2 = GaussianRational.of(F(4, 9))
        x = FlagPoint(a1, c1, a2, zero)
        assert x == FlagPoint(q_mul(s, a1), q_mul(s, c1), q_mul(u, a2), zero)
        assert x == FlagPoint(a1, c1, GaussianRational.of(0, -1), zero)
        # a non-real scale on one coordinate alone moves the point
        assert x != FlagPoint(q_mul(s, a1), c1, a2, zero)
        assert x != FlagPoint(a1, q_mul(s, c1), a2, zero)
        assert x != FlagPoint(a1, c1, zero, u)
        assert FlagPoint(zero, c1, a2, u) == FlagPoint(zero, s, q_mul(u, a2), q_mul(u, u))
        assert FlagPoint(zero, c1, a2, u) != FlagPoint(s, zero, q_mul(u, a2), q_mul(u, u))

    def test_is_real(self):
        assert REPS[OrbitClass.DENSE].is_real
        i = GaussianRational.of(0, 1)
        one = GaussianRational.of(1)
        assert not FlagPoint(i, one, one, one).is_real

    def test_float_coordinates_refused(self):
        with pytest.raises(TypeError):
            FlagPoint.real(0.5, 1, 1, 1)


class TestClassification:
    def test_representatives(self):
        for cls, pt in REPS.items():
            assert classify_borel_orbit_closure(pt) is cls

    def test_representative_coordinates(self):
        # projective equality would accept any rescaling, but the float lab
        # samples from these exact coordinates
        want = {OrbitClass.DENSE: (0, 1, 1, 1), OrbitClass.DIAGONAL: (1, 1, 1, 1),
                OrbitClass.FIRST_FACTOR: (0, 1, 1, 0), OrbitClass.SECOND_FACTOR: (1, 0, 0, 1),
                OrbitClass.POINT: (1, 0, 1, 0)}
        assert [(cls, x.coords) for cls, x in orbit_representatives().items()] == [
            (cls, tuple(GaussianRational(F(v), F(0)) for v in coords))
            for cls, coords in want.items()]

    def test_spec_examples(self):
        assert classify_borel_orbit_closure(FlagPoint.real(0, 1, 1, 1)) is OrbitClass.DENSE
        assert classify_borel_orbit_closure(FlagPoint.real(1, 1, 1, 1)) is OrbitClass.DIAGONAL
        assert classify_borel_orbit_closure(FlagPoint.real(1, 0, 1, 0)) is OrbitClass.POINT

    def test_complex_point(self):
        i = GaussianRational.of(0, 1)
        one = GaussianRational.of(1)
        x = FlagPoint(i, one, one, one)  # distinct points, both off the fixed point
        assert classify_borel_orbit_closure(x) is OrbitClass.DENSE

    def test_borel_action_preserves_class(self):
        # brute-force consistency: the predicates are invariants of the sampled action
        elements = [(GaussianRational.of(a, ai), GaussianRational.of(b, bi))
                    for a, ai, b, bi in itertools.product((1, 2, F(-1, 3)), (0, 1),
                                                          (0, F(5, 2)), (0, -2))
                    ]
        for cls, x in REPS.items():
            for g in elements:
                assert classify_borel_orbit_closure(borel_act(g, x)) is cls

    def test_dense_orbit_spreads(self):
        # sampled points on the dense orbit are in general position, unlike the
        # lower-dimensional classes whose defining predicate stays pinned
        x = REPS[OrbitClass.DENSE]
        images = [borel_act((GaussianRational.of(a), GaussianRational.of(b)), x)
                  for a in (1, 2, 3) for b in (0, 1)]
        distinct = []
        for img in images:
            if not any(img == seen for seen in distinct):
                distinct.append(img)
        assert len(distinct) >= 5
        assert all(not orbit_predicates(img)[2] for img in images)

    def test_diagonal_orbit_stays_diagonal(self):
        x = REPS[OrbitClass.DIAGONAL]
        for a, b in ((2, 5), (F(1, 2), -1), (3, F(7, 3))):
            g = (GaussianRational.of(a), GaussianRational.of(b))
            assert orbit_predicates(borel_act(g, x))[2]


def full_search(predicates, lam1, lam2, lam):
    """Membership by its definition: the least multiple r of den(lam), up to
    2 den(lam) (lam1 + lam2), whose invariant vector of weight r*lam is
    nonzero on the orbit closure.  With k = r(lam1 + lam2 - lam)/2 that vector
    is c1^(r*lam1-k) c2^(r*lam2-k) (a1 c2 - a2 c1)^k times a nonzero factor,
    so it is nonzero exactly when every vanishing factor has exponent 0."""
    z1, z2, d = predicates
    q = lam.denominator
    if lam < 0:  # r*lam is not a dominant weight
        return Membership(False, None)
    for r in range(q, 2 * q * (lam1 + lam2) + 1, q):
        num = r * (lam1 + lam2) - int(lam * r)
        if num % 2 != 0:
            continue
        k = num // 2
        if not 0 <= k <= min(r * lam1, r * lam2):
            continue
        if (k == r * lam1 or not z1) and (k == r * lam2 or not z2) and (k == 0 or not d):
            return Membership(True, r)
    return Membership(False, None)


class TestMembership:
    def test_dense_integer_weight(self):
        assert membership_in_C(REPS[OrbitClass.DENSE], 2, 1, 1) == Membership(True, 1)

    def test_diagonal_blocks_lower_weights(self):
        assert membership_in_C(REPS[OrbitClass.DIAGONAL], 2, 1, 1).member is False

    def test_dense_halfinteger_outside_lattice_pattern(self):
        assert membership_in_C(REPS[OrbitClass.DENSE], 2, 1, F(1, 2)).member is False

    def test_negative_weight_never_dominant(self):
        assert membership_in_C(REPS[OrbitClass.DENSE], 2, 1, -1).member is False

    def test_rational_weight_witness(self):
        # r = 2 fails the parity constraint (k would be 3/2), r = 4 works
        got = membership_in_C(REPS[OrbitClass.DENSE], 2, 1, F(3, 2))
        assert got.member and got.witness == 4

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            membership_in_C(REPS[OrbitClass.DENSE], 0, 1, 1)

    def test_witness_equals_the_full_search(self):
        for x in REPS.values():
            predicates = orbit_predicates(x)
            for l1 in range(1, 5):
                for l2 in range(1, 5):
                    for q in (1, 2, 3, 4, 6):
                        top = (l1 + l2 + 1) * q
                        for p in range(-q, top + 1):
                            lam = F(p, q)
                            assert (membership_in_C(x, l1, l2, lam)
                                    == full_search(predicates, l1, l2, lam))

    @pytest.mark.parametrize("cls", list(OrbitClass))
    @given(data=st.data(), lam1=st.integers(1, 4), lam2=st.integers(1, 4), q=st.integers(1, 4))
    @settings(deadline=None, max_examples=20)
    def test_witness_equals_the_full_search_over_gaussian_points(self, cls, data, lam1, lam2, q):
        x = data.draw(gaussian_points(cls))
        predicates = orbit_predicates(x)
        for p in range(-q, (lam1 + lam2 + 1) * q + 1):
            lam = F(p, q)
            assert membership_in_C(x, lam1, lam2, lam) == full_search(predicates, lam1, lam2, lam)

    def test_membership_iff_polytope_membership(self):
        # rational grid with denominators up to 4 around each polytope
        for l1, l2 in ((1, 1), (2, 1), (3, 2)):
            for cls, x in REPS.items():
                poly = moment_polytope(x, l1, l2)
                for q in (1, 2, 3, 4):
                    top = (l1 + l2 + 1) * q
                    for p in range(-top, top + 1):
                        lam = F(p, q)
                        member = membership_in_C(x, l1, l2, lam).member
                        assert member == contains(poly, lam), (cls, l1, l2, lam)


class TestMomentPolytope:
    def test_worked_values(self):
        assert moment_polytope(REPS[OrbitClass.DENSE], 2, 1) == seg(1, 3)
        assert moment_polytope(REPS[OrbitClass.DIAGONAL], 2, 1) == hull([3])
        assert moment_polytope(REPS[OrbitClass.POINT], 2, 1).is_empty

    def test_factor_cases_depend_on_weight_order(self):
        first = REPS[OrbitClass.FIRST_FACTOR]
        second = REPS[OrbitClass.SECOND_FACTOR]
        assert moment_polytope(first, 3, 1) == hull([2])
        assert moment_polytope(second, 3, 1).is_empty
        assert moment_polytope(first, 1, 3).is_empty
        assert moment_polytope(second, 1, 3) == hull([2])
        assert moment_polytope(first, 2, 2) == hull([0])
        assert moment_polytope(second, 2, 2) == hull([0])

    def test_hull_of_achieved_weights_r1(self):
        for l1, l2 in ((1, 1), (2, 1), (4, 3), (2, 4)):
            for cls, x in REPS.items():
                achieved = []
                for k in range(min(l1, l2) + 1):
                    lam = l1 + l2 - 2 * k
                    got = membership_in_C(x, l1, l2, lam)
                    if got.witness == 1:
                        achieved.append(lam)
                assert hull(achieved) == moment_polytope(x, l1, l2), (cls, l1, l2)

    def test_monotonicity_in_dense_polytope(self):
        for l1, l2 in ((1, 1), (2, 1), (3, 4)):
            dense = moment_polytope(REPS[OrbitClass.DENSE], l1, l2)
            for x in REPS.values():
                assert all(contains(dense, v) for v in moment_polytope(x, l1, l2).vertices)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            moment_polytope(REPS[OrbitClass.DENSE], 1, 0)


class TestRealFormCase:
    def test_requires_real_point(self):
        i = GaussianRational.of(0, 1)
        one = GaussianRational.of(1)
        with pytest.raises(ValueError):
            RealFormCase(FlagPoint(i, one, one, one), NEG)

    def test_requires_rank_one(self):
        # a rank-2 involution is refused before a case can be built
        with pytest.raises(ValueError):
            RealFormCase(REPS[OrbitClass.DENSE], wire.parse_gamma("[[-1, 0], [0, -1]]"))


class TestTwoRoutes:
    def test_dense_negation(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], NEG)
        assert gamma_highest_weight_polytope(case, 2, 1) == seg(1, 3)
        assert real_moment_polytope(case, 2, 1) == seg(1, 3)

    def test_diagonal_negation(self):
        case = RealFormCase(REPS[OrbitClass.DIAGONAL], NEG)
        assert gamma_highest_weight_polytope(case, 2, 1) == hull([3])

    def test_zero_cut_is_empty_off_zero(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], identity_involution())
        assert gamma_highest_weight_polytope(case, 2, 1).is_empty

    def test_zero_cut_keeps_zero(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], identity_involution())
        assert real_moment_polytope(case, 1, 1) == hull([0])

    def test_factor_cases(self):
        first = RealFormCase(REPS[OrbitClass.FIRST_FACTOR], NEG)
        second = RealFormCase(REPS[OrbitClass.SECOND_FACTOR], NEG)
        assert real_moment_polytope(first, 3, 1) == hull([2])
        assert real_moment_polytope(second, 3, 1).is_empty

    def test_route_agreement_over_grid(self):
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                for gamma in (NEG, identity_involution()):
                    for x in REPS.values():
                        case = RealFormCase(x, gamma)
                        real_moment_polytope(case, l1, l2)  # raises on disagreement


def closed_form_catalog(lam1, lam2, gamma):
    """The catalog written out from the vertices of the five classes."""
    classes = [(abs(lam1 - lam2), lam1 + lam2), (lam1 + lam2,),
               (lam1 - lam2,) if lam1 >= lam2 else (), (lam2 - lam1,) if lam2 >= lam1 else (), ()]
    if gamma.sign == 1:  # the identity negates the origin only
        classes = [(0,) if v and v[0] <= 0 <= v[-1] else () for v in classes]
    return [hull(list(v)) for v in sorted(set(classes), key=lambda v: (len(v), v))]


class TestCatalog:
    def test_worked_catalog(self):
        cat = enumerate_polytope_catalog(2, 1, NEG)
        expected = [RationalPolytope.empty(), hull([1]), hull([3]), seg(1, 3)]
        assert len(cat) == 4
        assert cat == expected

    def test_equal_weights(self):
        cat = enumerate_polytope_catalog(1, 1, NEG)
        expected = [RationalPolytope.empty(), hull([0]), hull([2]), seg(0, 2)]
        assert len(cat) == 4
        assert cat == expected

    def test_identity_involution_collapses(self):
        cat = enumerate_polytope_catalog(1, 1, identity_involution())
        expected = [RationalPolytope.empty(), hull([0])]
        assert len(cat) == 2
        assert cat == expected

    def test_finiteness_bound(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                assert len(enumerate_polytope_catalog(l1, l2, NEG)) <= 5

    def test_each_call_returns_a_new_list(self):
        cat = enumerate_polytope_catalog(2, 1, NEG)
        want = list(cat)
        cat.append(hull([7]))
        cat.reverse()
        again = enumerate_polytope_catalog(2, 1, NEG)
        assert again == want and again is not enumerate_polytope_catalog(2, 1, NEG)

    @pytest.mark.parametrize("lam1,lam2", [(0, 1), (1, 0), (-2, 3)])
    def test_weights_below_one_are_refused(self, lam1, lam2):
        with pytest.raises(ValueError, match="weights must be integers >= 1"):
            enumerate_polytope_catalog(lam1, lam2, NEG)

    def test_float_weight_is_not_served_from_an_int_key(self):
        enumerate_polytope_catalog(2, 1, NEG)
        with pytest.raises(TypeError):
            enumerate_polytope_catalog(2.0, 1, NEG)

    def test_equals_closed_form(self):
        for l1, l2 in itertools.product(range(1, 9), repeat=2):
            for gamma in (NEG, identity_involution()):
                got = enumerate_polytope_catalog(l1, l2, gamma)
                assert got == closed_form_catalog(l1, l2, gamma), (l1, l2, gamma)


X = REPS[OrbitClass.DENSE]
WEIGHT_TAKERS = {
    "moment_polytope": lambda l1, l2: moment_polytope(X, l1, l2),
    "membership_in_C": lambda l1, l2: membership_in_C(X, l1, l2, 1),
    "real_moment_polytope": lambda l1, l2: real_moment_polytope(RealFormCase(X, NEG), l1, l2),
    "gamma_highest_weight_polytope":
        lambda l1, l2: gamma_highest_weight_polytope(RealFormCase(X, NEG), l1, l2),
    "enumerate_polytope_catalog": lambda l1, l2: enumerate_polytope_catalog(l1, l2, NEG),
    "SectionSpaceSpec": lambda l1, l2: SectionSpaceSpec(1, l1, l2),
    "check_weights": reps.check_weights,
}


@pytest.mark.parametrize("take", WEIGHT_TAKERS.values(), ids=WEIGHT_TAKERS)
@pytest.mark.parametrize("weight", [1.5, 2.0, F(3, 2)], ids=repr)
def test_non_int_weight_is_refused(take, weight):
    for l1, l2 in ((weight, 1), (1, weight)):
        with pytest.raises(TypeError, match=re.escape(repr(weight))):
            take(l1, l2)


@pytest.mark.parametrize("take", WEIGHT_TAKERS.values(), ids=WEIGHT_TAKERS)
@pytest.mark.parametrize("l1, l2", [(0, 1), (1, -2)])
def test_weight_below_one_is_refused_in_one_wording(take, l1, l2):
    with pytest.raises(ValueError, match="^both weights must be integers >= 1$"):
        take(l1, l2)


def test_non_int_bundle_power_is_refused():
    with pytest.raises(TypeError, match="^r=2.0 must be an int$"):
        SectionSpaceSpec(2.0, 1, 1)


def test_bundle_power_below_one_is_refused_before_the_weights():
    with pytest.raises(ValueError, match="^r=0 must be >= 1$"):
        SectionSpaceSpec(0, 0, 1.5)


def reference_representation_route(case, lam1, lam2, r_max=2):
    """The representation route evaluated at every k of every bundle power
    r <= ``r_max``, summed in Q(i) without ``BiHomogPoly.integer_sum``."""
    achieved = []
    for r in range(1, r_max + 1):
        spec = SectionSpaceSpec(r, lam1, lam2)
        for k in range(spec.k_max + 1):
            if not reference_value(highest_weight_vector(spec, k), case.x.coords).is_zero:
                achieved.append(F(r * (lam1 + lam2) - 2 * k, r))
    closure = hull(achieved)
    if case.gamma.sign == -1:  # the -1 eigenspace is the whole axis
        return closure
    return hull([0]) if contains(closure, 0) else RationalPolytope.empty()


rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
nonzero_rationals = st.builds(F, st.integers(1, 50) | st.integers(-50, -1), st.integers(1, 20))
nonzero_numbers = {"Q": st.builds(GaussianRational, nonzero_rationals),
                   "Q(i)": st.builds(GaussianRational, nonzero_rationals, rationals)
                   | st.builds(GaussianRational, rationals, nonzero_rationals)}
weights = st.integers(1, 12)
gammas = st.sampled_from([NEG, identity_involution()])


@st.composite
def real_points(draw):
    """Real flag points of every orbit class, most of them dense, and the
    zero coordinates that make terms vanish."""
    a1, a2 = draw(rationals), draw(rationals)
    c1, c2 = draw(nonzero_rationals), draw(nonzero_rationals)
    shape = draw(st.sampled_from(["free", "free", "diagonal", "first", "second", "point",
                                  "a1 = 0", "a2 = 0", "a1 = a2 = 0"]))
    if shape in ("a1 = 0", "a1 = a2 = 0"):
        a1 = F(0)
    if shape in ("a2 = 0", "a1 = a2 = 0"):
        a2 = F(0)
    if shape == "diagonal":
        a2, c2 = a1 * c2 / c1, c2
    if shape in ("first", "point"):
        a2, c2 = draw(nonzero_rationals), F(0)
    if shape in ("second", "point"):
        a1, c1 = draw(nonzero_rationals), F(0)
    return FlagPoint.real(a1, c1, a2, c2)


class TestRepresentationRoute:
    @given(real_points(), weights, weights, gammas)
    @settings(deadline=None, max_examples=60)
    def test_first_power_equals_reference_over_two_powers(self, x, lam1, lam2, gamma):
        case = RealFormCase(x, gamma)
        want = reference_representation_route(case, lam1, lam2, r_max=2)
        assert gamma_highest_weight_polytope(case, lam1, lam2) == want

    def test_each_involution_cuts_the_same_hull(self):
        x = REPS[OrbitClass.DENSE]
        assert gamma_highest_weight_polytope(RealFormCase(x, NEG), 2, 1) == seg(1, 3)
        cut = gamma_highest_weight_polytope(RealFormCase(x, identity_involution()), 2, 1)
        assert cut.is_empty

    @given(real_points(), nonzero_rationals, nonzero_rationals, weights, weights, gammas)
    @settings(deadline=None, max_examples=60)
    def test_rescaling_either_pair_changes_nothing(self, x, t1, t2, lam1, lam2, gamma):
        a1, c1, a2, c2 = (g.re for g in x.coords)
        for y in (FlagPoint.real(t1 * a1, t1 * c1, a2, c2),
                  FlagPoint.real(a1, c1, t2 * a2, t2 * c2)):
            assert y == x
            assert classify_borel_orbit_closure(y) is classify_borel_orbit_closure(x)
            case, scaled = RealFormCase(x, gamma), RealFormCase(y, gamma)
            assert (gamma_highest_weight_polytope(scaled, lam1, lam2)
                    == gamma_highest_weight_polytope(case, lam1, lam2))
            assert (real_moment_polytope(scaled, lam1, lam2)
                    == real_moment_polytope(case, lam1, lam2))

    @given(real_points(), nonzero_numbers["Q(i)"], nonzero_numbers["Q(i)"], weights, weights)
    @settings(deadline=None, max_examples=60)
    def test_gaussian_rescaling_of_either_pair_changes_nothing(self, x, t1, t2, lam1, lam2):
        # a Q(i) factor makes the point complex, so the representation route
        # is checked through its hull, which a real form only cuts
        a1, c1, a2, c2 = x.coords
        want = moment_polytope(x, lam1, lam2)
        for y in (FlagPoint(q_mul(t1, a1), q_mul(t1, c1), a2, c2),
                  FlagPoint(a1, c1, q_mul(t2, a2), q_mul(t2, c2))):
            assert y == x
            assert classify_borel_orbit_closure(y) is classify_borel_orbit_closure(x)
            assert moment_polytope(y, lam1, lam2) == want
            assert orbits._achieved_hull(y.coords, lam1, lam2) == want


@pytest.fixture
def evaluations(monkeypatch):
    """Count ``BiHomogPoly.table_sum`` calls per bidegree: the sum that
    every evaluation of an invariant vector makes."""
    calls = {}
    genuine = BiHomogPoly.table_sum

    def counting(self, tables):
        calls[self.bidegree] = calls.get(self.bidegree, 0) + 1
        return genuine(self, tables)

    monkeypatch.setattr(BiHomogPoly, "table_sum", counting)
    return calls


class TestRepresentationWork:
    """How many invariant vectors the representation route evaluates: a
    count of calls, not a timing.  Only the first bundle power is read."""

    @pytest.mark.parametrize("x", [FlagPoint.real(F(2, 3), 1, -1, F(5, 7)),
                                   REPS[OrbitClass.DENSE]])
    def test_dense_point_evaluates_two_vectors(self, evaluations, x):
        case = RealFormCase(x, NEG)
        assert gamma_highest_weight_polytope(case, 8, 8) == seg(0, 16)
        assert evaluations == {(8, 8): 2}

    def test_point_class_evaluates_every_vector(self, evaluations):
        case = RealFormCase(REPS[OrbitClass.POINT], NEG)
        assert gamma_highest_weight_polytope(case, 8, 8).is_empty
        assert evaluations == {(8, 8): 9}

    def test_no_vector_is_evaluated_twice(self, evaluations):
        for x in REPS.values():
            evaluations.clear()
            gamma_highest_weight_polytope(RealFormCase(x, NEG), 3, 5)
            assert evaluations[(3, 5)] <= 4

    @pytest.mark.parametrize("cls, want", [(OrbitClass.DENSE, seg(2, 8)),
                                           (OrbitClass.POINT, RationalPolytope.empty())])
    def test_tables_are_built_once_per_call(self, monkeypatch, cls, want):
        # the dense point tests two vectors and the fixed point all four,
        # each summed over the one set of tables
        built = []
        genuine = orbits.power_tables

        def counting(parts, d1, d2):
            built.append((d1, d2))
            return genuine(parts, d1, d2)

        monkeypatch.setattr(orbits, "power_tables", counting)
        assert orbits._achieved_hull(REPS[cls].coords, 3, 5) == want
        assert built == [(3, 5)]

    def test_evaluation_multiplies_no_gaussian_rational(self):
        # GaussianRational has no product, so one made here would raise
        # TypeError; the expected cuts come from the intersection route,
        # which makes none either (TestIntersectionWork)
        cases = [RealFormCase(x, gamma) for x in REPS.values()
                 for gamma in (NEG, identity_involution())]
        want = [case.gamma.negated_cut(moment_polytope(case.x, 3, 5)) for case in cases]
        assert [gamma_highest_weight_polytope(case, 3, 5) for case in cases] == want

    def test_downward_scan_steps_one_k_at_a_time(self, monkeypatch):
        # with the k = k_max vector zero, a dense point's hull ends at k_max - 1
        genuine = orbits.highest_weight_vector

        def top_vanishes(spec, k):
            return BiHomogPoly(spec.bidegree, ()) if k == spec.k_max else genuine(spec, k)

        monkeypatch.setattr(orbits, "highest_weight_vector", top_vanishes)
        assert orbits._achieved_hull(FlagPoint.real(0, 1, 1, 1).coords, 3, 5) == seg(4, 8)


numbers = {"Q": st.builds(GaussianRational, rationals),
           "Q(i)": st.builds(GaussianRational, rationals, rationals)}


@st.composite
def borel_moves(draw, field):
    """A real flag point and an upper-triangular element over ``field``.

    The element's corner entry is drawn or chosen to send a1 or a2 to 0, so
    the moves make zero coordinates as well as remove them.
    """
    x = draw(real_points())
    alpha = draw(nonzero_numbers[field])
    target = draw(st.sampled_from(["drawn", "a1", "a2"]))
    if target == "a1" and not x.c1.is_zero:  # x is real, so -a1/c1 is rational
        beta = q_mul(alpha, GaussianRational(-x.a1.re / x.c1.re))
    elif target == "a2" and not x.c2.is_zero:
        beta = q_mul(alpha, GaussianRational(-x.a2.re / x.c2.re))
    else:
        beta = draw(numbers[field])
    return x, (alpha, beta)


class TestBorelAction:
    """The reference action ``borel_act`` that the invariance properties use."""

    def test_apply(self):
        two, one = GaussianRational.of(2), GaussianRational.of(1)
        moved = borel_act((two, one), FlagPoint(one, one, one, one)).coords
        assert moved == (GaussianRational.of(3), GaussianRational.of(F(1, 2))) * 2

    def test_apply_over_gaussian_rationals(self):
        # (alpha x + beta y, y / alpha): the matrix [[alpha, beta], [0, 1/alpha]]
        alpha, beta = GaussianRational.of(1, 2), GaussianRational.of(F(-1, 3), 1)
        x, y = GaussianRational.of(F(5, 2), -1), GaussianRational.of(3, 4)
        moved = borel_act((alpha, beta), FlagPoint(x, y, y, x)).coords
        inverse = q_div(GaussianRational.of(1), alpha)
        assert moved[:2] == (q_add(q_mul(alpha, x), q_mul(beta, y)), q_mul(y, inverse))
        assert q_mul(moved[1], alpha) == y

    def test_zero_alpha_refused(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            borel_act((GaussianRational.of(0), GaussianRational.of(1)), REPS[OrbitClass.DENSE])


class TestBorelInvariance:
    """The orbit closure, hence its class and polytopes, is the same from
    every point of the orbit."""

    @given(borel_moves("Q(i)"), weights, weights)
    @settings(deadline=None, max_examples=80)
    def test_gaussian_elements_keep_class_and_polytope(self, move, lam1, lam2):
        x, g = move
        y = borel_act(g, x)
        assert classify_borel_orbit_closure(y) is classify_borel_orbit_closure(x)
        want = moment_polytope(x, lam1, lam2)
        assert moment_polytope(y, lam1, lam2) == want
        # the representation route's hull, at the moved Q(i) coordinates
        assert orbits._achieved_hull(y.coords, lam1, lam2) == want

    @given(borel_moves("Q"), weights, weights, gammas)
    @settings(deadline=None, max_examples=80)
    def test_rational_elements_keep_both_real_routes(self, move, lam1, lam2, gamma):
        x, g = move
        case, moved = RealFormCase(x, gamma), RealFormCase(borel_act(g, x), gamma)
        assert (real_moment_polytope(moved, lam1, lam2)
                == real_moment_polytope(case, lam1, lam2))
        assert (gamma_highest_weight_polytope(moved, lam1, lam2)
                == gamma_highest_weight_polytope(case, lam1, lam2))


def q_i_predicates(x):
    """(z1, z2, d) from their definition, through products in Q(i)."""
    return x.c1.is_zero, x.c2.is_zero, q_sub(q_mul(x.a1, x.c2), q_mul(x.a2, x.c1)).is_zero


@st.composite
def predicate_points(draw):
    """Q(i) flag points whose parts are often zero, diagonal points whose
    second pair is t * (a1, c1) with a non-real t, and points one unit off
    such a diagonal in the real or the imaginary direction."""
    part = st.just(F(0)) | rationals
    number = st.builds(GaussianRational, part, part)
    one = GaussianRational(F(1))
    a1, c1 = draw(number), draw(number)
    if a1.is_zero and c1.is_zero:
        c1 = one
    kind = draw(st.sampled_from(["free", "diagonal", "off-diagonal"]))
    if kind == "free":
        a2, c2 = draw(number), draw(number)
        if a2.is_zero and c2.is_zero:
            a2 = one
    else:
        t = GaussianRational(draw(rationals), draw(nonzero_rationals))
        a2, c2 = q_mul(t, a1), q_mul(t, c1)
        if kind == "off-diagonal":
            step = draw(st.sampled_from([one, GaussianRational(F(0), F(1))]))
            a2, c2 = (q_add(a2, step), c2) if draw(st.booleans()) else (a2, q_add(c2, step))
    return FlagPoint(a1, c1, a2, c2)


class TestIntegerPredicates:
    """The predicates are decided over Gaussian integers; they equal their
    definition over Q(i)."""

    @given(predicate_points())
    @settings(deadline=None, max_examples=300)
    def test_predicates_equal_their_definition(self, x):
        assert orbit_predicates(x) == q_i_predicates(x)

    def test_parts_of_4200_digits(self):
        rng = random.Random(4200)

        def number():
            num, den = (rng.randrange(10 ** 4199, 10 ** 4200) for _ in range(2))
            return GaussianRational(F(rng.choice((-1, 1)) * num, den))

        a1, c1, a2, c2, t = (number() for _ in range(5))
        zero = GaussianRational(F(0))
        points = {OrbitClass.DENSE: FlagPoint(a1, c1, a2, c2),
                  OrbitClass.DIAGONAL: FlagPoint(a1, c1, q_mul(t, a1), q_mul(t, c1)),
                  OrbitClass.FIRST_FACTOR: FlagPoint(a1, c1, a2, zero)}
        for cls, x in points.items():
            assert orbit_predicates(x) == q_i_predicates(x)
            assert classify_borel_orbit_closure(x) is cls


@pytest.fixture
def clearings(monkeypatch):
    """Count the denominator clearings ``orbits`` makes, as a list of the
    lengths of the sequences it clears."""
    calls = []
    genuine = orbits._integral

    def counting(xs):
        calls.append(len(xs))
        return genuine(xs)

    monkeypatch.setattr(orbits, "_integral", counting)
    return calls


class TestPointPairs:
    """A point clears each pair's denominators once, at construction, and
    the intersection route reads the stored pairs; the representation route
    clears the coordinates itself."""

    def test_construction_clears_each_pair_once(self, clearings):
        x = FlagPoint.real(F(1, 2), F(-1, 3), 2, 0)
        assert clearings == [4, 4]
        assert x.pairs == ((3, 0, -2, 0), (2, 0, 0, 0))

    def test_a_zero_pair_is_refused_before_any_clearing(self, clearings):
        for coords in ((0, 0, 1, 1), (1, 1, 0, 0)):
            with pytest.raises(ValueError, match="coordinate pair is \\(0, 0\\)$"):
                FlagPoint.real(*coords)
        assert clearings == []

    def test_intersection_route_clears_nothing(self, clearings):
        points = [FlagPoint.real(F(2, 3), 1, -1, F(5, 7)), *REPS.values()]
        twins = [FlagPoint(*x.coords) for x in points]
        clearings.clear()
        for i, (x, twin) in enumerate(zip(points, twins)):
            assert x == twin and x != points[i - 1]
            orbit_predicates(x)
            moment_polytope(x, 3, 5)
            for lam in (F(1, 2), 2, 8):
                membership_in_C(x, 3, 5, lam)
        assert clearings == []

    def test_representation_route_clears_the_coordinates_once(self, clearings):
        x = REPS[OrbitClass.POINT]  # every invariant vector is evaluated
        gamma_highest_weight_polytope(RealFormCase(x, NEG), 3, 5)
        assert clearings == [8]

    def test_representation_route_reads_no_stored_pair(self):
        x = FlagPoint.real(F(2, 3), 1, -1, F(5, 7))
        false_pairs = FlagPoint(*x.coords)
        false_pairs.__dict__["pairs"] = REPS[OrbitClass.POINT].pairs  # claims the fixed point
        assert moment_polytope(false_pairs, 3, 5).is_empty  # the intersection route reads it
        for gamma in (NEG, identity_involution()):
            assert (gamma_highest_weight_polytope(RealFormCase(false_pairs, gamma), 3, 5)
                    == gamma_highest_weight_polytope(RealFormCase(x, gamma), 3, 5))


class TestRouteDisagreement:
    def test_error_carries_both_routes(self, disagreeing_routes):
        case = RealFormCase(REPS[OrbitClass.DENSE], NEG)
        with pytest.raises(RouteDisagreementError) as info:
            real_moment_polytope(case, 2, 1)
        err = info.value
        assert isinstance(err, AssertionError)
        assert err.via_intersection == seg(1, 3)
        assert err.via_representation == hull([1])  # k = 1 alone survives at r = 1
        assert err.point == case.x and err.gamma is NEG
        assert (err.lam1, err.lam2) == (2, 1)
        assert err.orbit_class is OrbitClass.DENSE
        assert str(err) == "route disagreement at ((0:1), (1:1)), weights (2,1): [1, 3] vs {1}"

    def test_catalog_raises_on_a_broken_route(self, disagreeing_routes):
        with pytest.raises(RouteDisagreementError):
            enumerate_polytope_catalog(2, 1, NEG)

    def test_check_two_routes_counts_a_mismatch(self, disagreeing_routes):
        result = check_two_routes()
        assert not result.passed
        assert result.detail.startswith("80 cases x 2 routes, mismatches: [")
        assert "'dense@(2,1)'" in result.detail


class RouteLeak(AssertionError):
    """One route called a function that only the other route may use."""


def forbid(monkeypatch, owner, names):
    """Make each named attribute of ``owner`` raise :class:`RouteLeak` when called."""
    for name in names:
        def leak(*args, _name=name, **kwargs):
            raise RouteLeak(f"{_name} was called")
        monkeypatch.setattr(owner, name, leak)


# the genuine hull, kept so a test can swap in a leaky stand-in
ACHIEVED_HULL = orbits._achieved_hull
GOLDEN = [(wire.parse_point_literal(c["point"]), c["lam1"], c["lam2"],
           wire.polytope_from_json(c["delta_y"])) for c in load_golden_cases()]


class TestRouteIndependence:
    """The representation route never reads the orbit class, and the
    intersection route never evaluates an invariant vector."""

    INTERSECTION_ONLY = ("orbit_predicates", "classify_borel_orbit_closure",
                         "moment_polytope", "membership_in_C")

    @staticmethod
    def unpatched_identity_cuts():
        return [gamma_highest_weight_polytope(RealFormCase(x, identity_involution()), l1, l2)
                for x, l1, l2, _ in GOLDEN]

    def representation_gate(self, monkeypatch):
        """Both involutions over the 80 golden cases, the intersection
        route's functions forbidden."""
        unpatched = self.unpatched_identity_cuts()
        forbid(monkeypatch, orbits, self.INTERSECTION_ONLY)
        for (x, l1, l2, delta_y), want in zip(GOLDEN, unpatched):
            assert gamma_highest_weight_polytope(RealFormCase(x, NEG), l1, l2) == delta_y
            got = gamma_highest_weight_polytope(RealFormCase(x, identity_involution()), l1, l2)
            assert got == want

    def test_representation_route_reads_no_orbit_class(self, monkeypatch):
        assert len(GOLDEN) == 80
        self.representation_gate(monkeypatch)

    def test_gate_catches_a_route_that_classifies(self, monkeypatch):
        def leaky(coords, lam1, lam2):
            orbits.classify_borel_orbit_closure(FlagPoint(*coords))
            return ACHIEVED_HULL(coords, lam1, lam2)
        monkeypatch.setattr(orbits, "_achieved_hull", leaky)
        with pytest.raises(RouteLeak, match="classify_borel_orbit_closure was called"):
            self.representation_gate(monkeypatch)

    def test_intersection_route_evaluates_no_invariant_vector(self, monkeypatch):
        unpatched = self.unpatched_identity_cuts()
        forbid(monkeypatch, orbits, ("highest_weight_vector",))
        forbid(monkeypatch, reps, ("highest_weight_vector",))
        forbid(monkeypatch, BiHomogPoly, ("integer_sum", "table_sum"))
        for (x, l1, l2, delta_y), want in zip(GOLDEN, unpatched):
            polytope = moment_polytope(x, l1, l2)
            assert NEG.negated_cut(polytope) == delta_y
            assert identity_involution().negated_cut(polytope) == want


class TestIntersectionWork:
    """The intersection route makes no product in Q(i): GaussianRational has
    none, so one made here would raise TypeError."""

    def test_predicates_multiply_no_gaussian_rational(self):
        cases = [(wire.parse_point_literal(c["point"]), c["lam1"], c["lam2"],
                  OrbitClass(c["orbit_class"]), wire.polytope_from_json(c["delta_x"]))
                 for c in load_golden_cases()]
        assert len(cases) == 80
        for x, l1, l2, cls, delta_x in cases:
            assert classify_borel_orbit_closure(x) is cls
            assert moment_polytope(x, l1, l2) == delta_x
            for lam in (F(p, 2) for p in range(-2, 2 * (l1 + l2) + 3)):
                assert membership_in_C(x, l1, l2, lam).member == contains(delta_x, lam)


# -- a third route, from the definition of the polytope -----------------------

@lru_cache(maxsize=None)
def oracle_basis(spec, w):
    """The brute-force basis ``n_invariant_subspace(spec, w)``, solved once."""
    return tuple(reps.n_invariant_subspace(spec, w))


def oracle_hull(coords, lam1, lam2, r_max=2):
    """The hull of w / r over every weight w that has an N-invariant vector
    nonzero at ``coords`` in the r-th bundle power, r <= ``r_max``.

    The invariant vectors are the oracle's, the kernel of the raising
    operator at each weight of the decomposition; no orbit class and no
    closed form of an invariant vector is read.
    """
    achieved = []
    for r in range(1, r_max + 1):
        spec = SectionSpaceSpec(r, lam1, lam2)
        for w in reps.weight_decomposition(spec):
            if not all(vanishes_at(f, coords) for f in oracle_basis(spec, w)):
                achieved.append(F(w, r))
    return hull(achieved)


@st.composite
def gaussian_points(draw, cls):
    """A Q(i) flag point built in the orbit class ``cls``; its coordinates
    are real in about a third of the draws."""
    field = draw(st.sampled_from(["Q(i)", "Q(i)", "Q"]))
    a1, a2 = draw(numbers[field]), draw(numbers[field])
    c1, c2, t = (draw(nonzero_numbers[field]) for _ in range(3))
    zero = GaussianRational(F(0))
    # the dense point's a2 makes a1 c2 - a2 c1 = t
    coords = {OrbitClass.DENSE: (a1, c1, q_div(q_sub(q_mul(a1, c2), t), c1), c2),
              OrbitClass.DIAGONAL: (a1, c1, q_mul(t, a1), q_mul(t, c1)),
              OrbitClass.FIRST_FACTOR: (a1, c1, t, zero),
              OrbitClass.SECOND_FACTOR: (t, zero, a2, c2),
              OrbitClass.POINT: (t, zero, c2, zero)}[cls]
    return FlagPoint(*coords)


class TestThirdRoute:
    """Delta(X) from its definition: the closure of w / r over the invariant
    sections of weight w in the r-th power that are nonzero on X."""

    @pytest.mark.parametrize("cls", list(OrbitClass))
    @given(data=st.data(), lam1=st.integers(1, 8), lam2=st.integers(1, 8))
    @settings(deadline=None, max_examples=16)
    def test_oracle_hull_equals_both_routes(self, cls, data, lam1, lam2):
        x = data.draw(gaussian_points(cls))
        assert classify_borel_orbit_closure(x) is cls
        got = oracle_hull(x.coords, lam1, lam2)
        assert got == moment_polytope(x, lam1, lam2)
        if x.is_real:
            for gamma in (NEG, identity_involution()):
                assert gamma.negated_cut(got) == real_moment_polytope(
                    RealFormCase(x, gamma), lam1, lam2)

    @pytest.mark.parametrize("cls", list(OrbitClass))
    @given(data=st.data(), lam1=st.integers(1, 4), lam2=st.integers(1, 4))
    @settings(deadline=None, max_examples=10)
    def test_hull_is_saturated_at_the_first_power(self, cls, data, lam1, lam2):
        # the bundle powers 2 to 4 add no vertex to the hull of the first
        x = data.draw(gaussian_points(cls))
        first = oracle_hull(x.coords, lam1, lam2, r_max=1)
        assert oracle_hull(x.coords, lam1, lam2, r_max=4) == first
        assert first == moment_polytope(x, lam1, lam2)

    @pytest.mark.parametrize("cls", list(OrbitClass))
    @given(data=st.data(), lam1=st.integers(1, 4), lam2=st.integers(1, 4),
           den=st.integers(1, 3))
    @settings(deadline=None, max_examples=12)
    def test_membership_witness_is_a_certificate(self, cls, data, lam1, lam2, den):
        # lam is drawn around the polytope, or is one of its vertices
        x = data.draw(gaussian_points(cls))
        lam = data.draw(st.builds(F, st.integers(-den, den * (lam1 + lam2 + 1)), st.just(den))
                        | st.sampled_from(moment_polytope(x, lam1, lam2).vertices or (F(0),)))
        q = lam.denominator

        def certified(r):
            spec = SectionSpaceSpec(r, lam1, lam2)
            return not all(vanishes_at(f, x.coords) for f in oracle_basis(spec, int(r * lam)))

        member, witness = membership_in_C(x, lam1, lam2, lam)
        if member:
            assert certified(witness)
            assert witness == q or not certified(q)  # the least power
        else:
            assert not certified(q) and not certified(2 * q)

    FORBIDDEN = ("orbit_predicates", "classify_borel_orbit_closure", "moment_polytope",
                 "membership_in_C", "highest_weight_vector", "real_moment_polytope",
                 "gamma_highest_weight_polytope")

    def test_oracle_hull_reads_no_orbit_class_and_no_closed_form(self, monkeypatch):
        oracle_basis.cache_clear()
        forbid(monkeypatch, orbits, self.FORBIDDEN + ("_achieved_hull",))
        forbid(monkeypatch, reps, ("highest_weight_vector", "hw_vector_product_form"))
        forbid(monkeypatch, sys.modules[__name__], self.FORBIDDEN)
        try:
            for x, l1, l2, delta_y in GOLDEN:
                assert oracle_hull(x.coords, l1, l2) == delta_y
        finally:
            oracle_basis.cache_clear()


# -- the paper's invariances, through both routes ------------------------------

def stretched(p, m):
    """The polytope ``p`` times the factor m."""
    return RationalPolytope(tuple(m * v for v in p.vertices))


def swapped(x):
    """The point ``x`` with its two factors exchanged."""
    return FlagPoint(x.a2, x.c2, x.a1, x.c1)


def weights_near(data, delta, lam1, lam2):
    """Three weights drawn around ``delta``, or among its vertices."""
    den = data.draw(st.integers(1, 3))
    near = st.builds(F, st.integers(-den, den * (lam1 + lam2 + 1)), st.just(den))
    return [data.draw(near | st.sampled_from(delta.vertices or (F(0),))) for _ in range(3)]


class TestInvariances:
    """Delta(x, m*lam1, m*lam2) = m * Delta(x, lam1, lam2), since the
    polytope is the closure of lam / r over the bundle powers; and the group
    acts on both factors alike, so exchanging them with their weights
    changes no polytope.  The representation route at m*lam evaluates
    vectors of degree m(lam1 + lam2), and under the exchange the invariant
    vector of index k changes by the sign (-1)^k, so neither is trivial."""

    @given(cls=st.sampled_from(OrbitClass), data=st.data(), lam1=st.integers(1, 4),
           lam2=st.integers(1, 4), m=st.sampled_from([2, 3]))
    @settings(deadline=None, max_examples=25)
    def test_stretching_the_weights_stretches_the_polytope(self, cls, data, lam1, lam2, m):
        x = data.draw(gaussian_points(cls))
        delta = moment_polytope(x, lam1, lam2)
        assert moment_polytope(x, m * lam1, m * lam2) == stretched(delta, m)
        for lam in weights_near(data, delta, lam1, lam2):
            assert (membership_in_C(x, m * lam1, m * lam2, m * lam).member
                    == membership_in_C(x, lam1, lam2, lam).member)

    @given(cls=st.sampled_from(OrbitClass), data=st.data(), lam1=st.integers(1, 4),
           lam2=st.integers(1, 4), m=st.sampled_from([2, 3]))
    @settings(deadline=None, max_examples=25)
    def test_stretching_holds_on_the_representation_route(self, cls, data, lam1, lam2, m):
        x = data.draw(gaussian_points(cls))
        achieved = orbits._achieved_hull(x.coords, lam1, lam2)
        assert orbits._achieved_hull(x.coords, m * lam1, m * lam2) == stretched(achieved, m)
        if x.is_real:
            for gamma in (NEG, identity_involution()):
                case = RealFormCase(x, gamma)
                assert (gamma_highest_weight_polytope(case, m * lam1, m * lam2)
                        == stretched(gamma_highest_weight_polytope(case, lam1, lam2), m))

    @given(cls=st.sampled_from(OrbitClass), data=st.data(), lam1=st.integers(1, 4),
           lam2=st.integers(1, 4))
    @settings(deadline=None, max_examples=25)
    def test_exchanging_the_factors_changes_no_polytope(self, cls, data, lam1, lam2):
        x = data.draw(gaussian_points(cls))
        y = swapped(x)
        delta = moment_polytope(x, lam1, lam2)
        assert moment_polytope(y, lam2, lam1) == delta
        for lam in weights_near(data, delta, lam1, lam2):
            assert membership_in_C(y, lam2, lam1, lam) == membership_in_C(x, lam1, lam2, lam)

    @given(cls=st.sampled_from(OrbitClass), data=st.data(), lam1=st.integers(1, 4),
           lam2=st.integers(1, 4))
    @settings(deadline=None, max_examples=25)
    def test_exchanging_holds_on_the_representation_route(self, cls, data, lam1, lam2):
        x = data.draw(gaussian_points(cls))
        y = swapped(x)
        assert (orbits._achieved_hull(y.coords, lam2, lam1)
                == orbits._achieved_hull(x.coords, lam1, lam2))
        if x.is_real:
            for gamma in (NEG, identity_involution()):
                assert (gamma_highest_weight_polytope(RealFormCase(y, gamma), lam2, lam1)
                        == gamma_highest_weight_polytope(RealFormCase(x, gamma), lam1, lam2))
