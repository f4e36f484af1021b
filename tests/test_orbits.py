import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab import orbits, reps, wire
from mplab.checks import check_two_routes, load_golden_cases
from mplab.exactlin import GaussianRational
from mplab.orbits import (
    ACHIEVED_HULL_CACHE_SIZE,
    FlagPoint,
    Membership,
    OrbitClass,
    RealFormCase,
    borel_act,
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
    equals,
    hull,
)
from mplab.reps import BiHomogPoly, SectionSpaceSpec, highest_weight_vector
from mplab.weights import (
    ExactGroupElement2x2,
    identity_involution,
    negation_involution,
)

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
        elements = [ExactGroupElement2x2.upper(GaussianRational.of(a, ai),
                                               GaussianRational.of(b, bi))
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
        images = [borel_act(ExactGroupElement2x2.upper(GaussianRational.of(a),
                                                       GaussianRational.of(b)), x)
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
            g = ExactGroupElement2x2.upper(GaussianRational.of(a), GaussianRational.of(b))
            assert orbit_predicates(borel_act(g, x))[2]


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
        assert equals(moment_polytope(REPS[OrbitClass.DENSE], 2, 1), seg(1, 3))
        assert equals(moment_polytope(REPS[OrbitClass.DIAGONAL], 2, 1), hull([3]))
        assert moment_polytope(REPS[OrbitClass.POINT], 2, 1).is_empty

    def test_factor_cases_depend_on_weight_order(self):
        first = REPS[OrbitClass.FIRST_FACTOR]
        second = REPS[OrbitClass.SECOND_FACTOR]
        assert equals(moment_polytope(first, 3, 1), hull([2]))
        assert moment_polytope(second, 3, 1).is_empty
        assert moment_polytope(first, 1, 3).is_empty
        assert equals(moment_polytope(second, 1, 3), hull([2]))
        assert equals(moment_polytope(first, 2, 2), hull([0]))
        assert equals(moment_polytope(second, 2, 2), hull([0]))

    def test_hull_of_achieved_weights_r1(self):
        for l1, l2 in ((1, 1), (2, 1), (4, 3), (2, 4)):
            for cls, x in REPS.items():
                achieved = []
                for k in range(min(l1, l2) + 1):
                    lam = l1 + l2 - 2 * k
                    got = membership_in_C(x, l1, l2, lam)
                    if got.witness == 1:
                        achieved.append(lam)
                assert equals(hull(achieved), moment_polytope(x, l1, l2)), (cls, l1, l2)

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
        assert equals(gamma_highest_weight_polytope(case, 2, 1), seg(1, 3))
        assert equals(real_moment_polytope(case, 2, 1), seg(1, 3))

    def test_diagonal_negation(self):
        case = RealFormCase(REPS[OrbitClass.DIAGONAL], NEG)
        assert equals(gamma_highest_weight_polytope(case, 2, 1), hull([3]))

    def test_zero_cut_is_empty_off_zero(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], identity_involution())
        assert gamma_highest_weight_polytope(case, 2, 1).is_empty

    def test_zero_cut_keeps_zero(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], identity_involution())
        assert equals(real_moment_polytope(case, 1, 1), hull([0]))

    def test_factor_cases(self):
        first = RealFormCase(REPS[OrbitClass.FIRST_FACTOR], NEG)
        second = RealFormCase(REPS[OrbitClass.SECOND_FACTOR], NEG)
        assert equals(real_moment_polytope(first, 3, 1), hull([2]))
        assert real_moment_polytope(second, 3, 1).is_empty

    def test_route_agreement_over_grid(self):
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                for gamma in (NEG, identity_involution()):
                    for x in REPS.values():
                        case = RealFormCase(x, gamma)
                        real_moment_polytope(case, l1, l2)  # raises on disagreement


class TestCatalog:
    def test_worked_catalog(self):
        cat = enumerate_polytope_catalog(2, 1, NEG)
        expected = [RationalPolytope.empty(), hull([1]), hull([3]), seg(1, 3)]
        assert len(cat) == 4
        assert all(equals(a, b) for a, b in zip(cat, expected))

    def test_equal_weights(self):
        cat = enumerate_polytope_catalog(1, 1, NEG)
        expected = [RationalPolytope.empty(), hull([0]), hull([2]), seg(0, 2)]
        assert len(cat) == 4
        assert all(equals(a, b) for a, b in zip(cat, expected))

    def test_identity_involution_collapses(self):
        cat = enumerate_polytope_catalog(1, 1, identity_involution())
        expected = [RationalPolytope.empty(), hull([0])]
        assert len(cat) == 2
        assert all(equals(a, b) for a, b in zip(cat, expected))

    def test_finiteness_bound(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                assert len(enumerate_polytope_catalog(l1, l2, NEG)) <= 5


def reference_representation_route(case, lam1, lam2, r_max=2):
    """The representation route evaluated afresh, with no memo."""
    achieved = []
    for r in range(1, r_max + 1):
        spec = SectionSpaceSpec(r, lam1, lam2)
        for k in range(spec.k_max + 1):
            if not highest_weight_vector(spec, k).evaluate(case.x.coords).is_zero:
                achieved.append(F(r * (lam1 + lam2) - 2 * k, r))
    closure = hull(achieved)
    if case.gamma.sign == -1:  # the -1 eigenspace is the whole axis
        return closure
    return hull([0]) if contains(closure, 0) else RationalPolytope.empty()


rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
nonzero_rationals = st.builds(F, st.integers(1, 50) | st.integers(-50, -1), st.integers(1, 20))
weights = st.integers(1, 8)
gammas = st.sampled_from([NEG, identity_involution()])


@st.composite
def real_points(draw):
    """Real flag points of every orbit class, most of them dense."""
    a1, a2 = draw(rationals), draw(rationals)
    c1, c2 = draw(nonzero_rationals), draw(nonzero_rationals)
    shape = draw(st.sampled_from(["free", "free", "diagonal", "first", "second", "point"]))
    if shape == "diagonal":
        a2, c2 = a1 * c2 / c1, c2
    if shape in ("first", "point"):
        a2, c2 = draw(nonzero_rationals), F(0)
    if shape in ("second", "point"):
        a1, c1 = draw(nonzero_rationals), F(0)
    return FlagPoint.real(a1, c1, a2, c2)


class TestRepresentationMemo:
    @given(real_points(), weights, weights, gammas)
    @settings(deadline=None, max_examples=60)
    def test_memo_equals_reference(self, x, lam1, lam2, gamma):
        orbits._achieved_hull.cache_clear()
        case = RealFormCase(x, gamma)
        want = reference_representation_route(case, lam1, lam2)
        first = gamma_highest_weight_polytope(case, lam1, lam2)
        hits = orbits._achieved_hull.cache_info().hits
        second = gamma_highest_weight_polytope(case, lam1, lam2)
        assert orbits._achieved_hull.cache_info().hits == hits + 1
        assert equals(first, want) and equals(second, want)

    def test_memo_is_bounded(self):
        orbits._achieved_hull.cache_clear()
        for n in range(ACHIEVED_HULL_CACHE_SIZE + 20):
            case = RealFormCase(FlagPoint.real(n, 1, 1, 1), NEG)
            gamma_highest_weight_polytope(case, 1, 1)
            assert orbits._achieved_hull.cache_info().currsize <= ACHIEVED_HULL_CACHE_SIZE
        assert orbits._achieved_hull.cache_info().currsize == ACHIEVED_HULL_CACHE_SIZE

    def test_gamma_cut_is_not_memoized(self):
        orbits._achieved_hull.cache_clear()
        x = REPS[OrbitClass.DENSE]
        assert equals(gamma_highest_weight_polytope(RealFormCase(x, NEG), 2, 1), seg(1, 3))
        cut = gamma_highest_weight_polytope(RealFormCase(x, identity_involution()), 2, 1)
        assert cut.is_empty
        assert orbits._achieved_hull.cache_info().hits == 1

    @given(real_points(), nonzero_rationals, nonzero_rationals, weights, weights, gammas)
    @settings(deadline=None, max_examples=60)
    def test_rescaling_either_pair_changes_nothing(self, x, t1, t2, lam1, lam2, gamma):
        a1, c1, a2, c2 = (g.re for g in x.coords)
        for y in (FlagPoint.real(t1 * a1, t1 * c1, a2, c2),
                  FlagPoint.real(a1, c1, t2 * a2, t2 * c2)):
            assert y == x
            assert classify_borel_orbit_closure(y) is classify_borel_orbit_closure(x)
            case, scaled = RealFormCase(x, gamma), RealFormCase(y, gamma)
            assert equals(gamma_highest_weight_polytope(scaled, lam1, lam2),
                          gamma_highest_weight_polytope(case, lam1, lam2))
            assert equals(real_moment_polytope(scaled, lam1, lam2),
                          real_moment_polytope(case, lam1, lam2))


class TestRouteDisagreement:
    def test_error_carries_both_routes(self, disagreeing_routes):
        case = RealFormCase(REPS[OrbitClass.DENSE], NEG)
        with pytest.raises(RouteDisagreementError) as info:
            real_moment_polytope(case, 2, 1)
        err = info.value
        assert isinstance(err, AssertionError)
        assert equals(err.via_intersection, seg(1, 3))
        assert equals(err.via_representation, seg(1, 2))
        assert err.point == case.x and err.gamma is NEG
        assert (err.lam1, err.lam2) == (2, 1)
        assert err.orbit_class is OrbitClass.DENSE
        assert str(err) == "route disagreement at ((0:1), (1:1)), weights (2,1): [1, 3] vs [1, 2]"

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


# the memoized hull itself, kept so a test can swap in a leaky stand-in
HULL_MEMO = orbits._achieved_hull
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
        """Both involutions over the 80 golden cases, memo cleared and the
        intersection route's functions forbidden."""
        unpatched = self.unpatched_identity_cuts()
        HULL_MEMO.cache_clear()
        forbid(monkeypatch, orbits, self.INTERSECTION_ONLY)
        try:
            for (x, l1, l2, delta_y), want in zip(GOLDEN, unpatched):
                assert equals(gamma_highest_weight_polytope(RealFormCase(x, NEG), l1, l2), delta_y)
                got = gamma_highest_weight_polytope(RealFormCase(x, identity_involution()), l1, l2)
                assert equals(got, want)
        finally:
            HULL_MEMO.cache_clear()

    def test_representation_route_reads_no_orbit_class(self, monkeypatch):
        assert len(GOLDEN) == 80
        self.representation_gate(monkeypatch)

    def test_gate_catches_a_route_that_classifies(self, monkeypatch):
        def leaky(coords, lam1, lam2):
            orbits.classify_borel_orbit_closure(FlagPoint(*coords))
            return HULL_MEMO.__wrapped__(coords, lam1, lam2)
        monkeypatch.setattr(orbits, "_achieved_hull", leaky)
        with pytest.raises(RouteLeak, match="classify_borel_orbit_closure was called"):
            self.representation_gate(monkeypatch)

    def test_intersection_route_evaluates_no_invariant_vector(self, monkeypatch):
        unpatched = self.unpatched_identity_cuts()
        forbid(monkeypatch, orbits, ("highest_weight_vector",))
        forbid(monkeypatch, reps, ("highest_weight_vector",))
        forbid(monkeypatch, BiHomogPoly, ("evaluate",))
        for (x, l1, l2, delta_y), want in zip(GOLDEN, unpatched):
            polytope = moment_polytope(x, l1, l2)
            assert equals(NEG.negated_cut(polytope), delta_y)
            assert equals(identity_involution().negated_cut(polytope), want)
