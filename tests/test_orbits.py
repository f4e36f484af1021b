import itertools
from fractions import Fraction

import pytest

from mplab.exactlin import GaussianRational
from mplab.orbits import (
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
    real_moment_polytope,
)
from mplab.polytope import RationalPolytope, contains, contains_polytope, equals, hull
from mplab.weights import ExactGroupElement2x2, identity_involution, negation_involution

F = Fraction
REPS = orbit_representatives()
NEG = negation_involution()


def seg(lo, hi):
    return hull([(F(lo),), (F(hi),)])


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
                        assert member == contains(poly, (lam,)), (cls, l1, l2, lam)


class TestMomentPolytope:
    def test_worked_values(self):
        assert equals(moment_polytope(REPS[OrbitClass.DENSE], 2, 1), seg(1, 3))
        assert equals(moment_polytope(REPS[OrbitClass.DIAGONAL], 2, 1), hull([(3,)]))
        assert moment_polytope(REPS[OrbitClass.POINT], 2, 1).is_empty

    def test_factor_cases_depend_on_weight_order(self):
        first = REPS[OrbitClass.FIRST_FACTOR]
        second = REPS[OrbitClass.SECOND_FACTOR]
        assert equals(moment_polytope(first, 3, 1), hull([(2,)]))
        assert moment_polytope(second, 3, 1).is_empty
        assert moment_polytope(first, 1, 3).is_empty
        assert equals(moment_polytope(second, 1, 3), hull([(2,)]))
        assert equals(moment_polytope(first, 2, 2), hull([(0,)]))
        assert equals(moment_polytope(second, 2, 2), hull([(0,)]))

    def test_hull_of_achieved_weights_r1(self):
        for l1, l2 in ((1, 1), (2, 1), (4, 3), (2, 4)):
            for cls, x in REPS.items():
                achieved = []
                for k in range(min(l1, l2) + 1):
                    lam = l1 + l2 - 2 * k
                    got = membership_in_C(x, l1, l2, lam, r_limit=1)
                    if got.member:
                        achieved.append((F(lam),))
                assert equals(hull(achieved), moment_polytope(x, l1, l2)), (cls, l1, l2)

    def test_monotonicity_in_dense_polytope(self):
        for l1, l2 in ((1, 1), (2, 1), (3, 4)):
            dense = moment_polytope(REPS[OrbitClass.DENSE], l1, l2)
            for x in REPS.values():
                assert contains_polytope(dense, moment_polytope(x, l1, l2))

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
        with pytest.raises(ValueError):
            RealFormCase(REPS[OrbitClass.DENSE], negation_involution(2))


class TestTwoRoutes:
    def test_dense_negation(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], NEG)
        assert equals(gamma_highest_weight_polytope(case, 2, 1), seg(1, 3))
        assert equals(real_moment_polytope(case, 2, 1), seg(1, 3))

    def test_diagonal_negation(self):
        case = RealFormCase(REPS[OrbitClass.DIAGONAL], NEG)
        assert equals(gamma_highest_weight_polytope(case, 2, 1), hull([(3,)]))

    def test_zero_cut_is_empty_off_zero(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], identity_involution())
        assert gamma_highest_weight_polytope(case, 2, 1).is_empty

    def test_zero_cut_keeps_zero(self):
        case = RealFormCase(REPS[OrbitClass.DENSE], identity_involution())
        assert equals(real_moment_polytope(case, 1, 1), hull([(0,)]))

    def test_factor_cases(self):
        first = RealFormCase(REPS[OrbitClass.FIRST_FACTOR], NEG)
        second = RealFormCase(REPS[OrbitClass.SECOND_FACTOR], NEG)
        assert equals(real_moment_polytope(first, 3, 1), hull([(2,)]))
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
        expected = [RationalPolytope.empty(), hull([(1,)]), hull([(3,)]), seg(1, 3)]
        assert len(cat) == 4
        assert all(equals(a, b) for a, b in zip(cat, expected))

    def test_equal_weights(self):
        cat = enumerate_polytope_catalog(1, 1, NEG)
        expected = [RationalPolytope.empty(), hull([(0,)]), hull([(2,)]), seg(0, 2)]
        assert len(cat) == 4
        assert all(equals(a, b) for a, b in zip(cat, expected))

    def test_identity_involution_collapses(self):
        cat = enumerate_polytope_catalog(1, 1, identity_involution())
        expected = [RationalPolytope.empty(), hull([(0,)])]
        assert len(cat) == 2
        assert all(equals(a, b) for a, b in zip(cat, expected))

    def test_finiteness_bound(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                assert len(enumerate_polytope_catalog(l1, l2, NEG)) <= 5
