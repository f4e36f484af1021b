from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab import wire
from mplab.polytope import (
    RationalPolytope,
    _interval,
    contains,
    hull,
)
from mplab.weights import identity_involution, negation_involution

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
AXIS = negation_involution()    # negates the whole line
ORIGIN = identity_involution()  # negates only the origin


class TestHull:
    def test_segment_with_interior_point(self):
        assert hull([0, 1, F(1, 2)]).vertices == (F(0), F(1))

    def test_single_point(self):
        assert hull([3]).vertices == (F(3),)

    def test_tuple_or_float_rejected(self):
        for point in ((1,), 1.0):
            with pytest.raises(TypeError):
                hull([1, point])

    def test_empty_point_set_is_empty(self):
        assert hull([]).is_empty
        assert hull([]) == RationalPolytope.empty()

    def test_str(self):
        assert str(RationalPolytope.empty()) == "{}"
        assert str(hull([F(3, 2)])) == "{3/2}"
        assert str(hull([3, -1, 0])) == "[-1, 3]"

    def test_at_most_two_sorted_vertices(self):
        with pytest.raises(ValueError, match="^a polytope on the line has at most two"):
            RationalPolytope((F(0), F(1), F(2)))
        for bad in ((F(1), F(0)), (F(1), F(1)), (F(-1, 2), F(-1, 2))):
            with pytest.raises(ValueError, match="^vertices must be unique and sorted$"):
                RationalPolytope(bad)
        assert hull([1, 0]).vertices == (F(0), F(1))


class TestContains:
    def test_interval(self):
        seg = hull([1, 3])
        assert contains(seg, 2)
        assert not contains(seg, 0)

    def test_empty_contains_nothing(self):
        assert not contains(RationalPolytope.empty(), 0)

    def test_tuple_or_float_rejected(self):
        for point in ((1,), 1.0):
            with pytest.raises(TypeError):
                contains(hull([1]), point)

    def test_boundary_points(self):
        seg = hull([0, 2])
        assert contains(seg, 0) and contains(seg, 2)
        assert not contains(seg, F(-1, 100))
        assert not contains(seg, F(201, 100))
        assert contains(hull([F(1, 3)]), F(1, 3))


class TestEquals:
    def test_redundant_generator(self):
        assert hull([0, 1]) == hull([0, F(1, 2), 1])

    def test_points(self):
        assert hull([3]) == hull([3])
        assert hull([1, 3]) != hull([3])

    def test_tuple_or_float_vertex_rejected(self):
        for vertex in ((F(1),), 1.0):
            with pytest.raises(ValueError):
                RationalPolytope((vertex,))


def case_table_rows(lam1, lam2):
    """Every endpoint tuple that the closed forms give ``_interval`` at
    weights (lam1, lam2): each orbit class's polytope, each hull of achieved
    weights the representation route can find, and the identity cut's origin."""
    top, k_max = lam1 + lam2, min(lam1, lam2)
    rows = [(abs(lam1 - lam2), top), (top,), (0,)]
    rows += [(lam1 - lam2,)] if lam1 >= lam2 else [(lam2 - lam1,)]
    for low in range(k_max + 1):
        rows.append((top - 2 * low,))
        rows += [(top - 2 * high, top - 2 * low) for high in range(low + 1, k_max + 1)]
    return rows


class TestInterval:
    """``_interval`` builds from ints with none of ``hull``'s conversions
    and checks; on the endpoints the closed forms give it, it builds what
    ``hull`` builds, and the checked entries still refuse bad endpoints."""

    def test_equals_hull_on_every_case_table_row(self):
        for lam1 in range(1, 13):
            for lam2 in range(1, 13):
                for ends in case_table_rows(lam1, lam2):
                    got, want = _interval(*ends), hull(ends)
                    assert got == want and repr(got) == repr(want)
                    assert all(type(v) is Fraction for v in got.vertices)
        assert _interval() == RationalPolytope.empty()

    def test_checked_entries_refuse_what_interval_does_not_check(self):
        for bad in ((F(1), F(0)), (F(1), F(1))):
            with pytest.raises(ValueError, match="^vertices must be unique and sorted$"):
                RationalPolytope(bad)
        for bad in ((0, 1), (1,), (F(0), 1)):
            with pytest.raises(ValueError, match="^a polytope on the line has at most two"):
                RationalPolytope(bad)
        for point in (1.0, (1,)):
            with pytest.raises(TypeError):
                hull([0, point])


class TestIntersectSubspace:
    """The cut by the -1 eigenspace of an involution, ``InvolutionSpec.negated_cut``:
    the whole axis or the origin."""

    def test_full_space_is_identity(self):
        seg = hull([1, 3])
        assert AXIS.negated_cut(seg) == seg

    def test_zero_subspace(self):
        seg = hull([1, 3])
        assert ORIGIN.negated_cut(seg).is_empty
        through = hull([-1, 3])
        assert ORIGIN.negated_cut(through).vertices == (F(0),)

    def test_empty_input(self):
        for gamma in (AXIS, ORIGIN):
            assert gamma.negated_cut(RationalPolytope.empty()).is_empty

    def test_disjoint_line(self):
        for seg in (hull([1, 3]), hull([-3, F(-1, 2)])):
            assert ORIGIN.negated_cut(seg).is_empty

    def test_result_contained_in_input(self):
        seg = hull([0, 3])
        for gamma in (AXIS, ORIGIN):
            cut = gamma.negated_cut(seg)
            assert not cut.is_empty
            assert all(contains(seg, v) for v in cut.vertices)


point_sets_1d = st.lists(rationals, min_size=1, max_size=8)
polytopes = st.lists(rationals, max_size=4).map(hull)


@given(point_sets_1d)
@settings(deadline=None)
def test_hull_idempotent_and_contains_vertices(points):
    p = hull(points)
    assert hull(p.vertices) == p
    for v in p.vertices:
        assert contains(p, v)
    for x in points:
        assert contains(p, x)


@given(point_sets_1d)
@settings(deadline=None)
def test_hull_is_min_max(points):
    lo, hi = min(points), max(points)
    assert hull(points).vertices == ((lo,) if lo == hi else (lo, hi))


@given(polytopes, rationals)
@settings(deadline=None)
def test_contains_is_interval_membership(p, x):
    if p.is_empty:
        assert not contains(p, x)
    else:
        assert contains(p, x) == (p.vertices[0] <= x <= p.vertices[-1])


@given(polytopes)
@settings(deadline=None)
def test_intersection_inside_polytope(p):
    assert AXIS.negated_cut(p) == p
    cut = ORIGIN.negated_cut(p)
    assert all(contains(p, v) for v in cut.vertices)
    assert cut.vertices == ((F(0),) if contains(p, 0) else ())


@given(polytopes)
@settings(deadline=None)
def test_json_round_trip(p):
    assert wire.polytope_from_json(wire.polytope_to_json(p)) == p
