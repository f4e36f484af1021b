from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_value
from mplab import checks, reps
from mplab.exactlin import GaussianRational, RatMatrix, kernel
from mplab.reps import (
    BiHomogPoly,
    MixedWeightsError,
    SectionSpaceSpec,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    hw_vector_product_form,
    n_invariant_subspace,
    section_space_dim,
    torus_weight,
    verify_n_invariance,
    weight_decomposition,
)


def poly(bidegree, terms):
    return BiHomogPoly.from_terms(bidegree, terms)


def shear_expansion(f):
    """Coefficients of f(x1 - t*y1, y1, x2 - t*y2, y2) with t formal, keyed
    (a, b, c, d, e) with e the power of t: the full expansion that the
    raising operator D = y1 d/dx1 + y2 d/dx2 stands in for."""
    out = {}
    for (a, b, c, d), coeff in f.terms:
        for i in range(a + 1):
            for j in range(c + 1):
                e = (a - i) + (c - j)
                key = (i, b + a - i, j, d + c - j, e)
                out[key] = out.get(key, 0) + coeff * comb(a, i) * comb(c, j) * (-1) ** e
    return {k: v for k, v in out.items() if v != 0}


def reference_invariant(f):
    """Every t^e coefficient of the shear expansion with e >= 1 vanishes."""
    return all(e == 0 for (_, _, _, _, e) in shear_expansion(f))


def reference_subspace(spec, weight):
    """The invariant subspace from the shear expansion's equations, one per
    (monomial, power of t), solved by ``kernel`` and normalized as
    ``n_invariant_subspace`` normalizes its basis."""
    d1, d2 = spec.bidegree
    monos = [(a, d1 - a, c, d2 - c) for a in range(d1 + 1) for c in range(d2 + 1)
             if (d1 - 2 * a) + (d2 - 2 * c) == weight]
    equations = {}
    for col, mono in enumerate(monos):
        for key, val in shear_expansion(BiHomogPoly.monomial(mono)).items():
            if key[4]:
                equations.setdefault(key, {})[col] = val
    if not equations:
        return [BiHomogPoly.monomial(m) for m in monos]
    rows = tuple(tuple(cols.get(j, 0) for j in range(len(monos)))
                 for _, cols in sorted(equations.items()))
    out = []
    for vec in kernel(RatMatrix(rows)):
        denom = lcm(*(entry.denominator for entry in vec))
        f = poly(spec.bidegree, {m: int(x * denom) for m, x in zip(monos, vec)})
        out.append(-f if max(f.terms)[1] < 0 else f)
    return out


class TestSectionSpace:
    def test_dimension_formula(self):
        assert section_space_dim(SectionSpaceSpec(1, 2, 1)) == 6
        assert section_space_dim(SectionSpaceSpec(2, 1, 1)) == 9
        assert section_space_dim(SectionSpaceSpec(3, 1, 2)) == 28

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SectionSpaceSpec(0, 1, 1)
        with pytest.raises(ValueError):
            SectionSpaceSpec(1, 1, 0)


class TestClebschGordan:
    def test_highest_weight_lists(self):
        assert clebsch_gordan_highest_weights(SectionSpaceSpec(1, 2, 1)) == [3, 1]
        assert clebsch_gordan_highest_weights(SectionSpaceSpec(2, 2, 1)) == [6, 4, 2]
        assert clebsch_gordan_highest_weights(SectionSpaceSpec(1, 1, 1)) == [2, 0]

    def test_completeness_identity(self):
        for r in range(1, 5):
            for l1 in range(1, 5):
                for l2 in range(1, 5):
                    spec = SectionSpaceSpec(r, l1, l2)
                    assert sum(w + 1 for w in clebsch_gordan_highest_weights(spec)) \
                        == section_space_dim(spec)

    def test_weight_multiplicities_match_irreducible_strings(self):
        for r in (1, 2):
            for l1, l2 in ((1, 1), (2, 1), (2, 3)):
                spec = SectionSpaceSpec(r, l1, l2)
                counted: dict[int, int] = {}
                for w in clebsch_gordan_highest_weights(spec):
                    for m in range(-w, w + 1, 2):
                        counted[m] = counted.get(m, 0) + 1
                assert counted == weight_decomposition(spec)


class TestHighestWeightVectors:
    def test_smallest_case(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1)
        assert f == poly((1, 1), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})

    def test_k_zero_is_pure_monomial(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 2, 1), 0)
        assert f == poly((2, 1), {(0, 2, 0, 1): 1})

    def test_r2_case(self):
        f = highest_weight_vector(SectionSpaceSpec(2, 1, 1), 1)
        assert f == poly((2, 2), {(1, 1, 0, 2): 1, (0, 2, 1, 1): -1})

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            highest_weight_vector(SectionSpaceSpec(1, 1, 1), 2)

    @pytest.mark.parametrize("k", [True, 1.0, Fraction(1)])
    @pytest.mark.parametrize("form", [highest_weight_vector, hw_vector_product_form])
    def test_k_that_is_not_an_int_is_refused_before_any_work(self, form, k, monkeypatch):
        spec = SectionSpaceSpec(1, 1, 1)
        monkeypatch.setattr(reps, "_DET", None)  # any expansion would fail here
        monkeypatch.setattr(reps, "comb", None)  # and so would the alternating sum
        with pytest.raises(TypeError, match="k="):
            form(spec, k)

    def test_forms_agree_on_grid(self):
        # highest_weight_vector stores its terms unchecked; BiHomogPoly's
        # checks pass on them and give back the same vector
        for r in range(1, 5):
            for l1 in range(1, 5):
                for l2 in range(1, 5):
                    spec = SectionSpaceSpec(r, l1, l2)
                    for k in range(spec.k_max + 1):
                        f = highest_weight_vector(spec, k)
                        assert f == BiHomogPoly(spec.bidegree, f.terms)
                        assert f == hw_vector_product_form(spec, k)

    def test_product_form_equals_generic_expansion(self):
        det = poly((1, 1), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
        for r in range(1, 4):
            for l1 in range(1, 5):
                for l2 in range(1, 5):
                    spec = SectionSpaceSpec(r, l1, l2)
                    d1, d2 = spec.bidegree
                    for k in range(spec.k_max + 1):
                        want = BiHomogPoly.monomial((0, d1 - k, 0, d2 - k)) * det ** k
                        assert hw_vector_product_form(spec, k) == want

    def test_forms_agree_at_the_route_weights(self):
        # r = 1, the power the route evaluates, up to the command line's (49, 49)
        for weights in [(l1, l2) for l1 in range(1, 9) for l2 in range(1, 9)] + [(49, 49)]:
            spec = SectionSpaceSpec(1, *weights)
            for k in range(spec.k_max + 1):
                f = highest_weight_vector(spec, k)
                assert f == BiHomogPoly(spec.bidegree, f.terms)
                assert f == hw_vector_product_form(spec, k)


class TestNInvariance:
    def test_invariant_vector(self):
        assert verify_n_invariance(highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1))

    def test_x1_not_invariant(self):
        assert not verify_n_invariance(BiHomogPoly.monomial((1, 0, 0, 0)))

    def test_pure_y_monomial_invariant(self):
        assert verify_n_invariance(BiHomogPoly.monomial((0, 3, 0, 2)))

    @given(st.data())
    def test_raising_operator_agrees_with_the_shear_expansion(self, data):
        # an invariant vector plus a random, possibly zero, combination of
        # monomials of the same bidegree
        spec = SectionSpaceSpec(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                                data.draw(st.integers(1, 4)))
        k = data.draw(st.integers(0, spec.k_max))
        m = data.draw(st.integers(1, 3))
        terms = {e: m * c for e, c in highest_weight_vector(spec, k).terms}
        d1, d2 = spec.bidegree
        monos = st.tuples(st.integers(0, d1), st.integers(0, d2)).map(
            lambda ac: (ac[0], d1 - ac[0], ac[1], d2 - ac[1]))
        for mono, coeff in data.draw(st.dictionaries(monos, st.integers(-2, 2),
                                                     max_size=3)).items():
            terms[mono] = terms.get(mono, 0) + coeff
        f = poly(spec.bidegree, terms)
        assert verify_n_invariance(f) == reference_invariant(f)


class TestTorusWeight:
    def test_monomial_weight(self):
        assert torus_weight(BiHomogPoly.monomial((0, 1, 0, 1))) == 2

    def test_invariant_vector_weight(self):
        assert torus_weight(highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1)) == 0

    def test_mixed_weights_error(self):
        f = poly((1, 1), {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
        with pytest.raises(MixedWeightsError):
            torus_weight(f)

    def test_invariant_vectors_carry_expected_weights(self):
        for r in (1, 2, 3):
            spec = SectionSpaceSpec(r, 2, 1)
            for k in range(spec.k_max + 1):
                f = highest_weight_vector(spec, k)
                assert torus_weight(f) == r * 3 - 2 * k
                assert verify_n_invariance(f)


class TestWeightDecomposition:
    def test_enumerated_cases(self):
        assert weight_decomposition(SectionSpaceSpec(1, 1, 1)) == {2: 1, 0: 2, -2: 1}
        assert weight_decomposition(SectionSpaceSpec(1, 2, 1)) == {3: 1, 1: 2, -1: 2, -3: 1}
        assert weight_decomposition(SectionSpaceSpec(2, 1, 1)) == \
            {4: 1, 2: 2, 0: 3, -2: 2, -4: 1}

    def test_total_count_is_dimension(self):
        for r in (1, 2, 3):
            spec = SectionSpaceSpec(r, 3, 2)
            assert sum(weight_decomposition(spec).values()) == section_space_dim(spec)


class TestOracle:
    def test_weight_zero_line(self):
        basis = n_invariant_subspace(SectionSpaceSpec(1, 1, 1), 0)
        assert len(basis) == 1
        assert basis[0] == poly((1, 1), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})

    def test_top_weight_line(self):
        basis = n_invariant_subspace(SectionSpaceSpec(1, 1, 1), 2)
        assert len(basis) == 1
        assert basis[0] == BiHomogPoly.monomial((0, 1, 0, 1))

    def test_lowest_weight_empty(self):
        assert n_invariant_subspace(SectionSpaceSpec(1, 1, 1), -2) == []

    def test_oracle_matches_closed_form(self):
        # the 27 specs of check_hw_oracle
        specs = [SectionSpaceSpec(r, l1, l2)
                 for r in (1, 2, 3) for l1 in (1, 2, 3) for l2 in (1, 2, 3)]
        for spec in specs:
            for k, w in enumerate(clebsch_gordan_highest_weights(spec)):
                f = highest_weight_vector(spec, k)
                # the oracle's integer vector is primitive with a positive
                # coefficient on its largest exponent, so it is the closed form
                assert n_invariant_subspace(spec, w) == [f]
                assert gcd(*(c for _, c in f.terms)) == 1 and max(f.terms)[1] == 1

    def test_check_refuses_a_multiple_of_the_closed_form(self, monkeypatch):
        genuine = checks.n_invariant_subspace

        def doubled(spec, w):
            return [BiHomogPoly(g.bidegree, tuple((e, 2 * c) for e, c in g.terms))
                    for g in genuine(spec, w)]

        monkeypatch.setattr(checks, "n_invariant_subspace", doubled)
        result = checks.check_hw_oracle()
        assert not result.passed
        assert "SectionSpaceSpec(r=1, lam1=1, lam2=1) w=2" in result.detail

    def test_check_refuses_coefficients_that_are_not_proportional(self, monkeypatch):
        genuine = checks.highest_weight_vector

        def skewed(spec, k):
            # term i times i + 1: the same exponents, and no longer a multiple
            # of the closed form wherever it has two terms or more
            f = genuine(spec, k)
            return BiHomogPoly(f.bidegree, tuple((e, (i + 1) * c)
                                                 for i, (e, c) in enumerate(f.terms)))

        monkeypatch.setattr(checks, "highest_weight_vector", skewed)
        result = checks.check_hw_oracle()
        assert not result.passed
        assert "SectionSpaceSpec(r=1, lam1=1, lam2=1) w=0" in result.detail
        assert "SectionSpaceSpec(r=1, lam1=1, lam2=1) w=2" not in result.detail  # a monomial

    def test_off_parity_weights_empty(self):
        spec = SectionSpaceSpec(1, 2, 1)
        assert n_invariant_subspace(spec, 2) == []   # wrong parity: no monomials
        assert n_invariant_subspace(spec, -1) == []  # right parity, not a top weight

    @pytest.mark.parametrize("r, l1, l2", [(r, l1, l2) for r in (1, 2, 3)
                                           for l1 in range(1, 5) for l2 in range(1, 5)])
    def test_equals_the_shear_expansion_system(self, r, l1, l2):
        spec = SectionSpaceSpec(r, l1, l2)
        top = r * (l1 + l2)
        for w in range(-top - 2, top + 3):
            assert n_invariant_subspace(spec, w) == reference_subspace(spec, w)

    def test_equals_the_shear_expansion_system_at_the_input_limit(self):
        spec = SectionSpaceSpec(3, 16, 16)
        assert n_invariant_subspace(spec, 0) == reference_subspace(spec, 0)


class TestOracleWork:
    """The size of the oracle's linear system: a count, not a timing."""

    def test_one_row_per_raised_monomial_and_two_entries_per_column(self, monkeypatch):
        seen = []

        def recording_kernel(m):
            seen.append(m)
            return kernel(m)

        monkeypatch.setattr(reps, "kernel", recording_kernel)
        spec = SectionSpaceSpec(3, 16, 16)
        assert len(n_invariant_subspace(spec, 0)) == 1
        [m] = seen
        assert m.rows <= weight_decomposition(spec)[2]
        assert max(sum(1 for row in m.ints if row[j]) for j in range(m.cols)) <= 2


# about 40 % of the parts drawn exceed 10**6; zero coordinates come from a drawn mask
heights = st.integers(-10**19, 10**19)


@st.composite
def evaluation_points(draw):
    """The eight parts of a point of Gaussian integers with mixed heights,
    and a drawn set of coordinates, possibly empty or all four, set to zero."""
    zeros = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    return [part for zero in zeros
            for part in ((0, 0) if zero else (draw(heights), draw(heights)))]


def at(parts):
    """The Q(i) coordinates of the Gaussian-integer point with ``parts``."""
    return [GaussianRational(re, im) for re, im in zip(parts[::2], parts[1::2])]


def summed(f, parts):
    """f at the Gaussian-integer point with ``parts``, as the package sums
    it: over that point's power tables to f's own bidegree."""
    return f.table_sum(reps.power_tables(parts, *f.bidegree))


@st.composite
def evaluated_polynomials(draw):
    """An invariant vector with r <= 2 and weights 1-4, or a random
    bi-homogeneous polynomial with small or large coefficients."""
    if draw(st.booleans()):
        spec = SectionSpaceSpec(draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                                draw(st.integers(1, 4)))
        return highest_weight_vector(spec, draw(st.integers(0, spec.k_max)))
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    monos = [(a, d1 - a, c, d2 - c) for a in range(d1 + 1) for c in range(d2 + 1)]
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))
    return poly((d1, d2), dict(zip(monos, draw(st.lists(coeffs, min_size=len(monos),
                                                       max_size=len(monos))))))


class TestBiHomogPoly:
    def test_bidegree_invariant(self):
        with pytest.raises(ValueError):
            BiHomogPoly((1, 1), (((2, 0, 0, 1), 1),))

    def test_no_zero_coefficients(self):
        assert poly((1, 1), {(1, 0, 0, 1): 0}).is_zero
        assert poly((1, 1), {(1, 0, 0, 1): 0, (0, 1, 1, 0): 2}).terms == (((0, 1, 1, 0), 2),)

    def test_exact_evaluation(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1)
        # x1*y2 - x2*y1 at (1, 2, 3, 4) = 4 - 6
        assert summed(f, [1, 0, 2, 0, 3, 0, 4, 0]) == (-2, 0)

    @pytest.mark.parametrize("zeros", [(0,), (1,), (2, 3), (0, 2), (0, 1, 2, 3)])
    def test_evaluation_at_zero_coordinates_sums_to_the_same_value(self, zeros):
        # a term with a positive exponent on a zero coordinate is exactly 0,
        # while x^0 = 1 at x = 0
        f = poly((4, 2), {**dict(highest_weight_vector(SectionSpaceSpec(2, 2, 1), 1).terms),
                          (0, 4, 0, 2): 3, (4, 0, 2, 0): -5, (2, 2, 1, 1): 7})
        values = ((2, -3), (-3, 0), (0, 1), (5, 2))
        pt = [part for i, v in enumerate(values) for part in ((0, 0) if i in zeros else v)]
        assert GaussianRational(*summed(f, pt)) == reference_value(f, at(pt))

    @given(evaluated_polynomials(), evaluation_points())
    def test_evaluation_equals_the_term_by_term_sum(self, f, pt):
        assert GaussianRational(*summed(f, pt)) == reference_value(f, at(pt))

    def test_sum_needs_exactly_eight_parts(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 2, 1), 1)
        pt = [1, 0, 2, 0, 3, 0, 4, 0]
        for bad in (pt[:7], pt[:6], pt + [7], []):
            with pytest.raises(ValueError, match=rf"^a point has 8 integer parts, not {len(bad)}$"):
                summed(f, bad)

    def test_one_exact_sum(self):
        # table_sum over power_tables is the package's one exact sum
        assert not hasattr(BiHomogPoly, "integer_sum")

    def test_power_tables(self):
        # (2 + i)^2 = 3 + 4i and (2 + i)^3 = 2 + 11i; a zero coordinate reads 1, 0, 0
        tables = reps.power_tables([2, 1, 0, 0, -1, 0, 0, 3], 3, 1)
        assert tables == [[(1, 0), (2, 1), (3, 4), (2, 11)], [(1, 0), (0, 0), (0, 0), (0, 0)],
                          [(1, 0), (-1, 0)], [(1, 0), (0, 3)]]
        for bad in ([0] * 7, [0] * 9):
            with pytest.raises(ValueError, match=rf"^a point has 8 integer parts, not {len(bad)}$"):
                reps.power_tables(bad, 1, 1)

    @given(st.integers(1, 4), st.integers(1, 4), evaluation_points())
    def test_vectors_summed_over_shared_tables(self, lam1, lam2, pt):
        # the route's sums: every vector of the first power over one set of tables
        spec = SectionSpaceSpec(1, lam1, lam2)
        tables = reps.power_tables(pt, lam1, lam2)
        for k in range(spec.k_max + 1):
            f = highest_weight_vector(spec, k)
            assert f.table_sum(tables) == summed(f, pt)
            assert GaussianRational(*f.table_sum(tables)) == reference_value(f, at(pt))

    @given(evaluated_polynomials(), st.integers(0, 2), st.integers(0, 2), evaluation_points())
    def test_longer_tables_sum_to_the_same_value(self, f, e1, e2, pt):
        d1, d2 = f.bidegree
        tables = reps.power_tables(pt, d1 + e1, d2 + e2)
        assert f.table_sum(tables) == summed(f, pt)
        assert GaussianRational(*f.table_sum(tables)) == reference_value(f, at(pt))

    THREE_TERMS = poly((2, 1), {(2, 0, 0, 1): 3, (1, 1, 1, 0): -2, (0, 2, 0, 1): 5})

    @pytest.mark.parametrize("base", [reps._DET, THREE_TERMS], ids=["det", "three_terms"])
    def test_power_equals_the_repeated_product(self, base):
        product = BiHomogPoly.monomial((0, 0, 0, 0))
        for k in range(10):
            assert base ** k == product
            product = product * base

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="^negative power$"):
            reps._DET ** -1

    def test_pretty_deterministic(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1)
        assert f.pretty() == "x1*y2 - y1*x2"
        assert BiHomogPoly((1, 1), ()).pretty() == "0"

    @pytest.mark.parametrize("f, text", [
        (poly((2, 1), {(2, 0, 0, 1): 1, (1, 1, 1, 0): -1, (0, 2, 0, 1): 3, (0, 2, 1, 0): -4}),
         "x1^2*y2 - x1*y1*x2 - 4*y1^2*x2 + 3*y1^2*y2"),
        (poly((1, 1), {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}), "x1*y2 + y1*x2"),
        (BiHomogPoly.monomial((0, 0, 0, 0), -1), "-1"),
        (BiHomogPoly.monomial((0, 0, 0, 0), 5), "5"),
    ], ids=["four_terms", "plus_one", "minus_one", "five"])
    def test_pretty_signs_powers_and_constants(self, f, text):
        assert f.pretty() == text

    def test_large_binomials_exact(self):
        from math import comb
        f = highest_weight_vector(SectionSpaceSpec(10, 5, 5), 50)
        # middle coefficient of the degree-50 determinant power, no overflow
        assert abs(dict(f.terms)[(25, 25, 25, 25)]) == comb(50, 25)
        assert verify_n_invariance(f)


class TestInputLimits:
    """The command line's two route limits, at the limit and one past it."""

    def test_section_space_dimension(self):
        from mplab import cli
        assert reps.MAX_SECTION_SPACE_DIM == 2500
        at = SectionSpaceSpec(1, 49, 49)
        assert section_space_dim(at) == reps.MAX_SECTION_SPACE_DIM
        assert cli._limited(at) is at
        past = SectionSpaceSpec(1, 40, 60)  # 41 * 61
        assert section_space_dim(past) == reps.MAX_SECTION_SPACE_DIM + 1
        with pytest.raises(ValueError, match=r"^section space dimension 2501 exceeds the limit 2500$"):
            cli._limited(past)

    @pytest.mark.parametrize("extra_bit", [False, True], ids=["at-limit", "one-bit-over"])
    def test_route_point_size(self, monkeypatch, capsys, extra_bit):
        from mplab import cli

        class Reached(Exception):
            pass

        def route(*args):
            raise Reached

        monkeypatch.setattr(cli, "real_moment_polytope", route)
        # 1/A, 1/B, 1/C and 1 carry 9 + 3 * 622 bits; times L1 + L2 = 80 that
        # is the limit, and an A of 623 bits puts the point 80 over it
        assert reps.MAX_ROUTE_POINT_SIZE == 80 * (9 + 3 * 622)
        a = 2 ** (622 if extra_bit else 621) + 1
        argv = ["realpolytope", "--weights", "40", "40", "--gamma", "negation",
                "--point", f"1/{a},1/{2 ** 621 + 3};1/{2 ** 621 + 5},1"]
        if extra_bit:
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == "error: point size 150080 exceeds the limit 150000\n"
        else:
            with pytest.raises(Reached):  # the point passes to the route
                cli.main(argv)
