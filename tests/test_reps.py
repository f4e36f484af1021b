from fractions import Fraction

import pytest

from mplab import reps
from mplab.exactlin import GaussianRational
from mplab.reps import (
    BiHomogPoly,
    MixedWeightsError,
    SectionSpaceSpec,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    hw_vector_product_form,
    hw_vector_sum_form,
    n_invariance_randomized,
    n_invariant_subspace,
    section_space_dim,
    torus_weight,
    verify_n_invariance,
    weight_decomposition,
)


def poly(bidegree, terms):
    return BiHomogPoly.from_terms(bidegree, terms)


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

    def test_forms_agree_on_grid(self):
        for r in range(1, 4):
            for l1 in (1, 2, 3):
                for l2 in (1, 2, 3):
                    spec = SectionSpaceSpec(r, l1, l2)
                    for k in range(spec.k_max + 1):
                        assert hw_vector_sum_form(spec, k) == hw_vector_product_form(spec, k)

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

    def test_product_form_beyond_memoized_powers(self):
        k = reps._DET_MEMO_K + 1
        spec = SectionSpaceSpec(1, k, k)
        assert hw_vector_product_form(spec, k) == hw_vector_sum_form(spec, k)


class TestNInvariance:
    def test_invariant_vector(self):
        assert verify_n_invariance(highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1))

    def test_x1_not_invariant(self):
        assert not verify_n_invariance(BiHomogPoly.monomial((1, 0, 0, 0)))

    def test_pure_y_monomial_invariant(self):
        assert verify_n_invariance(BiHomogPoly.monomial((0, 3, 0, 2)))

    def test_randomized_fast_path_agrees_with_symbolic(self):
        cases = [
            highest_weight_vector(SectionSpaceSpec(2, 2, 1), 2),
            BiHomogPoly.monomial((1, 0, 0, 0)),
            BiHomogPoly.monomial((0, 3, 0, 2)),
            poly((1, 1), {(1, 0, 0, 1): 2, (0, 1, 1, 0): 1}),
        ]
        for f in cases:
            assert n_invariance_randomized(f) == verify_n_invariance(f)


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
        for r in (1, 2):
            for l1, l2 in ((1, 1), (2, 1), (2, 2)):
                spec = SectionSpaceSpec(r, l1, l2)
                for k, w in enumerate(clebsch_gordan_highest_weights(spec)):
                    basis = n_invariant_subspace(spec, w)
                    assert len(basis) == 1
                    f = highest_weight_vector(spec, k)
                    g = basis[0]
                    assert f.scale(g.terms[0][1]) == g.scale(f.terms[0][1])

    def test_off_parity_weights_empty(self):
        spec = SectionSpaceSpec(1, 2, 1)
        assert n_invariant_subspace(spec, 2) == []   # wrong parity: no monomials
        assert n_invariant_subspace(spec, -1) == []  # right parity, not a top weight


class TestBiHomogPoly:
    def test_bidegree_invariant(self):
        with pytest.raises(ValueError):
            BiHomogPoly((1, 1), (((2, 0, 0, 1), 1),))

    def test_no_zero_coefficients(self):
        f = poly((1, 1), {(1, 0, 0, 1): 1})
        assert (f - f).is_zero

    def test_exact_evaluation(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1)
        pt = tuple(GaussianRational.of(v) for v in (Fraction(1), Fraction(2),
                                                    Fraction(3), Fraction(4)))
        # x1*y2 - x2*y1 at (1, 2, 3, 4) = 4 - 6
        assert f.evaluate(pt) == GaussianRational.of(-2)

    def test_pretty_deterministic(self):
        f = highest_weight_vector(SectionSpaceSpec(1, 1, 1), 1)
        assert f.pretty() == "x1*y2 - y1*x2"
        assert BiHomogPoly.zero((1, 1)).pretty() == "0"

    def test_large_binomials_exact(self):
        from math import comb
        f = highest_weight_vector(SectionSpaceSpec(10, 5, 5), 50)
        # middle coefficient of the degree-50 determinant power, no overflow
        assert abs(f.coeff((25, 25, 25, 25))) == comb(50, 25)
        assert verify_n_invariance(f)
