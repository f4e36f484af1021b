import csv
import functools
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc

from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab import checks, numeric
from mplab.orbits import (FlagPoint, OrbitClass, RealFormCase, classify_borel_orbit_closure,
                          moment_polytope, orbit_representatives, real_moment_polytope)
from mplab.polytope import RationalPolytope, hull
from mplab.reps import SectionSpaceSpec, highest_weight_vector
from mplab.weights import negation_involution

REPS = orbit_representatives()
SUBGROUPS = ("B", "H", "G", "G'")
SRC = Path(__file__).resolve().parents[1] / "src"


class TestMomentMap:
    def test_torus_fixed_points(self):
        # both factors at the Borel-fixed point: the moment value sits at the
        # antidominant end of the axis
        down = numeric.moment_map(((1, 0), (1, 0)), 2, 1)
        assert np.allclose(down, [0, 0, -3], atol=1e-12)
        up = numeric.moment_map(((0, 1), (0, 1)), 2, 1)
        assert np.allclose(up, [0, 0, 3], atol=1e-12)

    def test_single_factor_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, c = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
            h = numeric.moment_map(((a, c), (1, 0)), 1, 0)
            assert abs(np.linalg.norm(h) - 1) < 1e-12

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError, match="zero coordinate pair"):
            numeric.moment_map(((0, 0), (1, 3)), 2, 1)

    @pytest.mark.parametrize("a, c, message", [
        (1e-200, 0, "underflows to 0"),
        (10.0 ** 200, 1, "overflows"),
        (complex(1e308, 1e308), 0, "overflows"),
    ])
    def test_pair_out_of_float_range_rejected(self, a, c, message):
        with pytest.raises(ValueError, match=message):
            numeric.moment_map(((a, c), (1, 3)), 2, 1)

    @pytest.mark.parametrize("a, c", [
        (float("nan"), 1),
        (1, complex(0, float("nan"))),
        (complex(float("nan"), float("inf")), 0),
    ], ids=str)
    def test_nan_pair_rejected(self, a, c):
        with pytest.raises(ValueError, match="finite"):
            numeric.moment_map(((a, c), (1, 3)), 2, 1)
        with pytest.raises(ValueError, match="finite"):
            numeric.moment_map(((1, 3), (a, c)), 2, 1)

    @pytest.mark.parametrize("lam1, lam2", [(10 ** 400, 1), (1, 10 ** 400), (-10 ** 400, 1),
                                            (math.inf, 1), (1, -math.inf)],
                             ids=["lam1", "lam2", "negative", "inf", "-inf"])
    def test_weight_beyond_a_float_rejected(self, monkeypatch, lam1, lam2):
        monkeypatch.setattr(numeric, "_check_base", None)  # no work may start
        with pytest.raises(ValueError, match="^a weight is beyond the float range$"):
            numeric.moment_map(((0, 1), (1, 1)), lam1, lam2)

    @pytest.mark.parametrize("lam1, lam2", [(math.nan, 1), (1, math.nan), (np.nan, 10 ** 400)],
                             ids=["lam1", "lam2", "before-a-large-weight"])
    def test_nan_weight_rejected(self, monkeypatch, lam1, lam2):
        monkeypatch.setattr(numeric, "_check_base", None)  # no work may start
        with pytest.raises(ValueError, match="^a weight is nan$"):
            numeric.moment_map(((0, 1), (1, 1)), lam1, lam2)

    def test_identity_element_reproduces_value(self):
        x = REPS[OrbitClass.DENSE]
        (a1, c1), (a2, c2) = numeric._check_base(x)[0]
        ident = np.eye(2, dtype=complex)
        moved = ((ident[0, 0] * a1, ident[1, 1] * c1), (a2, c2))
        assert np.allclose(numeric.moment_map(moved, 2, 1),
                           numeric.moment_map(x, 2, 1), atol=0)

    def test_equals_the_sampler_bit_for_bit(self):
        # one Hopf formula: the moment value of a sampled point is its sampled phi
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "B", 200, 4, 3, 2)
        for row, phi in zip(samples.coords, samples.phis):
            got = numeric.moment_map(((row[0], row[1]), (row[2], row[3])), 3, 2)
            assert _bits(got).tolist() == _bits(phi).tolist()

    def test_real_points_have_no_fixed_axis_component(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 1000, 5, 2, 1)
        assert np.abs(samples.phis[:, numeric.KSTAR_AXIS]).max() < 1e-9


class TestSampleOrbit:
    def test_determinism_bit_for_bit(self):
        a = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 500, 7, 2, 1)
        b = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 500, 7, 2, 1)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.phis, b.phis)

    def test_same_seed_gives_equal_sets(self):
        x = REPS[OrbitClass.DENSE]
        a = numeric.sample_orbit(x, "H", 10, 0)
        assert a == numeric.sample_orbit(x, "H", 10, 0)
        assert a != numeric.sample_orbit(x, "H", 10, 1)
        with pytest.raises(TypeError):
            hash(a)

    def test_real_group_preserves_real_points(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 1000, 1, 2, 1)
        assert np.abs(samples.coords.imag).max() == 0.0

    def test_special_unitary_pairs_have_unit_factors(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "G", 200, 2, 2, 1)
        assert samples.phis.shape == (200, 3)
        norms1 = np.abs(samples.coords[:, 0]) ** 2 + np.abs(samples.coords[:, 1]) ** 2
        assert np.allclose(norms1, 1.0, atol=1e-12)  # unitary images of a unit vector

    @pytest.mark.parametrize("lams, message", [
        ((10 ** 400, 1), "beyond the float range"), ((2, 10 ** 309), "beyond the float range"),
        ((-math.inf, 1), "beyond the float range"), ((2, math.nan), "nan"),
    ], ids=["lam1", "lam2", "-inf", "nan"])
    def test_weight_beyond_float_refused_before_drawing(self, monkeypatch, lams, message):
        def no_draw(*args):
            raise AssertionError("drew matrices for a refused weight")
        monkeypatch.setattr(numeric, "_draw_matrices", no_draw)
        with pytest.raises(ValueError, match=f"^a weight is {message}$"):
            numeric.sample_orbit(REPS[OrbitClass.DENSE], "B", 10, 0, *lams)

    def test_unknown_subgroup(self):
        with pytest.raises(ValueError):
            numeric.sample_orbit(REPS[OrbitClass.DENSE], "Q", 10, 0)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 0, 0)

    @pytest.mark.parametrize("point, message", [
        (((0j, 0j), (1, 0j)), "zero coordinate pair"),
        (((1, 2), (-0.0, 0j)), "zero coordinate pair"),
        (((float("inf"), 1), (1, 0)), "finite"),
        (((1, 1), (complex(1, float("nan")), 1)), "finite"),
        (((float("nan"), float("nan")), (1, 0)), "finite"),
        (((1e-200, 0), (1, 1)), "underflows to 0"),
        (((1, 1), (10.0 ** 200, 1)), "overflows"),
        (FlagPoint.real(10 ** 400, 1, 1, 1), "a coordinate is beyond the float range"),
        (FlagPoint.real(1, 1, 2, F(-(10 ** 400), 3)), "a coordinate is beyond the float range"),
        (FlagPoint.real(F(1, 10 ** 400), 0, 1, 1), r"pair \(0j, 0j\) underflows to 0"),
    ])
    def test_bad_base_point_refused_before_drawing(self, monkeypatch, point, message):
        def no_draw(*args):
            raise AssertionError("drew matrices for a refused base point")
        monkeypatch.setattr(numeric, "_draw_matrices", no_draw)
        with pytest.raises(ValueError, match=message):
            numeric.sample_orbit(point, "B", 10, 0)

    @pytest.mark.parametrize("subgroup", ["B", "H"])
    def test_draw_scaled_out_of_float_range_refused(self, subgroup):
        # |a|^2 = 1e306 is finite, but a drawn diagonal entry up to e^3 overflows it
        with pytest.raises(ValueError, match="leaves the float range"):
            numeric.sample_orbit(((1e153, 1), (1, 1)), subgroup, 1000, 0)

    def test_pair_near_underflow_still_samples(self):
        samples = numeric.sample_orbit(((1e-160, 0), (1, 1)), "H", 100, 0)
        assert np.isfinite(samples.phis).all()


def _exact_fma(a, b, c):
    """a * b + c rounded once to nearest, through exact rational arithmetic."""
    exact = F(a) * F(b) + F(c)
    if exact == 0 and a * b == 0 == c:  # a zero sum of zeros: the floats carry its sign
        return a * b + c
    return float(exact)


@functools.lru_cache(maxsize=None)
def _exact_real_group_draw(seed, n):
    """The G' elements k @ an of the seeded draw as an (n, 2, 2) stack.

    Entry (i, j) is fma(k_i1, an_1j, round(k_i0 * an_0j)), the product an
    FMA kernel computes, taken here from exact rational arithmetic so that it
    does not depend on the host's BLAS.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, n)
    t = rng.uniform(-2, 2, n)
    s = np.tan(rng.uniform(-1.5, 1.5, n)).tolist()
    cos, sin, alpha = np.cos(theta).tolist(), np.sin(theta).tolist(), np.exp(t).tolist()
    g = np.zeros((n, 2, 2), dtype=complex)
    for m in range(n):
        k = ((cos[m], sin[m]), (-sin[m], cos[m]))
        an = ((alpha[m], alpha[m] * s[m]), (0.0, 1 / alpha[m]))
        for i in range(2):
            for j in range(2):
                g[m, i, j] = _exact_fma(k[i][1], an[1][j], k[i][0] * an[0][j])
    return g


def _reference_sample_orbit(x, subgroup, n, seed, lam1, lam2):
    """The stacked-matmul sampler the entrywise one replaced, with G' drawn
    from exact arithmetic and each ``g @ v`` written out entry by entry, so
    that no BLAS kernel takes part."""
    def upper(alpha, beta):
        g = np.zeros((len(alpha), 2, 2), dtype=complex)
        g[:, 0, 0], g[:, 0, 1], g[:, 1, 1] = alpha, beta, 1 / alpha
        return g

    def haar_su2():
        q = rng.normal(size=(n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        g = np.zeros((n, 2, 2), dtype=complex)
        g[:, 0, 0] = q[:, 0] + 1j * q[:, 1]
        g[:, 0, 1] = q[:, 2] + 1j * q[:, 3]
        g[:, 1, 0] = -q[:, 2] + 1j * q[:, 3]
        g[:, 1, 1] = q[:, 0] - 1j * q[:, 1]
        return g

    def matvec(g, a, c):
        # matmul's order, summed from zero: (0 + g_i0 * a) + g_i1 * c
        return [(0 + g[:, i, 0] * a) + g[:, i, 1] * c for i in range(2)]

    def hopf(a, c):
        n = np.abs(a) ** 2 + np.abs(c) ** 2
        ac = np.conj(a) * c
        return np.stack([-2 * ac.real, -2 * ac.imag,
                         np.abs(c) ** 2 - np.abs(a) ** 2], axis=-1) / n[:, None]

    rng = np.random.default_rng(seed)
    if subgroup == "B":
        alpha = np.exp(rng.uniform(-3, 3, n) + 1j * rng.uniform(-np.pi, np.pi, n))
        beta = np.tan(rng.uniform(-1.55, 1.55, n)) + 1j * np.tan(rng.uniform(-1.55, 1.55, n))
        g1 = g2 = upper(alpha, beta)
    elif subgroup == "H":
        alpha = np.exp(rng.uniform(-3, 3, n)).astype(complex)
        beta = np.tan(rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, n)).astype(complex)
        g1 = g2 = upper(alpha, beta)
    elif subgroup == "G":
        g1, g2 = haar_su2(), haar_su2()
    else:
        g1 = g2 = _exact_real_group_draw(seed, n)
    (a1, c1), (a2, c2) = numeric._check_base(x)[0]
    coords = np.stack([*matvec(g1, a1, c1), *matvec(g2, a2, c2)], axis=1)
    phis = lam1 * hopf(coords[:, 0], coords[:, 1]) + lam2 * hopf(coords[:, 2], coords[:, 3])
    return coords, phis


def _bits(a):
    """The raw bits of a float or complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


_BIT_BASES = {
    **{cls.value: x for cls, x in REPS.items()},
    "complex": ((0.3 - 1.2j, -0.7 + 0.4j), (1.5 + 0.25j, -2.0 - 0.5j)),
    "complex-small": ((1e-3 + 2e-3j, 1 - 1j), (-4j, 3 + 0j)),
    "neg-zero-real": ((-0.0, 1.0), (1.0, -0.0)),
    "neg-zero-both": ((-1.0, -0.0), (-0.0, -2.0)),
    "neg-zero-imag": ((complex(-0.0, -0.0), complex(1, -0.0)),
                      (complex(-2, 0.0), complex(-0.0, 1))),
}


@pytest.mark.parametrize("subgroup", SUBGROUPS)
@pytest.mark.parametrize("base", list(_BIT_BASES))
def test_sampler_matches_stacked_matmul_bit_for_bit(subgroup, base):
    x = _BIT_BASES[base]
    for seed, lam1, lam2 in ((0, 2, 1), (7, 3, 1), (401, 1, 1), (2024, 1, 4)):
        samples = numeric.sample_orbit(x, subgroup, 2000, seed, lam1, lam2)
        coords, phis = _reference_sample_orbit(x, subgroup, 2000, seed, lam1, lam2)
        assert np.array_equal(_bits(samples.coords), _bits(coords))
        assert np.array_equal(_bits(samples.phis), _bits(phis))
        assert np.array_equal(_bits(samples.norms), _bits(np.linalg.norm(phis, axis=1)))


def _fma_triples():
    """Random triples of wide range, a third cancelling a * b to a few ulps,
    and triples whose exact value sits at or just beside a rounding tie."""
    rng = np.random.default_rng(16)
    n = 3000
    a, b, c = (rng.normal(size=n) * 2.0 ** rng.integers(-30, 31, n) for _ in range(3))
    near = slice(0, n, 3)
    c[near] = -(a[near] * b[near]) * (1 + rng.integers(-4, 5, len(c[near])) * 2.0 ** -52)
    triples = list(zip(a.tolist(), b.tolist(), c.tolist()))
    for m in rng.integers(0, 2 ** 52, 40).tolist():
        scale = 2.0 ** int(rng.integers(-20, 21))
        for sign in (1, -1):
            base = sign * scale * (1 + m * 2.0 ** -52)
            half_ulp = sign * scale * 2.0 ** -53
            triples.append((half_ulp, 1.0, base))  # an exact tie
            for d in (2.0 ** -30, 2.0 ** -26, 2.0 ** -20):
                triples.append((half_ulp * (1 + d), 1 - d, base))  # just below a tie
                triples.append((half_ulp * (1 + d), 1 + d, base))  # just above
    return triples


@pytest.mark.parametrize("a, b, c", [
    (3.0, 5.0, -15.0),     # exact cancellation: +0
    (-3.0, 5.0, 15.0),
    (0.0, -2.0, -0.0),     # a zero product: -0 + -0 is -0
    (-0.0, -2.0, -0.0),
    (0.0, 2.0, -0.0),
    (-0.0, 2.0, 5.5),
    (0.0, 7.0, 0.0),
])
def test_fma_signed_zeros(a, b, c):
    got = numeric._fma(np.array([a]), np.array([b]), np.array([c]))
    assert _bits(got) == _bits(np.array([_exact_fma(a, b, c)]))


def test_fma_matches_exact_arithmetic():
    a, b, c = map(np.array, zip(*_fma_triples()))
    want = np.array([_exact_fma(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())])
    assert np.array_equal(_bits(numeric._fma(a, b, c)), _bits(want))


def test_norms_are_computed_once(monkeypatch):
    samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "B", 1000, 3, 2, 1)
    first = samples.norms
    monkeypatch.setattr(np.linalg, "norm", None)  # any second computation would fail
    numeric.sampled_delta(samples, "radial")
    numeric.sampled_delta(samples, "angular", 0.05)
    numeric.write_samples_csv(samples, io.StringIO())
    assert samples.norms is first


_rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
_nonzero_rationals = st.builds(F, st.integers(1, 50) | st.integers(-50, -1),
                               st.integers(1, 20))


@st.composite
def _real_points(draw):
    """Real flag points of every orbit class."""
    a1, a2 = draw(_rationals), draw(_rationals)
    c1, c2 = draw(_nonzero_rationals), draw(_nonzero_rationals)
    shape = draw(st.sampled_from(["free", "diagonal", "first", "second", "point"]))
    if shape == "diagonal":
        a2, c2 = a1 * c2 / c1, c2
    if shape in ("first", "point"):
        a2, c2 = draw(_nonzero_rationals), F(0)
    if shape in ("second", "point"):
        a1, c1 = draw(_nonzero_rationals), F(0)
    return FlagPoint.real(a1, c1, a2, c2)


@given(_real_points(), st.sampled_from(SUBGROUPS), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
@settings(deadline=None, max_examples=24)
def test_sampled_images_lie_in_the_exact_polytope(x, subgroup, lam1, lam2, seed):
    """The tolerances of check_sampled_agreement, for all four subgroups."""
    samples = numeric.sample_orbit(x, subgroup, 20_000, seed, lam1, lam2)
    lo, hi = numeric.sampled_delta(samples, "radial")
    assert abs(lam1 - lam2) - 0.02 <= lo <= hi <= lam1 + lam2 + 0.02
    if subgroup in ("B", "H"):  # both keep the orbit closure and its real form
        cut = numeric.sampled_delta(samples, "angular", 0.05)
        exact = real_moment_polytope(RealFormCase(x, negation_involution()), lam1, lam2)
        if cut is not None:
            assert not exact.is_empty
            assert float(min(exact.vertices)) - 0.05 <= cut[0]
            assert cut[1] <= float(max(exact.vertices)) + 0.05


class TestSampledDelta:
    def test_dense_radial(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 10_000, 0, 2, 1)
        lo, hi = numeric.sampled_delta(samples, "radial")
        assert abs(lo - 1) < 0.02 and abs(hi - 3) < 0.02

    def test_diagonal_radial(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DIAGONAL], "H", 10_000, 0, 2, 1)
        lo, hi = numeric.sampled_delta(samples, "radial")
        assert abs(lo - 3) < 0.02 and abs(hi - 3) < 0.02

    def test_first_factor_angular(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.FIRST_FACTOR], "H", 100_000, 0, 3, 1)
        interval = numeric.sampled_delta(samples, "angular", 0.05)
        assert interval is not None
        assert abs(interval[0] - 2) < 0.05 and abs(interval[1] - 2) < 0.05

    def test_angular_empty_for_point_class(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.POINT], "H", 100, 0, 2, 1)
        assert numeric.sampled_delta(samples, "angular", 0.05) is None

    def test_angular_empty_for_antidominant_factor(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.SECOND_FACTOR], "H", 10_000, 0, 3, 1)
        assert numeric.sampled_delta(samples, "angular", 0.05) is None

    def test_containment_in_exact_polytope(self):
        from mplab.orbits import RealFormCase, real_moment_polytope
        from mplab.weights import negation_involution
        neg = negation_involution()
        for cls, mode in ((OrbitClass.DENSE, "radial"), (OrbitClass.DIAGONAL, "radial"),
                          (OrbitClass.FIRST_FACTOR, "angular"),
                          (OrbitClass.SECOND_FACTOR, "angular"),
                          (OrbitClass.POINT, "angular")):
            samples = numeric.sample_orbit(REPS[cls], "H", 20_000, 3, 2, 1)
            interval = numeric.sampled_delta(samples, mode, 0.05)
            exact = real_moment_polytope(RealFormCase(REPS[cls], neg), 2, 1)
            if exact.is_empty:
                assert interval is None
            else:
                lo = float(min(exact.vertices)) - 0.02
                hi = float(max(exact.vertices)) + 0.02
                assert interval is not None
                assert lo <= interval[0] <= interval[1] <= hi

    def test_bad_mode(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 10, 0)
        with pytest.raises(ValueError):
            numeric.sampled_delta(samples, "sideways")

    def test_full_group_orbit_covers_annulus(self):
        # the calibration contract: sampling the whole product group sweeps
        # the annulus between |l1 - l2| and l1 + l2
        samples = numeric.sample_orbit(REPS[OrbitClass.DIAGONAL], "G", 100_000, 4, 2, 1)
        lo, hi = numeric.sampled_delta(samples, "radial")
        assert abs(lo - 1) < 0.02 and abs(hi - 3) < 0.02


class TestSampledAgreementCheck:
    """The sampled-agreement check reads its expected intervals from
    ``moment_polytope``, so a wrong exact side fails it."""

    @pytest.mark.parametrize("exact, failures", [
        (hull([0, 3]), "dense radial off; diagonal radial off; first-factor angular off"),
        (hull([2]), "dense radial off; diagonal radial off"),
        (RationalPolytope.empty(), "dense radial off; diagonal radial off; "
                                   "first-factor angular off"),
    ], ids=["segment", "point", "empty"])
    def test_wrong_exact_polytope_fails(self, monkeypatch, exact, failures):
        monkeypatch.setattr(checks, "moment_polytope", lambda x, lam1, lam2: exact)
        result = checks.check_sampled_agreement(0)
        assert not result.passed
        assert result.detail.endswith("; " + failures)

    def test_reads_the_exact_polytope_of_each_row(self, monkeypatch):
        calls = []

        def recording(x, lam1, lam2):
            calls.append((classify_borel_orbit_closure(x), lam1, lam2))
            return moment_polytope(x, lam1, lam2)

        monkeypatch.setattr(checks, "moment_polytope", recording)
        assert checks.check_sampled_agreement(0).passed
        assert calls == [(OrbitClass.DENSE, 2, 1), (OrbitClass.DIAGONAL, 2, 1),
                         (OrbitClass.FIRST_FACTOR, 3, 1)]


class TestCoadjointFixedCheck:
    def test_zero_radius(self):
        assert numeric.coadjoint_fixed_check(0, 100, 0) == 0.0

    def test_matching_circles(self):
        assert numeric.coadjoint_fixed_check(2, 10_000, 0) < 0.05

    def test_negative_control(self):
        assert numeric.coadjoint_fixed_check(1, 10_000, 0, plane="k") > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            numeric.coadjoint_fixed_check(1, 0, 0)
        with pytest.raises(ValueError):
            numeric.coadjoint_fixed_check(1, 10, 0, plane="x")

    def test_largest_radius_accepted(self):
        lam = numeric.COADJOINT_MAX_RADIUS
        dist = numeric.coadjoint_fixed_check(lam, 10_000, 0)
        assert np.isfinite(dist) and dist < 0.05 * lam

    @pytest.mark.parametrize("lam", [np.nextafter(numeric.COADJOINT_MAX_RADIUS, np.inf),
                                     1e200, np.inf, -np.inf, np.nan, -1, -5e-324])
    def test_radius_out_of_range_refused_before_drawing(self, monkeypatch, lam):
        def no_draw(*args):
            raise AssertionError("drew points for a refused radius")
        monkeypatch.setattr(numeric.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="lam must be a radius"):
            numeric.coadjoint_fixed_check(lam, 100, 0)


def _reference_hausdorff(a, b):
    """Two trees over the clouds as given, duplicates and all."""
    from scipy.spatial import cKDTree
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


class TestHausdorffDistance:
    def test_distinct_clouds(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2000, 3)), rng.normal(size=(1500, 3))
        assert numeric.hausdorff_distance(a, b) == _reference_hausdorff(a, b)

    def test_duplicated_clouds(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 3))[rng.integers(0, 40, 3000)]
        b = rng.normal(size=(25, 3))[rng.integers(0, 25, 2000)]
        assert numeric.hausdorff_distance(a, b) == _reference_hausdorff(a, b)

    def test_equidistant_two_point_control(self):
        # every orbit point is sqrt(2) from both cut points, so no tree pruning
        signs = np.where(np.arange(2000) % 2 == 0, 1.0, -1.0)
        cut = np.stack([np.zeros(2000), signs, np.zeros(2000)], axis=1)
        th = np.random.default_rng(13).uniform(0, 2 * np.pi, 2000)
        orbit = np.stack([np.cos(th), np.zeros(2000), np.sin(th)], axis=1)
        assert numeric.hausdorff_distance(cut, orbit) == _reference_hausdorff(cut, orbit)

    def test_rejects_flat_arrays(self):
        with pytest.raises(ValueError, match="shape"):
            numeric.hausdorff_distance(np.arange(5.0), np.arange(3.0))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("change", ["none", "permuted", "duplicated"])
    @pytest.mark.parametrize("shape", ["curve", "shell"])
    def test_row_order_duplicates_and_layout_keep_the_distance(self, shape, change, layout):
        a, b = _layout_clouds(shape)
        want = _reference_hausdorff(a, b)
        rng = np.random.default_rng(24)
        moved = []
        for cloud in (a, b):
            n = len(cloud)
            if change == "permuted":
                cloud = cloud[rng.permutation(n)]
            elif change == "duplicated":
                cloud = cloud[rng.permutation(np.r_[np.arange(n), rng.integers(0, n, n // 3)])]
            moved.append(_laid_out(cloud, layout))
        assert numeric.hausdorff_distance(*moved) == want


@functools.lru_cache(maxsize=None)
def _layout_clouds(shape):
    """Two clouds the sweep serves (coadjoint curves) or hands to the tree (shells)."""
    if shape == "curve":
        return _reference_coadjoint_clouds(2, 3000, 9, "q")
    return _shell(3), _shell(103)


def _laid_out(cloud, layout):
    """The cloud as a C-ordered, an F-ordered or a non-contiguous array."""
    if layout == "C":
        return np.ascontiguousarray(cloud)
    if layout == "F":
        return np.asfortranarray(cloud)
    wide = np.zeros((2 * len(cloud), 2 * cloud.shape[1]))
    wide[::2, ::2] = cloud
    return wide[::2, ::2]


def _reference_coadjoint_clouds(lam, n, seed, plane):
    """The clouds of coadjoint_fixed_check from a per-element loop.

    The orbit point is u (i h sigma3) u^* with u = [[cos, sin], [-sin, cos]]
    and h = lam/2.  The first row of u (i h sigma3) has the imaginary parts
    (a, b) = (cos h, -sin h), and each entry of the product with u^* is the
    exact rational fma of its second product over its rounded first, as an
    FMA matmul kernel rounds it.
    """
    rng = np.random.default_rng(seed)
    if plane == "q":
        th = rng.uniform(0, 2 * np.pi, n)
        cut = np.stack([lam * np.cos(th), np.zeros(n), lam * np.sin(th)], axis=1)
    else:
        cut = np.array([[0.0, lam, 0.0], [0.0, -lam, 0.0]])
    psi = rng.uniform(0, 2 * np.pi, n)
    h = lam / 2
    orbit = np.zeros((n, 3))
    for i, (cos, sin) in enumerate(zip(np.cos(psi).tolist(), np.sin(psi).tolist())):
        a, b = cos * h, -sin * h
        orbit[i, 0] = 2 * _exact_fma(b, cos, a * -sin)  # 2 Im xi_01
        orbit[i, 2] = 2 * _exact_fma(b, sin, a * cos)   # 2 Im xi_00
    return cut, orbit


def _checked_clouds(monkeypatch, *args):
    """coadjoint_fixed_check(*args) and the two clouds it hands to hausdorff_distance."""
    seen = []
    hausdorff = numeric.hausdorff_distance

    def recording_hausdorff(a, b):
        seen.append((a, b))
        return hausdorff(a, b)

    monkeypatch.setattr(numeric, "hausdorff_distance", recording_hausdorff)
    dist = numeric.coadjoint_fixed_check(*args)
    return (dist, *seen[0])


@pytest.mark.parametrize("lam,seed,plane", [(1, 0, "q"), (2, 1, "q"), (3, 7, "q"),
                                            (2, 401, "q"), (1, 0, "k"), (1, 401, "k")])
def test_coadjoint_orbit_matches_loop_bit_for_bit(monkeypatch, lam, seed, plane):
    dist, got_cut, got_orbit = _checked_clouds(monkeypatch, lam, 2000, seed, plane)
    cut, orbit = _reference_coadjoint_clouds(lam, 2000, seed, plane)
    assert np.array_equal(_bits(got_cut), _bits(cut))
    assert np.array_equal(_bits(got_orbit[:, [0, 2]]), _bits(orbit[:, [0, 2]]))
    assert np.array_equal(_bits(got_orbit[:, 1]), _bits(np.zeros(2000)))  # +0.0 throughout
    # a genuine conjugation: u (i h sigma3) u^* sits at lam (-sin 2psi, 0, cos 2psi)
    rng = np.random.default_rng(seed)
    if plane == "q":
        rng.uniform(0, 2 * np.pi, 2000)  # the cut's angles come first
    psi = rng.uniform(0, 2 * np.pi, 2000)
    circle = lam * np.stack([-np.sin(2 * psi), np.zeros(2000), np.cos(2 * psi)], axis=1)
    assert np.abs(got_orbit - circle).max() < 1e-14
    assert dist == _reference_hausdorff(cut, orbit)


@pytest.mark.parametrize("lam", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 401])
def test_control_equals_the_alternating_n_row_cut(monkeypatch, lam, n, seed):
    """The two-point k-axis cut gives the distance of the n-row cut that
    alternates its two points, as a tree over that cut computes it."""
    from scipy.spatial import cKDTree
    dist, got_cut, orbit = _checked_clouds(monkeypatch, lam, n, seed, "k")
    # the orbit is checked against a loop above
    assert np.array_equal(got_cut, [[0, lam, 0], [0, -lam, 0]])
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cut = np.stack([np.zeros(n), signs * lam, np.zeros(n)], axis=1)
    # The orbit tree answers a repeated query alike, so it is asked once per
    # distinct cut point: every orbit point is equidistant from both, and
    # 10 000 such queries prune nothing.
    assert dist == float(max(cKDTree(orbit).query(cut[:2])[0].max(),
                             cKDTree(cut).query(orbit)[0].max()))


@pytest.mark.parametrize("suite", ["coadjoint", "gradcheck"])
def test_coadjoint_report_does_not_depend_on_the_blas_kernel(suite):
    env = {key: value for key, value in os.environ.items() if key != "MPLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    reports = []
    for coretype in ("Haswell", "Prescott"):
        p = subprocess.run([sys.executable, "-m", "mplab", "verify", "--suite", suite,
                            "--seed", "0"], env={**env, "OPENBLAS_CORETYPE": coretype},
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        reports.append(p.stdout)
    assert reports[0] == reports[1]


def _sweep(a, b):
    """The sweep alone: no probe and no hand-over to cKDTree."""
    floor = numeric._sweep_max_sq(a, *numeric._sorted_along_spread(b), -np.inf)
    return float(np.sqrt(numeric._sweep_max_sq(b, *numeric._sorted_along_spread(a), floor)))


@pytest.fixture
def tree_builds(monkeypatch):
    """Count the cKDTree builds hausdorff_distance makes."""
    import scipy.spatial
    builds = []
    tree = scipy.spatial.cKDTree

    def counting_tree(data):
        builds.append(len(data))
        return tree(data)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counting_tree)
    return builds


def _shell(seed):
    # the G-orbit image of the dense point fills the shell 1 <= |Phi| <= 3
    return numeric.sample_orbit(REPS[OrbitClass.DENSE], "G", 10_000, seed, 2, 1).phis


class TestHausdorffSweep:
    """The sweep equals the cKDTree reference bit for bit, on every cloud shape."""

    @pytest.mark.parametrize("lam,seed,plane", [(1, 0, "q"), (2, 1, "q"), (3, 7, "q"),
                                                (2, 1601, "q"), (1, 0, "k"), (3, 401, "k")])
    def test_coadjoint_clouds_are_swept(self, tree_builds, lam, seed, plane):
        cut, orbit = _reference_coadjoint_clouds(lam, 10_000, seed, plane)
        want = _reference_hausdorff(cut, orbit)
        tree_builds.clear()
        assert numeric.hausdorff_distance(cut, orbit) == want
        assert tree_builds == []
        assert _sweep(cut, orbit) == want

    def test_shell_is_handed_to_the_tree(self, tree_builds):
        a, b = _shell(3), _shell(103)
        want = _reference_hausdorff(a, b)
        tree_builds.clear()
        assert numeric.hausdorff_distance(a, b) == want
        assert tree_builds == [10_000, 10_000]
        assert _sweep(a, b) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plane_clouds(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(3000, 2)), rng.uniform(-2, 2, size=(2000, 2))
        want = _reference_hausdorff(a, b)
        assert _sweep(a, b) == want
        assert numeric.hausdorff_distance(a, b) == want

    def test_plane_curve_samples_are_swept(self, tree_builds):
        th = np.random.default_rng(5).uniform(0, 2 * np.pi, (2, 4000))
        a = np.stack([np.cos(th[0]), np.sin(th[0])], axis=1)
        b = np.stack([np.cos(th[1]), np.sin(th[1])], axis=1)
        want = _reference_hausdorff(a, b)
        tree_builds.clear()
        assert numeric.hausdorff_distance(a, b) == want
        assert tree_builds == []

    @pytest.mark.parametrize("levels", [1, 2, 5, 40])
    def test_many_equal_coordinates_along_the_sort_axis(self, levels):
        rng = np.random.default_rng(levels)
        a, b = (np.column_stack([10.0 * rng.integers(0, levels, n),
                                 rng.normal(size=n), 0.5 * rng.normal(size=n)])
                for n in (1500, 1000))
        want = _reference_hausdorff(a, b)
        assert _sweep(a, b) == want
        assert numeric.hausdorff_distance(a, b) == want

    def test_integer_grid(self):
        grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0), np.arange(3.0)),
                        axis=-1).reshape(-1, 3)
        shifted = grid[::7] + 0.25
        assert _sweep(grid, shifted) == _reference_hausdorff(grid, shifted)
        assert numeric.hausdorff_distance(grid, shifted) == _reference_hausdorff(grid, shifted)

    def test_one_point_clouds(self):
        rng = np.random.default_rng(21)
        one, cloud = rng.normal(size=(1, 3)), rng.normal(size=(500, 3))
        for a, b in ((one, cloud), (cloud, one), (one, one), (one, one + 1)):
            assert _sweep(a, b) == _reference_hausdorff(a, b)
            assert numeric.hausdorff_distance(a, b) == _reference_hausdorff(a, b)

    def test_duplicated_points(self):
        rng = np.random.default_rng(22)
        point = rng.normal(size=(1, 3))
        a = np.repeat(point, 700, axis=0)
        b = rng.normal(size=(30, 3))[rng.integers(0, 30, 900)]
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert _sweep(x, y) == _reference_hausdorff(x, y)
            assert numeric.hausdorff_distance(x, y) == _reference_hausdorff(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(400, 3)), rng.normal(size=(300, 3))
        a[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            numeric.hausdorff_distance(a, b)
        with pytest.raises(ValueError, match="finite"):
            numeric.hausdorff_distance(b, a)

    @staticmethod
    def overflow_bound(d):
        return math.sqrt(sys.float_info.max / (4 * d)) * (1 - (d + 2) * sys.float_info.epsilon)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_coordinates_at_the_overflow_bound(self, d):
        bound = self.overflow_bound(d)
        a, b = np.zeros((1, d)), np.zeros((1, d))
        a[0, 0], b[0, 0] = bound, -bound
        assert numeric.hausdorff_distance(a, b) == 2 * bound
        # every squared difference at its largest still sums to a finite float
        assert math.isfinite(numeric.hausdorff_distance(np.full((1, d), bound),
                                                        np.full((1, d), -bound)))
        over = np.nextafter(bound, math.inf)
        for x, y in ((a, b), (b, a)):
            y = y.copy()
            y[0, d - 1] = -over
            with pytest.raises(ValueError, match=rf"^a point cloud coordinate exceeds "
                                                 rf"{re.escape(str(bound))} .* {d} can overflow$"):
                numeric.hausdorff_distance(x, y)

    def test_overflowing_clouds_refused(self):
        assert self.overflow_bound(3) == pytest.approx(3.87e153, rel=1e-3)
        with pytest.raises(ValueError, match="exceeds"):
            numeric.hausdorff_distance([[1e200, 0, 0]], [[-1e200, 0, 0]])

    def test_empty_and_mismatched_clouds_rejected(self):
        for empty in (np.empty((0, 3)), np.ones((2, 0))):
            with pytest.raises(ValueError, match="shape"):
                numeric.hausdorff_distance(empty, np.ones((2, 3)))
        with pytest.raises(ValueError):
            numeric.hausdorff_distance(np.ones((2, 3)), np.ones((2, 2)))


class TestClosedFormFlow:
    @pytest.mark.parametrize("seed", [0, 1, 7, 401, 1601])
    def test_gradient_check_matches_the_expm_path(self, monkeypatch, seed):
        import scipy.linalg
        pade = checks.check_gradient_identity(seed)
        monkeypatch.setattr(numeric, "_flow_matrix", scipy.linalg.expm)
        assert checks.check_gradient_identity(seed) == pade

    def test_closed_form_matches_expm(self):
        import scipy.linalg
        rng = np.random.default_rng(31)
        for norm in np.geomspace(1e-8, 300, 2000):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            xi = np.array([[x[0], x[1]], [0, -x[0]]])
            a = xi * (norm / np.abs(xi).sum(axis=0).max())
            g, want = numeric._flow_matrix(a), scipy.linalg.expm(a)
            assert g[1, 0] == 0
            assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()


class TestGradientIdentity:
    def test_zero_direction_zero_residual(self):
        kappa = numeric.calibrate_gradient_normalization()
        spec = SectionSpaceSpec(1, 2, 1)
        xi = np.zeros((2, 2), dtype=complex)
        res = numeric.gradient_identity_residual(((1, 2), (1, 3)), xi, spec, 0, kappa)
        assert res < 1e-12

    def test_torus_fixed_point_closed_form(self):
        # at ((0:1),(0:1)) the section of top weight is nonzero and the whole
        # identity collapses to 0 = 0 for real-diagonal directions
        kappa = numeric.calibrate_gradient_normalization()
        spec = SectionSpaceSpec(1, 2, 1)
        xi = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        res = numeric.gradient_identity_residual(((0, 1), (0, 1)), xi, spec, 0, kappa)
        assert res < 1e-5

    def test_vanishing_section_rejected(self):
        # the top-weight section vanishes where both factors sit at the
        # Borel-fixed point, so the residual is undefined there
        kappa = numeric.calibrate_gradient_normalization()
        spec = SectionSpaceSpec(1, 2, 1)
        xi = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        with pytest.raises(ValueError, match="vanishes"):
            numeric.gradient_identity_residual(((1, 0), (1, 0)), xi, spec, 0, kappa)

    @pytest.mark.parametrize("point", [FlagPoint.real(F(1, 3), 2, -1, 3),
                                       ((0.3 - 1.2j, -0.7 + 0.4j), (1.5 + 0.25j, -2 - 0.5j))],
                             ids=["exact", "complex"])
    def test_the_point_is_converted_and_checked_once_per_residual(self, monkeypatch, point):
        # the two points moved along the flow are new points, checked on their own
        kappa = numeric.calibrate_gradient_normalization()
        xi = np.array([[0.5, 1 - 2j], [0, -0.5]], dtype=complex)
        spec = SectionSpaceSpec(2, 2, 1)
        want = numeric.gradient_identity_residual(point, xi, spec, 1, kappa)
        genuine, checked = numeric._check_base, []

        def recording(p):
            checked.append(p)
            return genuine(p)

        monkeypatch.setattr(numeric, "_check_base", recording)
        assert numeric.gradient_identity_residual(point, xi, spec, 1, kappa) == want
        assert [p is point for p in checked] == [True, False, False]

    def test_non_borel_direction_rejected(self):
        kappa = numeric.calibrate_gradient_normalization()
        spec = SectionSpaceSpec(1, 2, 1)
        xi = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="upper triangular"):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), xi, spec, 0, kappa)

    @pytest.mark.parametrize("xi", [[[np.inf, 1], [0, -np.inf]], [[np.nan, 1], [0, 0]]])
    def test_non_finite_direction_rejected(self, monkeypatch, xi):
        kappa = numeric.calibrate_gradient_normalization()
        monkeypatch.setattr(numeric, "_identity_terms", None)  # no work may start
        with pytest.raises(ValueError, match="finite"):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), np.array(xi, dtype=complex),
                                               SectionSpaceSpec(1, 2, 1), 0, kappa)

    @pytest.mark.parametrize("xi", [
        np.zeros((3, 3)),
        np.array([[1, 1, 5], [0, -1, 7], [9, 9, 9]]),  # a Borel top-left block
        np.zeros((2, 3)),
        np.zeros((1, 1)),
        np.zeros(2),
    ], ids=["3x3-zero", "3x3-borel-block", "2x3", "1x1", "1-D"])
    def test_direction_of_wrong_shape_rejected(self, monkeypatch, xi):
        kappa = numeric.calibrate_gradient_normalization()
        monkeypatch.setattr(numeric, "_identity_terms", None)  # no work may start
        with pytest.raises(ValueError, match=re.escape(f"shape {xi.shape}")):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), xi.astype(complex),
                                               SectionSpaceSpec(1, 2, 1), 0, kappa)

    @pytest.mark.parametrize("xi", [[[1, 1], [0, -1]], ((0.5, 2j), (0, -0.5))],
                             ids=["list", "tuple"])
    def test_nested_sequence_direction_equals_the_array(self, xi):
        kappa = numeric.calibrate_gradient_normalization()
        spec = SectionSpaceSpec(1, 2, 1)
        got = numeric.gradient_identity_residual(((1, 2), (1, 3)), xi, spec, 0, kappa)
        for array in (np.array(xi), np.array(xi, dtype=complex)):
            assert numeric.gradient_identity_residual(((1, 2), (1, 3)), array,
                                                      spec, 0, kappa) == got

    @pytest.mark.parametrize("xi", [[["a", 1], [0, -1]], [[1, {}], [0, -1]], [[1, 1], [0]]],
                             ids=["string", "dict", "ragged"])
    def test_direction_that_is_not_numbers_rejected(self, monkeypatch, xi):
        kappa = numeric.calibrate_gradient_normalization()
        monkeypatch.setattr(numeric, "_identity_terms", None)  # no work may start
        with pytest.raises(ValueError, match="^xi must be a matrix of numbers: "):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), xi,
                                               SectionSpaceSpec(1, 2, 1), 0, kappa)

    @pytest.mark.parametrize("r", [1, 2])
    def test_large_finite_direction_still_checked(self, r):
        kappa = numeric.calibrate_gradient_normalization()
        xi = np.array([[1e6, 1], [0, -1e6]], dtype=complex)
        res = numeric.gradient_identity_residual(((1, 2), (1, 3)), xi,
                                                 SectionSpaceSpec(r, 2, 1), 0, kappa)
        assert np.isfinite(res)

    @pytest.mark.parametrize("xi", [
        [[3e7, 1], [0, -3e7]],
        [[1e8, 1], [0, -1e8]],
        [[1e200, 1], [0, -1e200]],
        [[7.09e7, 1], [0, -7.09e7]],  # a finite flow that sends the point out of range
        [[2e6, 1e308], [0, -2e6]],    # a flow with an infinite entry
    ], ids=lambda xi: f"{xi[0][0]:g},{xi[0][1]:g}")
    @pytest.mark.parametrize("r", [1, 2])
    def test_direction_leaving_the_float_range_rejected(self, r, xi):
        kappa = numeric.calibrate_gradient_normalization()
        xi = np.array(xi, dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"the flow of xi = {xi.tolist()}")):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), xi,
                                               SectionSpaceSpec(r, 2, 1), 0, kappa)

    OUT_OF_RANGE_POINTS = [
        ((1e200, 1), (1, 3)),              # |z1|^2 overflows
        ((0, 0), (1, 3)),                  # a zero pair
        ((1e-200, 0), (1, 3)),             # |z1|^2 underflows to 0
        ((float("nan"), 1), (1, 3)),
        ((1, 2), (1, complex("inf"))),
        ((1e77, 1), (1, 3)),               # |z1|^2 is finite, |z1|^4 is not
        ((1e-78, 1e-78), (1e-78, 3e-78)),  # |z1|^4 |z2|^2 underflows to 0
        FlagPoint.real(10 ** 400, 1, 1, 3),  # a coordinate beyond a float
        FlagPoint.real(1, 2, F(10 ** 400, 7), 3),
    ]

    @pytest.mark.parametrize("point", OUT_OF_RANGE_POINTS, ids=lambda p: str(p)[:40])
    def test_point_out_of_range_rejected(self, monkeypatch, point):
        kappa = numeric.calibrate_gradient_normalization()
        monkeypatch.setattr(numeric, "_identity_terms", None)  # no work may start
        xi = np.array([[1, 1], [0, -1]], dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"point {point}: ")):
            numeric.gradient_identity_residual(point, xi, SectionSpaceSpec(1, 2, 1), 0, kappa)

    @pytest.mark.parametrize("point", OUT_OF_RANGE_POINTS, ids=lambda p: str(p)[:40])
    @pytest.mark.parametrize("k", [0, 1])
    def test_section_norm_refuses_point_out_of_range(self, point, k):
        spec = SectionSpaceSpec(1, 2, 1)
        vec = highest_weight_vector(spec, k)
        with pytest.raises(ValueError, match=re.escape(f"point {point}: ")):
            numeric.section_norm_sq(vec, spec, point)

    def test_random_directions_small_residual(self):
        kappa = numeric.calibrate_gradient_normalization()
        rng = np.random.default_rng(9)
        done = 0
        while done < 20:
            r = int(rng.integers(1, 3))
            spec = SectionSpaceSpec(r, 2, 1)
            k = int(rng.integers(0, spec.k_max + 1))
            point = tuple((rng.normal() + 1j * rng.normal(),
                           rng.normal() + 1j * rng.normal()) for _ in range(2))
            xi = np.array([[rng.normal(), rng.normal()], [0.0, 0.0]], dtype=complex)
            xi[1, 1] = -xi[0, 0]
            try:
                res = numeric.gradient_identity_residual(point, xi, spec, k, kappa)
            except ValueError:
                continue
            assert res < 1e-4
            done += 1

    def test_calibration_constant_matches_quarter_inverse_pi(self):
        kappa = numeric.calibrate_gradient_normalization()
        assert abs(kappa - 1 / (4 * np.pi)) < 1e-6


class TestCsv:
    def test_header_and_shape(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 5, 0, 2, 1)
        buf = io.StringIO()
        numeric.write_samples_csv(samples, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(numeric.CSV_COLUMNS)
        assert len(lines) == 6
        row = lines[1].split(",")
        assert len(row) == 12
        float(row[0])  # parses

    @pytest.mark.parametrize("subgroup", SUBGROUPS)
    def test_bytes_match_csv_writer(self, subgroup):
        n = 2 * numeric._CSV_BLOCK_ROWS
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], subgroup, n, 4, 2, 1)
        assert _csv_text(samples) == _reference_csv_text(samples)

    @pytest.mark.parametrize("extra", [-1, 0, 1, numeric._CSV_BLOCK_ROWS + 7],
                             ids=["B-1", "B", "B+1", "2B+7"])
    def test_bytes_match_csv_writer_across_blocks(self, extra):
        n = numeric._CSV_BLOCK_ROWS + extra
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", n, 4, 2, 1)
        assert _csv_text(samples) == _reference_csv_text(samples)

    def test_edge_floats_match_csv_writer(self):
        coords = np.array([[-0.0, 1e-05 - 0.0j, 1e16 + 5e-324j, -5e-324j],
                           [1 + 2j, -0.0 - 0.0j, 0.1, float("inf")]])
        phis = np.array([[-0.0, 1e-05, 1e16], [5e-324, -1e-05, 0.0]])
        samples = numeric.SampleSet(coords=coords, phis=phis)
        text = _csv_text(samples)
        assert text == _reference_csv_text(samples)
        assert "-0.0,1e-05,1e+16" in text and "5e-324" in text

    def test_deterministic_bytes(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 50, 3, 2, 1)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            numeric.write_samples_csv(samples, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestMemory:
    """Peaks traced by tracemalloc, which counts NumPy's buffers: deterministic."""

    def test_sampled_agreement_keeps_one_sample_alive(self):
        one = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 100_000, 0, 2, 1)
        bound = 2 * (one.coords.nbytes + one.phis.nbytes + one.norms.nbytes)
        assert _traced_peak(checks.check_sampled_agreement) < bound

    def test_csv_writer_formats_rows_in_blocks(self, tmp_path):
        # 16 blocks: a writer that turns the whole table into one list peaks
        # at about 9.1 MB here, against a bound of 3.15 MB
        n = 16 * numeric._CSV_BLOCK_ROWS
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", n, 0, 2, 1)
        table_bytes = samples.count * len(numeric.CSV_COLUMNS) * 8
        with open(tmp_path / "samples.csv", "w", newline="") as fh:
            peak = _traced_peak(numeric.write_samples_csv, samples, fh)
        assert peak < 2 * table_bytes


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _csv_text(samples):
    buf = io.StringIO()
    numeric.write_samples_csv(samples, buf)
    return buf.getvalue()


def _reference_csv_text(samples):
    """The csv.writer implementation the table-based writer replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(numeric.CSV_COLUMNS)
    norms = np.linalg.norm(samples.phis, axis=1)
    for i in range(samples.count):
        a1, c1, a2, c2 = samples.coords[i]
        phi = samples.phis[i]
        writer.writerow([repr(float(v)) for v in
                         (a1.real, a1.imag, c1.real, c1.imag,
                          a2.real, a2.imag, c2.real, c2.imag,
                          phi[0], phi[1], phi[2], norms[i])])
    return buf.getvalue()
