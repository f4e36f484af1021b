import csv
import io

import numpy as np
import pytest

from mplab import checks, numeric
from mplab.orbits import OrbitClass, orbit_representatives
from mplab.reps import SectionSpaceSpec

REPS = orbit_representatives()


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
            h = numeric.hopf_vector(a, c)
            assert abs(np.linalg.norm(h) - 1) < 1e-12

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            numeric.hopf_vector(0, 0)

    def test_identity_element_reproduces_value(self):
        x = REPS[OrbitClass.DENSE]
        (a1, c1), (a2, c2) = x.as_complex_pairs()
        ident = np.eye(2, dtype=complex)
        moved = ((ident[0, 0] * a1, ident[1, 1] * c1), (a2, c2))
        assert np.allclose(numeric.moment_map(moved, 2, 1),
                           numeric.moment_map(x, 2, 1), atol=0)

    def test_real_points_have_no_fixed_axis_component(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 1000, 5, 2, 1)
        assert np.abs(samples.phis[:, numeric.KSTAR_AXIS]).max() < 1e-9


class TestSampleOrbit:
    def test_determinism_bit_for_bit(self):
        a = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 500, 7, 2, 1)
        b = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 500, 7, 2, 1)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.phis, b.phis)

    def test_real_group_preserves_real_points(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 1000, 1, 2, 1)
        assert np.abs(samples.coords.imag).max() == 0.0

    def test_special_unitary_pairs_have_unit_factors(self):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], "G", 200, 2, 2, 1)
        assert samples.phis.shape == (200, 3)
        norms1 = np.abs(samples.coords[:, 0]) ** 2 + np.abs(samples.coords[:, 1]) ** 2
        assert np.allclose(norms1, 1.0, atol=1e-12)  # unitary images of a unit vector

    def test_unknown_subgroup(self):
        with pytest.raises(ValueError):
            numeric.sample_orbit(REPS[OrbitClass.DENSE], "Q", 10, 0)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            numeric.sample_orbit(REPS[OrbitClass.DENSE], "H", 0, 0)


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


def _reference_coadjoint_clouds(lam, n, seed, plane):
    """The per-element loop the batched orbit replaced."""
    rng = np.random.default_rng(seed)
    if plane == "q":
        th = rng.uniform(0, 2 * np.pi, n)
        cut = np.stack([lam * np.cos(th), np.zeros(n), lam * np.sin(th)], axis=1)
    else:
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        cut = np.stack([np.zeros(n), signs * lam, np.zeros(n)], axis=1)
    psi = rng.uniform(0, 2 * np.pi, n)
    base = 0.5j * lam * numeric._PAULI[2]
    orbit = np.empty((n, 3))
    for i, p in enumerate(psi):
        u = np.array([[np.cos(p), np.sin(p)], [-np.sin(p), np.cos(p)]], dtype=complex)
        xi = u @ base @ u.conj().T
        orbit[i] = [2 * xi[0, 1].imag, 2 * xi[0, 1].real, 2 * xi[0, 0].imag]
    return cut, orbit


@pytest.mark.parametrize("lam,seed,plane", [(1, 0, "q"), (2, 1, "q"), (3, 7, "q"),
                                            (2, 401, "q"), (1, 0, "k"), (1, 401, "k")])
def test_coadjoint_orbit_matches_loop_bit_for_bit(monkeypatch, lam, seed, plane):
    seen = []
    hausdorff = numeric.hausdorff_distance

    def recording_hausdorff(a, b):
        seen.append((a, b))
        return hausdorff(a, b)

    monkeypatch.setattr(numeric, "hausdorff_distance", recording_hausdorff)
    dist = numeric.coadjoint_fixed_check(lam, 2000, seed, plane)
    cut, orbit = _reference_coadjoint_clouds(lam, 2000, seed, plane)
    assert np.array_equal(seen[0][0], cut)
    assert np.array_equal(seen[0][1], orbit)
    assert dist == _reference_hausdorff(cut, orbit)


def _sweep(a, b):
    """The sweep alone: no probe and no hand-over to cKDTree."""
    a, b = numeric._distinct_rows(a), numeric._distinct_rows(b)
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
        # distinct rows keep the reference's trees small on the control
        want = _reference_hausdorff(np.unique(cut, axis=0), np.unique(orbit, axis=0))
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

    def test_empty_and_mismatched_clouds_rejected(self):
        with pytest.raises(ValueError):
            numeric.hausdorff_distance(np.empty((0, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            numeric.hausdorff_distance(np.ones((2, 3)), np.ones((2, 2)))


@pytest.fixture
def expm_calls(monkeypatch):
    """Record the arguments of every scipy.linalg.expm call."""
    import scipy.linalg
    calls = []
    expm = scipy.linalg.expm

    def recording_expm(a):
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", recording_expm)
    return calls


class TestPadeFlow:
    @pytest.mark.parametrize("seed", [0, 1, 7, 401, 1601])
    def test_gradient_check_matches_the_expm_path(self, monkeypatch, expm_calls, seed):
        pade = checks.check_gradient_identity(seed)
        assert expm_calls == []
        monkeypatch.setattr(numeric, "_PADE3_THETA", -1.0)  # every flow through expm
        assert checks.check_gradient_identity(seed) == pade
        assert expm_calls

    def test_above_theta_goes_through_expm(self, expm_calls):
        import scipy.linalg
        a = np.array([[0.006, 0.01], [0.0, -0.006]], dtype=complex)  # |a|_1 = 0.016
        assert np.abs(a).sum(axis=0).max() > numeric._PADE3_THETA
        assert np.array_equal(numeric._flow_matrix(a), scipy.linalg.expm(a))
        assert len(expm_calls) == 2

    def test_below_theta_is_pade_and_upper_triangular(self, expm_calls):
        import scipy.linalg
        a = np.array([[0.004, 0.01 - 0.002j], [0.0, -0.004]], dtype=complex)
        g = numeric._flow_matrix(a)
        assert expm_calls == []
        assert g[1, 0] == 0
        assert np.allclose(g, scipy.linalg.expm(a), rtol=0, atol=4e-16)


class TestGradientIdentity:
    def test_requires_calibration(self):
        spec = SectionSpaceSpec(1, 2, 1)
        xi = np.zeros((2, 2), dtype=complex)
        with pytest.raises(numeric.NormalizationUncalibratedError):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), xi, spec, 0, None)

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

    def test_non_borel_direction_rejected(self):
        kappa = numeric.calibrate_gradient_normalization()
        spec = SectionSpaceSpec(1, 2, 1)
        xi = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="upper triangular"):
            numeric.gradient_identity_residual(((1, 2), (1, 3)), xi, spec, 0, kappa)

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

    @pytest.mark.parametrize("subgroup", ["B", "H", "G", "G'"])
    def test_bytes_match_csv_writer(self, subgroup):
        samples = numeric.sample_orbit(REPS[OrbitClass.DENSE], subgroup, 500, 4, 2, 1)
        assert _csv_text(samples) == _reference_csv_text(samples)

    def test_edge_floats_match_csv_writer(self):
        coords = np.array([[-0.0, 1e-05 - 0.0j, 1e16 + 5e-324j, -5e-324j],
                           [1 + 2j, -0.0 - 0.0j, 0.1, float("inf")]])
        phis = np.array([[-0.0, 1e-05, 1e16], [5e-324, -1e-05, 0.0]])
        samples = numeric.SampleSet(seed=0, subgroup="H", base_point=((1, 0), (0, 1)),
                                    lam1=2, lam2=1, coords=coords, phis=phis)
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
