"""Workload ``numeric``: the sampling laboratory without the coadjoint check.

One pass is one operation: ``sample_orbit`` for B, H, G and G' at n = 100 000
with the base point taken from the orbit representatives in turn, the radial
and angular chamber cuts of each, a Hausdorff distance between two distinct
10 000-point clouds sampled with different seeds, 100 derivative-identity
residuals with the kernel already calibrated, and a 10 000-row CSV written to
memory.  No exact arithmetic runs inside the timed pass.
"""

from __future__ import annotations

import csv
import io
import random
import time

from harness import Checker, Workload, median
from speed import PROBE_PERIOD_S

LAM1, LAM2 = 2, 1
SUBGROUPS = ("B", "H", "G", "G'")
CLASS_ORDER = ("dense", "diagonal", "first_factor", "second_factor", "point")
N_ORBIT = 100_000
N_CLOUD = 10_000
N_GRADIENT = 100
RADIAL_TOL = 0.02    # the tolerances of check_sampled_agreement
ANGULAR_TOL = 0.05
RESIDUAL_MAX = 1e-4
CSV_HEADER = ("a1re", "a1im", "c1re", "c1im", "a2re", "a2im",
              "c2re", "c2im", "phi1", "phi2", "phi3", "norm")  # the documented header

# Chamber cuts of the orbit polytope at (LAM1, LAM2) = (2, 1) per class, from
# the closed forms; None is the empty polytope.
EXACT = {"dense": (1.0, 3.0), "diagonal": (3.0, 3.0), "first_factor": (1.0, 1.0),
         "second_factor": None, "point": None}
FULL = EXACT["dense"]  # every moment value has |Phi| in [|l1 - l2|, l1 + l2]


def _within(interval, bounds, tol: float) -> bool:
    return bounds[0] - tol <= interval[0] and interval[1] <= bounds[1] + tol


def _close(interval, bounds, tol: float) -> bool:
    return abs(interval[0] - bounds[0]) <= tol and abs(interval[1] - bounds[1]) <= tol


def _hausdorff_reference(a, b) -> float:
    from scipy.spatial import cKDTree
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


class NumericWorkload(Workload):
    name = "numeric"

    def setup(self, seed: int, traced_run: bool = False) -> None:
        import numpy as np
        from mplab import numeric, orbits
        from mplab.reps import SectionSpaceSpec
        self.np = np
        self.numeric = numeric
        self.spec = SectionSpaceSpec
        by_class = {c.value: p for c, p in orbits.orbit_representatives().items()}
        self.reps = [(name, by_class[name]) for name in CLASS_ORDER]
        self.rng = random.Random(seed)
        self.kappa = numeric.calibrate_gradient_normalization()  # the cold expm
        self.passes = 0
        self.pass_spans: list[tuple[float, float]] = []
        self.sample_spans: list[list[tuple[float, float]]] = []
        self.distinct_share = 1.0
        self._run(self._inputs())  # warm-up pass

    def _inputs(self) -> dict:
        """Seeds and base points of one pass; the rng is the only source."""
        np = self.np
        start = 4 * self.passes
        gradient = []
        g = np.random.default_rng(self.rng.getrandbits(32))
        for _ in range(3 * N_GRADIENT):  # the few vanishing sections are skipped
            r = int(g.integers(1, 3))
            k = int(g.integers(0, r + 1))
            point = tuple((g.normal() + 1j * g.normal(), g.normal() + 1j * g.normal())
                          for _ in range(2))
            xi = np.array([[g.normal(), g.normal()], [0.0, 0.0]], dtype=complex)
            xi[1, 1] = -xi[0, 0]
            gradient.append((point, xi, r, k))
        cloud_a = self.rng.getrandbits(32)
        cloud_b = cloud_a ^ (1 + self.rng.getrandbits(31))
        return {
            "orbits": [(sub, *self.reps[(start + j) % len(self.reps)],
                        self.rng.getrandbits(32)) for j, sub in enumerate(SUBGROUPS)],
            "clouds": (cloud_a, cloud_b),
            "gradient": gradient,
        }

    def _run(self, inputs: dict) -> dict:
        num = self.numeric
        out = {"orbits": [], "sample_spans": []}
        for sub, cls, x, seed in inputs["orbits"]:
            start = time.perf_counter()
            samples = num.sample_orbit(x, sub, N_ORBIT, seed, LAM1, LAM2)
            out["sample_spans"].append((start, time.perf_counter()))
            out["orbits"].append((sub, cls, samples.count,
                                  num.sampled_delta(samples, "radial"),
                                  num.sampled_delta(samples, "angular", ANGULAR_TOL)))
        dense = self.reps[0][1]
        clouds = [num.sample_orbit(dense, "G", N_CLOUD, s, LAM1, LAM2)
                  for s in inputs["clouds"]]
        out["clouds"] = clouds
        out["hausdorff"] = num.hausdorff_distance(clouds[0].phis, clouds[1].phis)
        residuals = []
        for point, xi, r, k in inputs["gradient"]:
            if len(residuals) == N_GRADIENT:
                break
            try:
                residuals.append(num.gradient_identity_residual(
                    point, xi, self.spec(r, LAM1, LAM2), k, self.kappa))
            except ValueError:  # the section vanishes at the point
                continue
        out["residuals"] = residuals
        stream = io.StringIO()
        num.write_samples_csv(clouds[0], stream)
        out["csv"] = stream.getvalue()
        return out

    def _check(self, check: Checker, out: dict) -> None:
        np = self.np
        for sub, cls, count, radial, angular in out["orbits"]:
            where = f"pass {self.passes} {sub} {cls}"
            check.expect(count, N_ORBIT, f"{where} sample count")
            check.require(_within(radial, FULL, RADIAL_TOL), f"{where} radial {radial}")
            if sub == "G":  # the compact orbit of any point is all of CP1 x CP1
                check.require(_close(radial, FULL, RADIAL_TOL), f"{where} radial {radial}")
            if sub == "H" and cls in ("dense", "diagonal"):
                check.require(_close(radial, EXACT[cls], RADIAL_TOL),
                              f"{where} radial {radial} vs {EXACT[cls]}")
            if sub in ("B", "H") and angular is not None:  # B and H keep the orbit closure
                check.require(EXACT[cls] is not None
                              and _within(angular, EXACT[cls], ANGULAR_TOL),
                              f"{where} angular {angular} vs {EXACT[cls]}")
        a, b = (c.phis for c in out["clouds"])
        check.require(abs(out["hausdorff"] - _hausdorff_reference(a, b)) <= 1e-12,
                      f"pass {self.passes} hausdorff {out['hausdorff']}")
        share = min(len(np.unique(c, axis=0)) / len(c) for c in (a, b))
        self.distinct_share = min(self.distinct_share, share)
        check.expect(len(out["residuals"]), N_GRADIENT, f"pass {self.passes} residual count")
        worst = max(out["residuals"], default=float("inf"))
        check.require(worst < RESIDUAL_MAX, f"pass {self.passes} worst residual {worst}")
        rows = list(csv.reader(io.StringIO(out["csv"])))
        check.expect(tuple(rows[0]), CSV_HEADER, f"pass {self.passes} csv header")
        body = np.array(rows[1:], dtype=float)
        c = out["clouds"][0]
        want = np.column_stack([c.coords.real[:, 0], c.coords.imag[:, 0],
                                c.coords.real[:, 1], c.coords.imag[:, 1],
                                c.coords.real[:, 2], c.coords.imag[:, 2],
                                c.coords.real[:, 3], c.coords.imag[:, 3],
                                c.phis, np.linalg.norm(c.phis, axis=1)])
        check.require(body.shape == want.shape and bool(np.array_equal(body, want)),
                      f"pass {self.passes} csv rows")

    def op(self, check: Checker, trace: bool = False) -> list[float]:
        inputs = self._inputs()
        self.speed.probe()
        if not trace:  # probes inside traced spans would count as their time
            self.speed.every(PROBE_PERIOD_S)
        check.begin()
        start = time.perf_counter()
        try:
            out = self._run(inputs)
        except Exception as exc:  # counted as a failed operation; the run goes on
            end = time.perf_counter()
            self.speed.every(None)
            check.raised(exc, f"pass {self.passes}")
        else:
            end = time.perf_counter()
            self.speed.every(None)
            self._check(check, out)
            self.sample_spans.append(out["sample_spans"])
        check.end()
        self.passes += 1
        self.pass_spans.append((start, end))
        return [(start, end)]

    def metrics(self) -> dict[str, float]:
        scaled = self.speed.scaled
        rates = [len(SUBGROUPS) * N_ORBIT / sum(scaled(*span) for span in spans)
                 for spans in self.sample_spans]
        return {
            "numeric_pass_s": median([scaled(*span) for span in self.pass_spans]),
            "orbit_samples_per_s": median(rates),
        }

    def properties(self) -> dict:
        return {
            "passes": len(self.pass_spans),
            "weights": [LAM1, LAM2],
            "hausdorff_distinct_share_min": self.distinct_share,
            "orbit_points_per_pass": len(SUBGROUPS) * N_ORBIT,
        }
