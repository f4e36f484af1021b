"""Verification suites behind ``verify`` and the acceptance tests.

Each check returns a :class:`CheckResult` whose detail string is fully
deterministic given the seed, so reports can be compared byte-for-byte.
Suites: ``section5`` (exact worked-model table, two-route equality, tensor
decomposition identities, invariant-vector oracle, catalog, sampled
agreement), ``lagrangian``, ``coadjoint``, ``gradcheck``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from . import numeric, wire
from .exactlin import (
    Value,
    fixed_subspace,
    is_antisymplectic,
    is_lagrangian,
    random_antisymplectic_involution,
)
from .orbits import (
    OrbitClass,
    RealFormCase,
    RouteDisagreementError,
    enumerate_polytope_catalog,
    moment_polytope,
    orbit_representatives,
    real_moment_polytope,
)
from .polytope import RationalPolytope, hull
from .reps import (
    SectionSpaceSpec,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    hw_vector_product_form,
    n_invariant_subspace,
    section_space_dim,
    torus_weight,
    verify_n_invariance,
)
from .weights import negation_involution

WEIGHT_GRID = [(l1, l2) for l1 in range(1, 5) for l2 in range(1, 5)]


class CheckResult(Value):
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str):
        self.__dict__.update(name=name, passed=passed, detail=detail)


def load_golden_cases() -> list[dict]:
    data = resources.files("mplab").joinpath("data/golden_cases.json").read_text()
    return json.loads(data)["cases"]


@lru_cache(maxsize=1)
def _golden_table() -> tuple[tuple, ...]:
    """The golden cases as (label, point, lam1, lam2, delta_x, delta_y), parsed once."""
    return tuple((f"{c['orbit_class']}@({c['lam1']},{c['lam2']})",
                  wire.parse_point_literal(c["point"]), c["lam1"], c["lam2"],
                  wire.polytope_from_json(c["delta_x"]), wire.polytope_from_json(c["delta_y"]))
                 for c in load_golden_cases())


def check_polytope_table(seed: int = 0) -> CheckResult:
    """Exact orbit polytopes over the weight grid against the golden table."""
    cases = _golden_table()
    bad = [label for label, x, l1, l2, delta_x, _ in cases
           if moment_polytope(x, l1, l2) != delta_x]
    return CheckResult("polytope-table", not bad,
                       f"{len(cases)} cases, mismatches: {bad if bad else 'none'}")


def check_two_routes(seed: int = 0) -> CheckResult:
    """Intersection route equals representation route, and the golden real polytopes."""
    gamma = negation_involution()
    cases = _golden_table()
    bad = []
    for label, x, l1, l2, _, delta_y in cases:
        try:
            agree = real_moment_polytope(RealFormCase(x, gamma), l1, l2) == delta_y
        except RouteDisagreementError:
            agree = False
        if not agree:
            bad.append(label)
    return CheckResult("two-route-equality", not bad,
                       f"{len(cases)} cases x 2 routes, mismatches: {bad if bad else 'none'}")


def check_cg_completeness(seed: int = 0) -> CheckResult:
    """Sum of irreducible dimensions equals the section-space dimension."""
    bad = []
    for r in range(1, 5):
        for l1, l2 in WEIGHT_GRID:
            spec = SectionSpaceSpec(r, l1, l2)
            total = sum(w + 1 for w in clebsch_gordan_highest_weights(spec))
            if total != section_space_dim(spec):
                bad.append(f"r={r},({l1},{l2})")
    return CheckResult("cg-completeness", not bad,
                       f"64 specs, mismatches: {bad if bad else 'none'}")


def check_hw_oracle(seed: int = 0) -> CheckResult:
    """Brute-force invariant subspaces are spanned by exactly the closed forms
    at decomposition weights, in their normalization, and are zero elsewhere."""
    bad = []
    specs = [SectionSpaceSpec(r, l1, l2)
             for r in range(1, 4) for l1 in range(1, 4) for l2 in range(1, 4)]
    for spec in specs:
        cg = clebsch_gordan_highest_weights(spec)
        for k, w in enumerate(cg):
            if n_invariant_subspace(spec, w) != [highest_weight_vector(spec, k)]:
                bad.append(f"{spec} w={w}")
    rng = np.random.default_rng(seed)
    zero_checked = 0
    while zero_checked < 20:
        spec = specs[int(rng.integers(len(specs)))]
        top = spec.r * (spec.lam1 + spec.lam2)
        w = int(rng.integers(-top - 2, top + 3))
        if w in clebsch_gordan_highest_weights(spec):
            continue
        if n_invariant_subspace(spec, w):
            bad.append(f"{spec} non-cg w={w} not empty")
        zero_checked += 1
    return CheckResult("hw-oracle", not bad,
                       f"27 specs all weights + 20 off-weights, failures: {bad if bad else 'none'}")


def check_f_identities(seed: int = 0) -> CheckResult:
    """Sum form = product form, symbolic unipotent invariance, torus weight."""
    bad = []
    for r in range(1, 5):
        for l1, l2 in WEIGHT_GRID:
            spec = SectionSpaceSpec(r, l1, l2)
            top = r * (l1 + l2)
            for k in range(spec.k_max + 1):
                vec = highest_weight_vector(spec, k)
                if vec != hw_vector_product_form(spec, k):
                    bad.append(f"forms r={r},({l1},{l2}),k={k}")
                if not verify_n_invariance(vec):
                    bad.append(f"invariance r={r},({l1},{l2}),k={k}")
                if torus_weight(vec) != top - 2 * k:
                    bad.append(f"weight r={r},({l1},{l2}),k={k}")
    return CheckResult("hw-identities", not bad,
                       f"64 specs all k, failures: {bad if bad else 'none'}")


def check_lagrangian(seed: int = 0) -> CheckResult:
    """Fixed subspaces of seeded antisymplectic involutions are exactly Lagrangian."""
    bad = []
    for i in range(100):
        dim = (2, 4, 6, 8)[i % 4]
        s = random_antisymplectic_involution(dim, seed + i)
        if not is_antisymplectic(s):
            bad.append(f"dim={dim},seed={seed + i}: not antisymplectic")
        if not is_lagrangian(fixed_subspace(s), dim):
            bad.append(f"dim={dim},seed={seed + i}: fixed space not Lagrangian")
    return CheckResult("lagrangian-fixed-sets", not bad,
                       f"100 involutions dims 2-8, failures: {bad if bad else 'none'}")


def check_coadjoint(seed: int = 0) -> CheckResult:
    """Sphere-plane cut matches the stabilizer orbit; wrong-axis control fails."""
    bad = []
    dists = []
    for lam in (1, 2, 3):
        d = numeric.coadjoint_fixed_check(lam, 10_000, seed)
        dists.append(f"lam={lam}:{d:.4f}")
        if d >= 0.05:
            bad.append(f"lam={lam} distance {d}")
    control = numeric.coadjoint_fixed_check(1, 10_000, seed, plane="k")
    dists.append(f"control:{control:.4f}")
    if control <= 0.5:
        bad.append(f"negative control too small: {control}")
    return CheckResult("coadjoint-fixed-set", not bad, "; ".join(dists))


# orbit class, weights, cut mode, eps, tolerance, note label, failure label
_SAMPLED_ROWS = ((OrbitClass.DENSE, (2, 1), "radial", 0.05, 0.02, "dense", "dense radial"),
                 (OrbitClass.DIAGONAL, (2, 1), "radial", 0.05, 0.02, "diagonal",
                  "diagonal radial"),
                 (OrbitClass.FIRST_FACTOR, (3, 1), "angular", 0.05, 0.05, "first",
                  "first-factor angular"))


def check_sampled_agreement(seed: int = 0) -> CheckResult:
    """Sampled moment intervals agree with the exact polytopes; an empty one, with no cut."""
    reps = orbit_representatives()
    bad = []
    notes = []
    for cls, (l1, l2), mode, eps, tol, note, label in _SAMPLED_ROWS:
        want = moment_polytope(reps[cls], l1, l2).vertices
        # only the interval is kept, so each sample is freed before the next draw
        interval = numeric.sampled_delta(
            numeric.sample_orbit(reps[cls], "H", 100_000, seed, l1, l2), mode, eps)
        if interval is None:
            notes.append(f"{note}:none")
            if want:
                bad.append(f"{label} empty")
            continue
        lo, hi = interval
        notes.append(f"{note}:[{lo:.4f},{hi:.4f}]")
        if not want or abs(lo - want[0]) > tol or abs(hi - want[-1]) > tol:
            bad.append(f"{label} off")
    return CheckResult("sampled-agreement", not bad, "; ".join(notes + (bad or ["ok"])))


def check_gradient_identity(seed: int = 0) -> CheckResult:
    """Calibrated derivative identity at 100 random (point, direction) pairs."""
    kappa = numeric.calibrate_gradient_normalization()
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < 100:
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
        worst = max(worst, res)
        done += 1
    passed = bool(worst < 1e-4)
    return CheckResult("gradient-identity", passed,
                       f"kappa={kappa:.10f}, worst residual {worst:.3e} over 100 pairs")


def check_catalog(seed: int = 0) -> CheckResult:
    """Catalog finiteness over the grid and the exact (2,1) catalog."""
    gamma = negation_involution()
    bad = []
    for l1, l2 in WEIGHT_GRID:
        cat = enumerate_polytope_catalog(l1, l2, gamma)
        if len(cat) > 5:
            bad.append(f"({l1},{l2}) size {len(cat)}")
    cat21 = enumerate_polytope_catalog(2, 1, gamma)
    expected = [RationalPolytope.empty(), hull([1]), hull([3]), hull([1, 3])]
    if cat21 != expected:
        bad.append(f"(2,1) catalog {[str(p) for p in cat21]}")
    return CheckResult("catalog-finiteness", not bad,
                       f"16 grid cases, failures: {bad if bad else 'none'}")


SUITES: dict[str, tuple] = {
    "section5": (check_polytope_table, check_two_routes, check_cg_completeness,
                 check_hw_oracle, check_f_identities, check_catalog,
                 check_sampled_agreement),
    "lagrangian": (check_lagrangian,),
    "coadjoint": (check_coadjoint,),
    "gradcheck": (check_gradient_identity,),
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    results = []
    for suite in names:
        for check in SUITES[suite]:
            results.append(check(seed))
    return results
