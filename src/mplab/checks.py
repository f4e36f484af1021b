"""Verification suites behind ``verify`` and the acceptance tests.

Each check returns a :class:`CheckResult` whose detail string is fully
deterministic given the seed, so reports can be compared byte-for-byte.
Suites: ``section5`` (exact worked-model table, two-route equality, tensor
decomposition identities, invariant-vector oracle, catalog, sampled
agreement), ``lagrangian``, ``coadjoint``, ``gradcheck``.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import numeric, wire
from .exactlin import (
    Value,
    fixed_subspace,
    is_antisymplectic,
    is_lagrangian,
    random_antisymplectic_involution,
    standard_symplectic_form,
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
    BiHomogPoly,
    SectionSpaceSpec,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    hw_vector_product_form,
    hw_vector_sum_form,
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


def _proportional(p: BiHomogPoly, q: BiHomogPoly) -> bool:
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    if [e for e, _ in p.terms] != [e for e, _ in q.terms]:
        return False
    a = p.terms[0][1]
    b = q.terms[0][1]
    return p.scale(b) == q.scale(a)


def check_polytope_table(seed: int = 0) -> CheckResult:
    """Exact orbit polytopes over the weight grid against the golden table."""
    cases = load_golden_cases()
    bad = []
    for case in cases:
        x = wire.parse_point_literal(case["point"])
        got = moment_polytope(x, case["lam1"], case["lam2"])
        want = wire.polytope_from_json(case["delta_x"])
        if got != want:
            bad.append(f"{case['orbit_class']}@({case['lam1']},{case['lam2']})")
    detail = f"{len(cases)} cases, mismatches: {bad if bad else 'none'}"
    return CheckResult("polytope-table", not bad, detail)


def check_two_routes(seed: int = 0) -> CheckResult:
    """Intersection route equals representation route, and the golden real polytopes."""
    gamma = negation_involution()
    cases = load_golden_cases()
    bad = []
    for case in cases:
        x = wire.parse_point_literal(case["point"])
        try:
            got = real_moment_polytope(RealFormCase(x, gamma), case["lam1"], case["lam2"])
            agree = got == wire.polytope_from_json(case["delta_y"])
        except RouteDisagreementError:
            agree = False
        if not agree:
            bad.append(f"{case['orbit_class']}@({case['lam1']},{case['lam2']})")
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
    """Brute-force invariant subspaces are one-dimensional multiples of the
    closed forms at decomposition weights and zero-dimensional elsewhere."""
    bad = []
    specs = [SectionSpaceSpec(r, l1, l2)
             for r in range(1, 4) for l1 in range(1, 4) for l2 in range(1, 4)]
    for spec in specs:
        cg = clebsch_gordan_highest_weights(spec)
        for k, w in enumerate(cg):
            basis = n_invariant_subspace(spec, w)
            if len(basis) != 1 or not _proportional(basis[0], highest_weight_vector(spec, k)):
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
                sum_form = hw_vector_sum_form(spec, k)
                product_form = hw_vector_product_form(spec, k)
                if sum_form != product_form:
                    bad.append(f"forms r={r},({l1},{l2}),k={k}")
                if not verify_n_invariance(product_form):
                    bad.append(f"invariance r={r},({l1},{l2}),k={k}")
                if torus_weight(product_form) != top - 2 * k:
                    bad.append(f"weight r={r},({l1},{l2}),k={k}")
    return CheckResult("hw-identities", not bad,
                       f"64 specs all k, failures: {bad if bad else 'none'}")


def check_lagrangian(seed: int = 0) -> CheckResult:
    """Fixed subspaces of seeded antisymplectic involutions are exactly Lagrangian."""
    dims = (2, 4, 6, 8)
    forms = {dim: standard_symplectic_form(dim) for dim in dims}
    bad = []
    count = 0
    for i in range(100):
        dim = dims[i % 4]
        s = random_antisymplectic_involution(dim, seed + i)
        omega = forms[dim]
        if not is_antisymplectic(s, omega):
            bad.append(f"dim={dim},seed={seed + i}: not antisymplectic")
        if not is_lagrangian(fixed_subspace(s), omega):
            bad.append(f"dim={dim},seed={seed + i}: fixed space not Lagrangian")
        count += 1
    return CheckResult("lagrangian-fixed-sets", not bad,
                       f"{count} involutions dims 2-8, failures: {bad if bad else 'none'}")


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


def check_sampled_agreement(seed: int = 0) -> CheckResult:
    """Sampled moment intervals agree with the exact polytopes."""
    reps = orbit_representatives()
    bad = []
    notes = []

    dense = numeric.sample_orbit(reps[OrbitClass.DENSE], "H", 100_000, seed, 2, 1)
    lo, hi = numeric.sampled_delta(dense, "radial")
    notes.append(f"dense:[{lo:.4f},{hi:.4f}]")
    if abs(lo - 1) > 0.02 or abs(hi - 3) > 0.02:
        bad.append("dense radial off")

    diag = numeric.sample_orbit(reps[OrbitClass.DIAGONAL], "H", 100_000, seed, 2, 1)
    lo, hi = numeric.sampled_delta(diag, "radial")
    notes.append(f"diagonal:[{lo:.4f},{hi:.4f}]")
    if abs(lo - 3) > 0.02 or abs(hi - 3) > 0.02:
        bad.append("diagonal radial off")

    first = numeric.sample_orbit(reps[OrbitClass.FIRST_FACTOR], "H", 100_000, seed, 3, 1)
    interval = numeric.sampled_delta(first, "angular", 0.05)
    if interval is None:
        bad.append("first-factor angular empty")
        notes.append("first:none")
    else:
        notes.append(f"first:[{interval[0]:.4f},{interval[1]:.4f}]")
        if abs(interval[0] - 2) > 0.05 or abs(interval[1] - 2) > 0.05:
            bad.append("first-factor angular off")
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
