"""The exact checks' reports, pinned, and criterion 6 made to fail.

The report literals are the ``verify`` output of the exact checks at seeds 0
and 5.  The float checks (``check_sampled_agreement``, ``check_coadjoint``,
``check_gradient_identity``) are left out: their digits depend on NumPy's
SIMD dispatch.
"""

import json
from fractions import Fraction as F

import pytest

from mplab import checks, cli
from mplab.exactlin import LinearInvolution, RatMatrix, fixed_subspace

REPORTS = {
    checks.check_polytope_table: ("polytope-table", True, "80 cases, mismatches: none"),
    checks.check_two_routes: ("two-route-equality", True,
                              "80 cases x 2 routes, mismatches: none"),
    checks.check_cg_completeness: ("cg-completeness", True, "64 specs, mismatches: none"),
    checks.check_hw_oracle: ("hw-oracle", True,
                             "27 specs all weights + 20 off-weights, failures: none"),
    checks.check_f_identities: ("hw-identities", True, "64 specs all k, failures: none"),
    checks.check_catalog: ("catalog-finiteness", True, "16 grid cases, failures: none"),
    checks.check_lagrangian: ("lagrangian-fixed-sets", True,
                              "100 involutions dims 2-8, failures: none"),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("check", REPORTS, ids=lambda check: check.__name__)
def test_exact_report_is_pinned(check, seed):
    r = check(seed)
    assert (r.name, r.passed, r.detail) == REPORTS[check]


def unit_rows(dim, indices):
    return [tuple(F(int(c == i)) for c in range(dim)) for i in indices]


def non_isotropic_basis(s):
    """(e1, f1, e2, ..., e_(n-1)), (e1, e3) in dimension 4: dim/2 vectors, but
    e1 and f1 pair to 1.  A line in the plane is always Lagrangian, so
    dimension 2 keeps its fixed line."""
    n = s.dim // 2
    return fixed_subspace(s) if n == 1 else unit_rows(s.dim, [0, n, *range(1, n - 1)])


FAULTS = {
    # -I is symplectic, and its fixed space is zero
    "symplectic": ("random_antisymplectic_involution",
                   lambda dim, seed: LinearInvolution(-RatMatrix.identity(dim)),
                   lambda dim: ["not antisymplectic", "fixed space not Lagrangian"]),
    "rank": ("fixed_subspace", lambda s: fixed_subspace(s)[1:],
             lambda dim: ["fixed space not Lagrangian"]),
    "isotropy": ("fixed_subspace", non_isotropic_basis,
                 lambda dim: ["fixed space not Lagrangian"] if dim > 2 else []),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_lagrangian_check_reports_each_failure(monkeypatch, capsys, fault):
    name, replacement, reasons = FAULTS[fault]
    monkeypatch.setattr(checks, name, replacement)
    bad = []
    for i in range(100):
        dim = (2, 4, 6, 8)[i % 4]
        bad += [f"dim={dim},seed={5 + i}: {reason}" for reason in reasons(dim)]
    r = checks.check_lagrangian(5)
    assert (r.name, r.passed) == ("lagrangian-fixed-sets", False)
    assert r.detail == f"100 involutions dims 2-8, failures: {bad}"
    assert cli.main(["verify", "--suite", "lagrangian", "--seed", "5"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["checks"][0]["detail"] == r.detail
    assert err == f"[FAIL] lagrangian-fixed-sets: {r.detail}\n"

