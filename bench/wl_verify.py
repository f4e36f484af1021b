"""Workload ``verify``: the acceptance gate in a fresh interpreter.

One operation is one child process that imports mplab and calls the ten
acceptance checks in the gate's criterion order, timing each call from
outside.  The criterion order and the per-criterion budgets are read from
``tests/test_acceptance.py`` (``CRITERIA``), never copied.  Every check must
pass, and the (name, passed, detail) triples must be byte-identical across
the repetitions of one seed.
"""

from __future__ import annotations

import ast
import json

from harness import ROOT, Checker, Workload, last_json_line, median, run_child, warm_import

ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def read_criteria() -> list[tuple[int, str, float]]:
    """(number, check function name, budget in seconds) from ``CRITERIA``."""
    tree = ast.parse(ACCEPTANCE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CRITERIA" for t in node.targets):
            out = []
            for row in node.value.elts:
                number, _label, check, budget = row.elts
                out.append((ast.literal_eval(number), check.attr,
                            float(ast.literal_eval(budget))))
            return out
    raise ValueError(f"no CRITERIA in {ACCEPTANCE}")


class VerifyWorkload(Workload):
    name = "verify"

    def setup(self, seed: int, traced_run: bool = False) -> None:
        self.seed = seed
        self.criteria = read_criteria()
        warm_import(self.speed)
        self.spans: list[tuple[float, float]] = []
        self.budget_fracs: list[float] = []
        self.check_spans: dict[str, list[tuple[float, float]]] = {c[1]: [] for c in self.criteria}
        self.reference = None

    def _child(self, trace: bool) -> tuple[tuple[float, float], dict | None, str]:
        argv = ["bench/child.py", "verify", "--seed", str(self.seed),
                "--checks", ",".join(c[1] for c in self.criteria)]
        if trace:
            argv.append("--trace")
        self.speed.probe()
        span, proc = run_child(argv)
        if proc.returncode != 0:
            return span, None, proc.stderr[-2000:]
        report = last_json_line(proc.stdout)
        self.speed.merge(report["probes"])
        return span, report, ""

    def _check(self, check: Checker, report: dict) -> None:
        triples = report["results"]
        check.expect(len(triples), len(self.criteria), "number of check results")
        for name, passed, detail in triples:
            check.require(passed is True, f"{name} failed: {detail}")
        encoded = json.dumps(triples)
        if self.reference is None:
            self.reference = encoded
        check.expect(encoded, self.reference, "report differs from the first repetition")

    def op(self, check: Checker, trace: bool = False) -> list[float]:
        check.begin()
        try:
            span, report, error = self._child(trace)
        except Exception as exc:  # a timeout or a broken child counts as failed
            check.raised(exc, "verify child")
            check.end()
            return []
        if report is None:
            check.raised(RuntimeError(error), "verify child")
        else:
            self._check(check, report)
            times = report["times"]
            if trace:
                self.trace_metrics.append(report["trace"])
            else:  # the budgets are in real seconds, so raw times meet them
                self.spans.append(span)
                self.budget_fracs.append(max(t / c[2] for t, c in zip(times, self.criteria)))
                for child_span, c in zip(report["spans"], self.criteria):
                    self.check_spans[c[1]].append(tuple(child_span))
        check.end()
        return [span]

    def metrics(self) -> dict[str, float]:
        return {
            "verify_all_s": median([self.speed.scaled(*span) for span in self.spans]),
            "acceptance_max_budget_frac": median(self.budget_fracs),
        }

    def properties(self) -> dict:
        return {
            "criteria": [{"number": n, "check": name, "budget_s": b}
                         for n, name, b in self.criteria],
            "check_s_median": {k: median([self.speed.scaled(*span) for span in v])
                               for k, v in self.check_spans.items() if v},
            "runs": len(self.spans),
        }
