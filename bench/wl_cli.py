"""Workload ``cli``: fresh ``python -m mplab`` processes with small inputs, one
at a time.  Each runs through ``coldstart.py``, which runs mplab as ``-m``
does and takes speed probes inside the process.

One round runs the nine subcommands that need no NumPy work (``polytope``,
``polytope --membership``, ``realpolytope``, ``catalog``, ``decompose``,
``hwv``, ``oracle``, ``plot`` from JSON and from CSV) and then ``sample
--n 10000`` twice.  Each command takes its stored input variants from its
own seeded cycle through all eight, so that a run's rounds give each command
distinct variants: a command's cost depends on its variant.  Each process must exit 0 with stdout equal to the reference stored
in ``reference/cli.json``; written files (the sample CSV, the SVGs) must
match their stored SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path

from harness import (OUT_DIR, REFERENCE_DIR, Checker, Workload, last_json_line, median,
                     run_child, warm_import)

REFERENCE = REFERENCE_DIR / "cli.json"
SMALL_CSV = REFERENCE_DIR / "samples_small.csv"
SAMPLE_REPEATS = 2

# Small inputs: weights, a real point of each orbit class, an involution,
# and section-space parameters valid for the weights (k <= r * min(weights)).
VARIANTS = [
    {"weights": (2, 1), "point": "0/1,1/1;1/1,1/1", "gamma": "negation",
     "r": 1, "k": 1, "weight": 1, "subgroup": "H", "seed": 0},
    {"weights": (3, 2), "point": "1/2,1/1;-1/3,1/1", "gamma": "negation",
     "r": 1, "k": 2, "weight": 3, "subgroup": "B", "seed": 1},
    {"weights": (2, 2), "point": "1/1,1/1;2/1,2/1", "gamma": "identity",
     "r": 2, "k": 1, "weight": 4, "subgroup": "G", "seed": 2},
    {"weights": (3, 1), "point": "0/1,1/1;1/1,0/1", "gamma": "negation",
     "r": 1, "k": 0, "weight": 2, "subgroup": "G'", "seed": 3},
    {"weights": (1, 3), "point": "1/1,0/1;0/1,1/1", "gamma": "negation",
     "r": 2, "k": 2, "weight": 4, "subgroup": "H", "seed": 4},
    {"weights": (2, 1), "point": "1/1,0/1;1/1,0/1", "gamma": "identity",
     "r": 1, "k": 1, "weight": -1, "subgroup": "B", "seed": 5},
    {"weights": (4, 3), "point": "5/7,-2/3;1/4,3/5", "gamma": "negation",
     "r": 1, "k": 3, "weight": 1, "subgroup": "G", "seed": 6},
    {"weights": (1, 1), "point": "3/2,1/1;-1/2,1/1", "gamma": "identity",
     "r": 2, "k": 1, "weight": 2, "subgroup": "G'", "seed": 7},
]

EXACT_COMMANDS = ("polytope", "polytope-membership", "realpolytope", "catalog",
                  "decompose", "hwv", "oracle", "plot-json", "plot-csv")
NUMERIC_COMMAND = "sample"
COMMANDS = EXACT_COMMANDS + (NUMERIC_COMMAND,)


def command(name: str, variant: int, tmp: Path) -> tuple[list[str], list[Path]]:
    """Arguments after ``python -m mplab`` and the files the command writes."""
    v = VARIANTS[variant]
    w = ["--weights", *(str(x) for x in v["weights"])]
    p = ["--point", v["point"]]
    r = ["--r", str(v["r"])]
    table = {
        "polytope": (["polytope", *w, *p], []),
        "polytope-membership": (["polytope", *w, *p, "--membership"], []),
        "realpolytope": (["realpolytope", *w, *p, "--gamma", v["gamma"]], []),
        "catalog": (["catalog", *w, "--gamma", v["gamma"]], []),
        "decompose": (["decompose", *w, *r], []),
        "hwv": (["hwv", *w, *r, "--k", str(v["k"])], []),
        "oracle": (["oracle", *w, *r, "--weight", str(v["weight"])], []),
        "plot-json": (["plot", "--in", str(tmp / f"polytope-{variant}.json"),
                       "--out", str(tmp / "polytope.svg")], [tmp / "polytope.svg"]),
        "plot-csv": (["plot", "--in", str(SMALL_CSV), "--out", str(tmp / "samples.svg")],
                     [tmp / "samples.svg"]),
        "sample": (["sample", *w, *p, "--subgroup", v["subgroup"], "--n", "10000",
                    "--seed", str(v["seed"]), "--out", str(tmp / "samples.csv")],
                   [tmp / "samples.csv"]),
    }
    return table[name]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> list[dict]:
    return json.loads(REFERENCE.read_text())["variants"]


def make_tmp() -> Path:
    tmp = OUT_DIR / f"cli-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def write_plot_inputs(tmp: Path, reference: list[dict]) -> None:
    """The JSON polytopes that ``plot-json`` renders: each variant's stored
    ``polytope`` output."""
    for i, ref in enumerate(reference):
        (tmp / f"polytope-{i}.json").write_text(ref["polytope"]["stdout"])


class CliWorkload(Workload):
    name = "cli"

    def setup(self, seed: int, traced_run: bool = False) -> None:
        self.inline = traced_run
        self.variant = 0
        self.rng = random.Random(seed)
        self.cycles: dict[str, list[int]] = {}
        self.reference = load_reference()
        if len(self.reference) != len(VARIANTS):
            raise RuntimeError("reference/cli.json does not match the input variants")
        self.tmp = make_tmp()
        write_plot_inputs(self.tmp, self.reference)
        warm_import(self.speed)
        self.cold: dict[str, list[tuple[float, float]]] = {name: [] for name in COMMANDS}
        self.variants_used: list[int] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _check_outputs(self, check: Checker, name: str, variant: int, returncode: int,
                       stdout: str, files: list[Path]) -> None:
        ref = self.reference[variant][name]
        where = f"{name} variant {variant}"
        check.expect(returncode, 0, f"{where} exit code")
        check.expect(stdout, ref["stdout"], f"{where} stdout")
        for path in files:
            got = file_digest(path) if path.is_file() else None
            check.expect(got, ref["files"][path.name], f"{where} {path.name}")

    def _cold(self, check: Checker, name: str, variant: int) -> list[tuple[float, float]]:
        args, files = command(name, variant, self.tmp)
        for path in files:
            path.unlink(missing_ok=True)
        probes = self.tmp / "probes.json"
        probes.unlink(missing_ok=True)
        self.speed.probe()
        check.begin()
        try:
            span, proc = run_child(["bench/coldstart.py", str(probes), *args])
            self.speed.merge(json.loads(probes.read_text()) if probes.is_file() else [])
        except Exception as exc:  # a timeout counts as a failed operation
            check.raised(exc, name)
            check.end()
            return []
        self._check_outputs(check, name, variant, proc.returncode, proc.stdout, files)
        check.end()
        self.cold[name].append(span)
        return [span]

    def _in_process(self, check: Checker, variant: int,
                    trace: bool) -> list[tuple[float, float]]:
        argv = ["bench/child.py", "cli", "--variant", str(variant), "--tmp", str(self.tmp)]
        if trace:
            argv.append("--trace")
        check.begin()
        try:
            _, proc = run_child(argv)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr[-2000:])
            report = last_json_line(proc.stdout)
            self.speed.merge(report["probes"])
        except Exception as exc:  # a broken child counts as a failed operation
            check.raised(exc, "in-process cli child")
            check.end()
            return []
        for name in COMMANDS:
            result = report["commands"][name]
            self._check_outputs(check, name, variant, result["exit"], result["stdout"], [])
            for path in command(name, variant, self.tmp)[1]:
                check.expect(result["files"].get(path.name),
                             self.reference[variant][name]["files"][path.name],
                             f"{name} variant {variant} in-process {path.name}")
        check.end()
        if trace:
            self.trace_metrics.append(report["trace"])
        return [tuple(report["commands"][n]["span"]) for n in COMMANDS]

    def _next_variant(self, name: str) -> int:
        cycle = self.cycles.setdefault(name, [])
        if not cycle:
            cycle += self.rng.sample(range(len(VARIANTS)), len(VARIANTS))
        self.variants_used.append(cycle.pop())
        return self.variants_used[-1]

    def op(self, check: Checker, trace: bool = False) -> list[tuple[float, float]]:
        """One round.  In a traced run a round is one in-process child, and an
        untraced round and a traced one share a variant."""
        if self.inline:
            if not trace:
                self.variant = self._next_variant("in-process round")
            return self._in_process(check, self.variant, trace)
        spans = []
        for name in EXACT_COMMANDS + (NUMERIC_COMMAND,) * SAMPLE_REPEATS:
            spans += self._cold(check, name, self._next_variant(name))
        return spans

    def layer_metrics(self) -> dict[str, float]:
        """cli.* metrics of a traced run: the fresh import, whether an exact
        subcommand left NumPy loaded, and in-process ``cli.main`` times."""
        _, proc = run_child(["bench/child.py", "numpy-probe", "--variant", str(self.variant),
                             "--tmp", str(self.tmp)])
        loaded = last_json_line(proc.stdout)["numpy_loaded"] if proc.returncode == 0 else 0
        reports = self.trace_metrics
        out = {"cli.import_s": median([r["cli.import_s"] for r in reports]),
               "cli.numpy_loaded": float(loaded)}
        for name in COMMANDS:
            out[f"cli.{name}.main_s"] = median([r[f"cli.{name}.main_s"] for r in reports])
        return out

    def metrics(self) -> dict[str, float]:
        scaled = self.speed.scaled
        exact = [scaled(*span) for name in EXACT_COMMANDS for span in self.cold[name]]
        return {
            "cli_exact_cold_s": median(exact),
            "cli_numeric_cold_s": median([scaled(*span)
                                          for span in self.cold[NUMERIC_COMMAND]]),
        }

    def properties(self) -> dict:
        tmp = Path("<tmp>")
        return {
            "variants_used": self.variants_used,
            "commands": {i: [["mplab", *command(name, i, tmp)[0]] for name in COMMANDS]
                         for i in sorted(set(self.variants_used))},
            "cold_starts": {name: len(v) for name, v in self.cold.items()},
        }
