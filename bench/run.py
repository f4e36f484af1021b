"""The mplab benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload {verify,exact,numeric,cli} --seed N \\
                         --seconds S --trace {0,1} [--inject-wrong]

Run from the root of a checkout; mplab is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
alternates untraced and traced operations and reports per-layer metrics and
the tracing overhead.  ``--inject-wrong`` is the self-test: one expected
value is replaced by a wrong one, so the run must report a failure.

Times are scaled by the machine's speed, measured by probes around and
inside each operation (``speed.py``); the record keeps unscaled figures too.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (provenance, input
properties, the workload's own metrics) is written to
``bench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from harness import (OUT_DIR, BenchError, Checker, check_sources, cpu_counters,
                     fingerprint, last_json_line, median, peak_rss_mb, percentile,
                     run_child, use_repo_sources)
from speed import PROBE_PERIOD_S, REFERENCE_PROBE_S, SpeedLog

SETUP_SAMPLES = 3

END_TO_END = {  # name -> unit; every workload reports each of them
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
}


def workload_class(name: str):
    if name == "verify":
        from wl_verify import VerifyWorkload
        return VerifyWorkload
    if name == "exact":
        from wl_exact import ExactWorkload
        return ExactWorkload
    if name == "numeric":
        from wl_numeric import NumericWorkload
        return NumericWorkload
    from wl_cli import CliWorkload
    return CliWorkload


IN_PROCESS = {"exact", "numeric"}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    from spans import metric_names
    from wl_cli import COMMANDS
    from wl_verify import read_criteria
    return (metric_names()
            + [f"checks.{name}.s" for _, name, _ in read_criteria()]
            + ["cli.import_s", "cli.numpy_loaded"]
            + [f"cli.{name}.main_s" for name in COMMANDS]
            + ["trace_overhead_frac"])


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith((".self_s", ".s")) and not name.startswith("cli."):
        return "s/op"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    if name == "cli.numpy_loaded":
        return "bool"
    if name.endswith("_s"):
        return "s"
    return name.rsplit(".", 1)[1] + "/op"


def setup_workload(args, traced_run: bool):
    """Import mplab and set the workload up, between speed probes; returns
    (workload, scaled seconds, raw seconds)."""
    speed = SpeedLog(copy=args.workload == "numeric")  # see speed.py
    speed.probe()
    if args.workload in IN_PROCESS:  # the others set up in a child that probes itself
        speed.every(PROBE_PERIOD_S)
    start = time.perf_counter()
    use_repo_sources()
    workload = workload_class(args.workload)(speed)
    workload.setup(args.seed, traced_run)
    end = time.perf_counter()
    speed.every(None)
    speed.probe()
    return workload, speed.scaled(start, end), end - start


def setup_samples(args) -> list[tuple[float, float]]:
    """(scaled, raw) set-up times of fresh processes, each importing and
    warming up anew."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        _, proc = run_child(["bench/run.py", "--workload", args.workload,
                             "--seed", str(args.seed), "--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        report = last_json_line(proc.stdout)
        out.append((report["setup_s"], report["setup_raw_s"]))
    return out


def measure(workload, args, check: Checker) -> dict:
    """Run operations until the time is up, ending on a whole block of
    operations that share one input mix.  In a traced run, blocks alternate
    between untraced and traced, starting untraced, and at least one block
    is traced.  Times are scaled by the speed probes around them."""
    tracer = None
    if args.trace and args.workload in IN_PROCESS:
        from spans import Tracer
        tracer = Tracer()
    block = workload.block
    times = {False: [], True: []}
    ops = {False: 0, True: 0}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i % block or (args.trace and not ops[True]):
        traced = bool(args.trace) and (i // block) % 2 == 1
        if tracer and traced and not tracer.installed:
            tracer.install()
        elif tracer and not traced and tracer.installed:
            tracer.uninstall()
        times[traced] += workload.op(check, traced)
        ops[traced] += 1
        i += 1
    workload.speed.probe()  # closes the last operation
    if tracer:
        tracer.uninstall()
    raw = {k: [end - start for start, end in v] for k, v in times.items()}
    times = {k: [workload.speed.scaled(*span) for span in v] for k, v in times.items()}
    return {"times": times, "raw_times": raw, "ops": ops, "tracer": tracer}


def end_to_end(times: list[float], setup: list[float], who: int) -> dict[str, float]:
    return {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(who),
        "op_p50_ms": median(times) * 1e3,
        "op_p95_ms": percentile(times, 95) * 1e3,
        "ops_per_s": len(times) / sum(times),
    }


def per_layer(workload, run: dict) -> dict[str, float]:
    if run["tracer"] is not None:
        out = run["tracer"].metrics(run["ops"][True])
    else:
        reports = workload.trace_metrics
        out = {k: sum(r.get(k, 0.0) for r in reports) / len(reports)
               for k in set().union(*reports)} if reports else {}
    if workload.trace_metrics:
        out.update(workload.layer_metrics())
    traced, untraced = run["times"][True], run["times"][False]
    if traced and untraced:
        out["trace_overhead_frac"] = ((sum(traced) / len(traced))
                                      / (sum(untraced) / len(untraced)) - 1)
    return {name: float(out.get(name, 0.0)) for name in per_layer_names()}


def _steal_share(before, after) -> float:
    """Share of the machine's CPU time taken by other guests during the run."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "exact", "numeric", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-wrong", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    check_sources()

    if args.setup_only:
        workload, seconds, raw = setup_workload(args, traced_run=False)
        workload.close()
        print(json.dumps({"setup_s": seconds, "setup_raw_s": raw}))
        return 0

    load_before = os.getloadavg()
    cpu_before = cpu_counters()
    setup = [] if args.trace else setup_samples(args)
    workload, seconds, raw = setup_workload(args, traced_run=bool(args.trace))
    setup.append((seconds, raw))
    check = Checker(inject_wrong=args.inject_wrong)
    try:
        run = measure(workload, args, check)
    finally:
        workload.close()
    who = resource.RUSAGE_SELF if args.workload in IN_PROCESS else resource.RUSAGE_CHILDREN

    if args.trace:
        metrics = per_layer(workload, run)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(run["times"][False], [s for s, _ in setup], who)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed),
        "load_average_before": load_before,
        "load_average_after": os.getloadavg(),
        "cpu_steal_share": _steal_share(cpu_before, cpu_counters()),
        "attempted": check.attempted,
        "failed": check.failed,
        "error_rate": check.error_rate,
        "problems": check.problems,
        "setup_s_samples": [s for s, _ in setup],
        "reference_probe_s": REFERENCE_PROBE_S,
        "median_probe_s": workload.speed.median_probe_s(),
        "unscaled": {"setup_s": median([r for _, r in setup]),
                     "op_p50_ms": median(run["raw_times"][False]) * 1e3
                     if run["raw_times"][False] else None},
        "operations": run["ops"],
        "op_ms": [t * 1e3 for t in run["times"][False]],
        "op_unscaled_ms": [t * 1e3 for t in run["raw_times"][False]],
        "metrics": metrics,
        "workload_metrics": workload.metrics() if not args.trace else {},
        "input_properties": workload.properties(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    for name, value in {**record["workload_metrics"], "error_rate": check.error_rate}.items():
        print(f"# {args.workload} {name} = {value:.6g}")
    for problem in check.problems:
        print(f"# problem: {problem}")
    print(f"# record: {path.relative_to(OUT_DIR.parent.parent)}")
    print(json.dumps({
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
