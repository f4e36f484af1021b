"""Run the benchmark on several seeds and report how far its figures spread.

    python3 bench/spread.py --workloads exact,verify --seeds 201-210 \\
                            [--seconds 20] [--traced-seed 201] [--out FILE]

Runs are made one after another, untraced.  For every end-to-end metric it
prints the median over the seeds and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, the figure the bounds in ``BENCHMARK.json`` are checked
against.  The summary, with every run's metrics and the workload's own
metrics, goes to ``--out`` (default ``bench/out/spread.json``).  With
``--traced-seed`` it adds one traced run per workload.  ``bench/baseline.json``
is made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run: its result line and its record, with the run's wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    record["run_wall_s"] = time.perf_counter() - start
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seeds)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "spread.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, records = [], []
        for seed in args.seeds:
            result, record = run(workload, seed, args.seconds, 0)
            runs.append(result)
            records.append(record)
            print(f"{workload} seed {seed} ({record['run_wall_s']:.0f} s): " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        out["workloads"][workload] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "workload_metrics": {name: summary([r["workload_metrics"][name] for r in records])
                                 for name in records[0]["workload_metrics"]},
            "cpu_steal_share_max": max(r["cpu_steal_share"] for r in records),
            "run_wall_s_max": max(r["run_wall_s"] for r in records),
        }
        out["fingerprint"] = {k: v for k, v in records[0]["fingerprint"].items() if k != "seed"}
        if args.traced_seed is not None:
            result, _ = run(workload, args.traced_seed, args.seconds, 1)
            out["workloads"][workload]["per_layer_seed"] = args.traced_seed
            out["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in result["metrics"].items()}
        for name, s in metrics.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (above a third of the bound)"
            print(f"  {workload} {name}: median {s['median']:.4g}, "
                  f"spread {s['spread']:.3f} of bound {bounds[name]}{flag}", flush=True)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
