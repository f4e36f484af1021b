"""Fresh-interpreter children of the benchmark.  Each prints one JSON line.

    child.py warm                          import every mplab module once
    child.py verify --seed N --checks a,b  run acceptance checks in order
    child.py cli --variant I --tmp DIR     run every cli subcommand in process
    child.py numpy-probe --variant I --tmp DIR
                                           exact subcommands, then report
                                           whether NumPy was loaded
Add ``--trace`` to ``verify`` and ``cli`` to record per-layer spans.
``verify`` and ``cli`` also report their speed probes and the (start, end)
of each timed call on the ``perf_counter`` clock, which the parent shares.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

from harness import use_repo_sources
from speed import PROBE_PERIOD_S, SpeedLog

LAYERS = ("exactlin", "polytope", "weights", "reps", "orbits", "numeric", "checks",
          "wire", "svgplot", "cli")


def _tracer():
    from spans import Tracer
    for layer in LAYERS:  # lazily imported layers get their wrappers too
        importlib.import_module(f"mplab.{layer}")
    tracer = Tracer()
    tracer.install()
    return tracer


def verify(seed: int, names: list[str], trace: bool, speed: SpeedLog) -> dict:
    from mplab import checks
    tracer = _tracer() if trace else None
    results, times, spans = [], [], []
    for name in names:
        speed.probe()
        start = time.perf_counter()
        result = getattr(checks, name)(seed=seed)
        end = time.perf_counter()
        times.append(end - start)
        spans.append((start, end))
        results.append([result.name, result.passed, result.detail])
    speed.every(None)
    speed.probe()
    out = {"results": results, "times": times, "spans": spans, "probes": speed.probes}
    if tracer:
        out["trace"] = tracer.metrics(1)
        out["trace"].update({f"checks.{n}.s": t for n, t in zip(names, times)})
    return out


def _main_in_process(cli, argv: list[str]) -> tuple[int, str, float]:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stdout.getvalue(), time.perf_counter() - start


def cli_commands(variant: int, tmp: Path, trace: bool, package_s: float,
                 speed: SpeedLog) -> dict:
    from wl_cli import COMMANDS, command, file_digest
    start = time.perf_counter()
    from mplab import cli
    import_s = package_s + time.perf_counter() - start
    tracer = _tracer() if trace else None
    commands = {}
    for name in COMMANDS:
        argv, files = command(name, variant, tmp)
        for path in files:
            path.unlink(missing_ok=True)
        speed.probe()
        start = time.perf_counter()
        code, stdout, main_s = _main_in_process(cli, argv)
        commands[name] = {"exit": code, "stdout": stdout, "main_s": main_s,
                          "span": (start, time.perf_counter()),
                          "files": {p.name: file_digest(p) for p in files if p.is_file()}}
    speed.probe()
    out = {"commands": commands, "import_s": import_s, "probes": speed.probes}
    if tracer:
        out["trace"] = tracer.metrics(1)
        out["trace"]["cli.import_s"] = import_s
        out["trace"].update({f"cli.{n}.main_s": c["main_s"] for n, c in commands.items()})
    return out


def numpy_probe(variant: int, tmp: Path) -> dict:
    from wl_cli import EXACT_COMMANDS, command
    from mplab import cli
    codes = [_main_in_process(cli, command(name, variant, tmp)[0])[0]
             for name in EXACT_COMMANDS]
    return {"numpy_loaded": int("numpy" in sys.modules), "exit_codes": codes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["warm", "verify", "cli", "numpy-probe"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checks", default="")
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    speed = SpeedLog()
    speed.probe()  # brackets the interpreter's start with the parent's probe
    if args.mode in ("warm", "verify") and not args.trace:  # timed whole: probe inside
        speed.every(PROBE_PERIOD_S)
    start = time.perf_counter()
    use_repo_sources()  # imports the mplab package, the first part of ``import mplab.cli``
    package_s = time.perf_counter() - start
    if args.mode == "warm":
        for layer in LAYERS:
            importlib.import_module(f"mplab.{layer}")
        speed.every(None)
        speed.probe()
        out = {"ok": True, "probes": speed.probes}
    elif args.mode == "verify":
        out = verify(args.seed, args.checks.split(","), args.trace, speed)
    elif args.mode == "cli":
        out = cli_commands(args.variant, args.tmp, args.trace, package_s, speed)
    else:
        out = numpy_probe(args.variant, args.tmp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
