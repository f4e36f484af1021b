"""Shared pieces of the benchmark: paths, child processes, checking,
statistics and provenance.  Standard library only, so importing it loads
nothing of mplab, NumPy or SciPy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from speed import SpeedLog

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

# Two CPUs: every numeric library runs single-threaded, so that one workload
# never competes with itself and no thread pool is started.
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no mplab sources)."""


def check_sources() -> None:
    if not (SRC / "mplab" / "__init__.py").is_file():
        raise BenchError(f"no mplab sources under {SRC}")


def use_repo_sources() -> None:
    """Import mplab from ``src/`` of this checkout and nowhere else."""
    check_sources()
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mplab
    if Path(mplab.__file__).resolve().parent != (SRC / "mplab").resolve():
        raise BenchError(f"mplab imported from {mplab.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MPLAB_SEED", None)
    return env


def run_child(argv: list[str]) -> tuple[tuple[float, float], subprocess.CompletedProcess]:
    """Run one fresh interpreter to completion; (spawn, exit) on the
    ``time.perf_counter`` clock, which children share on Linux."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return (start, time.perf_counter()), proc


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def warm_import(speed: SpeedLog) -> None:
    """Import every mplab module once in a child, so that byte-compiling the
    sources is not charged to the first timed operation; part of set-up."""
    _, proc = run_child(["bench/child.py", "warm"])
    if proc.returncode != 0:
        raise RuntimeError(f"warm-up import failed: {proc.stderr[-2000:]}")
    speed.merge(last_json_line(proc.stdout)["probes"])


class Checker:
    """Counts operations and the ones whose output was wrong or that raised.

    ``inject_wrong`` replaces the first expected value the run compares
    against with one that matches nothing: the self-test that shows a wrong
    answer is caught and counted.
    """

    def __init__(self, inject_wrong: bool = False):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._inject = inject_wrong
        self._op_ok = True

    def begin(self) -> None:
        self.attempted += 1
        self._op_ok = True

    def expect(self, got, want, what: str) -> bool:
        if self._inject:
            self._inject = False
            want = _WRONG
        ok = got == want
        if not ok:
            self._fail(f"{what}: got {got!r}, want {want!r}")
        return ok

    def require(self, ok: bool, what: str) -> bool:
        if self._inject:
            self._inject = False
            ok = False
        if not ok:
            self._fail(what)
        return ok

    def raised(self, exc: BaseException, what: str) -> None:
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def end(self) -> None:
        if not self._op_ok:
            self.failed += 1

    def _fail(self, message: str) -> None:
        self._op_ok = False
        if len(self.problems) < 20:
            self.problems.append(message[:500])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class _Wrong:
    def __eq__(self, other):
        return False

    def __repr__(self):
        return "<deliberately wrong expected value>"


_WRONG = _Wrong()


class Workload:
    """What ``run.py`` drives: set up once, then operations until time is up.

    ``op`` takes a speed probe before each timed operation and returns the
    (start, end) of each on the ``perf_counter`` clock; ``speed.scaled``
    turns them into times.  ``metrics`` gives the workload's own metrics and
    ``properties`` the input properties to record.  A workload traced out of
    process keeps its children's per-layer reports in ``trace_metrics``.
    """

    name = ""
    block = 1  # operations that share one input mix; a run ends on a whole block

    def __init__(self, speed: SpeedLog):
        self.speed = speed
        self.trace_metrics: list[dict] = []

    def setup(self, seed: int, traced_run: bool = False) -> None:
        raise NotImplementedError

    def op(self, check: Checker, trace: bool = False) -> list[tuple[float, float]]:
        raise NotImplementedError

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def peak_rss_mb(who: int) -> float:
    """Highest resident set size of this process (RUSAGE_SELF) or of its
    largest finished child (RUSAGE_CHILDREN); Linux reports KiB."""
    return resource.getrusage(who).ru_maxrss / 1024


def cpu_counters() -> tuple[int, int]:
    """(steal, total) jiffies of the machine from /proc/stat, or zeros."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mplab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def fingerprint(seed: int) -> dict:
    """Provenance of one run: code, seed, interpreter, libraries, machine."""
    return {
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
    }
