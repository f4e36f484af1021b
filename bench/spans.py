"""Spans around calls into mplab's layers, installed from outside the program.

Each traced public function is replaced by a wrapper under every name it is
bound to in a loaded ``mplab`` module (``orbits``, ``checks``, ``cli`` and
the package itself hold their own references), and restored on
``uninstall``.  Spans nest through a stack, so a layer's self time is its
span's duration minus the time of the spans it caused.  The tracer's own
bookkeeping (repeat keys, distinct shares) is charged to no span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (metric prefix, module, attribute[, method]); the module is the one that
# defines the function.  Targets a later version of mplab no longer has are
# skipped and report zero.
SPANS = [
    ("exactlin.rref", "mplab.exactlin", "rref"),
    ("exactlin.invert", "mplab.exactlin", "invert"),
    ("polytope.hull", "mplab.polytope", "hull"),
    ("polytope.intersect_subspace", "mplab.polytope", "intersect_subspace"),
    ("polytope.linear_feasible", "mplab.polytope", "linear_feasible"),
    ("polytope.equals", "mplab.polytope", "equals"),
    ("weights.involution_eigenspaces", "mplab.weights", "involution_eigenspaces"),
    ("reps.highest_weight_vector", "mplab.reps", "highest_weight_vector"),
    ("reps.evaluate", "mplab.reps", "BiHomogPoly", "evaluate"),
    ("reps.n_invariant_subspace", "mplab.reps", "n_invariant_subspace"),
    ("reps.verify_n_invariance", "mplab.reps", "verify_n_invariance"),
    ("orbits.real_moment_polytope", "mplab.orbits", "real_moment_polytope"),
    ("orbits.gamma_highest_weight_polytope", "mplab.orbits", "gamma_highest_weight_polytope"),
    ("orbits.moment_polytope", "mplab.orbits", "moment_polytope"),
    ("orbits.membership_in_C", "mplab.orbits", "membership_in_C"),
    ("orbits.enumerate_polytope_catalog", "mplab.orbits", "enumerate_polytope_catalog"),
    ("numeric.sample_orbit", "mplab.numeric", "sample_orbit"),
    ("numeric.sampled_delta", "mplab.numeric", "sampled_delta"),
    ("numeric.hausdorff_distance", "mplab.numeric", "hausdorff_distance"),
    ("numeric.coadjoint_fixed_check", "mplab.numeric", "coadjoint_fixed_check"),
    ("numeric.gradient_identity_residual", "mplab.numeric", "gradient_identity_residual"),
    ("numeric.calibrate_gradient_normalization", "mplab.numeric",
     "calibrate_gradient_normalization"),
    ("numeric.write_samples_csv", "mplab.numeric", "write_samples_csv"),
    ("wire.parse_point_literal", "mplab.wire", "parse_point_literal"),
    ("wire.polytope_to_json", "mplab.wire", "polytope_to_json"),
    ("svgplot.render_polytope_svg", "mplab.svgplot", "render_polytope_svg"),
    ("svgplot.render_samples_svg", "mplab.svgplot", "render_samples_svg"),
]

# Called tens of thousands of times per second: counted, never timed.
COUNTS = [
    ("exactlin.gaussian_mul", "mplab.exactlin", "GaussianRational", "__mul__"),
    ("exactlin.gaussian_pow", "mplab.exactlin", "GaussianRational", "__pow__"),
]


@dataclass
class Tracer:
    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    work: dict = field(default_factory=lambda: defaultdict(float))
    keys: dict = field(default_factory=lambda: defaultdict(set))
    repeats: dict = field(default_factory=lambda: defaultdict(int))
    min_distinct_share: float | None = None
    first_call_s: dict = field(default_factory=dict)
    installed: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for target in SPANS:
            self._patch(target, self._span)
        for target in COUNTS:
            self._patch(target, self._counter)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self.installed):
            setattr(holder, name, original)
        self.installed.clear()

    def _patch(self, target, make) -> None:
        metric, module_name, attr, *method = target
        module = sys.modules.get(module_name)
        holder = getattr(module, attr, None) if module else None
        if holder is None or (method and method[0] not in vars(holder)):
            return
        if method:
            original = vars(holder)[method[0]]
            self.installed.append((holder, method[0], original))
            setattr(holder, method[0], make(metric, original))
            return
        wrapper = make(metric, holder)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mplab" or mod_name.startswith("mplab.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is holder:
                    self.installed.append((mod, name, holder))
                    setattr(mod, name, wrapper)

    def _counter(self, metric, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, metric, fn):
        note = _NOTES.get(metric)
        signature = inspect.signature(fn) if note else None
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note:
                started = time.perf_counter()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    note(tracer, metric, bound.arguments)
                except (TypeError, AttributeError, ValueError):
                    pass
                if stack:  # keep bookkeeping out of the enclosing span
                    stack[-1] += time.perf_counter() - started
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                tracer.calls[metric] += 1
                tracer.self_s[metric] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if metric not in tracer.first_call_s:
                    tracer.first_call_s[metric] = elapsed
        return wrapper

    # -- bookkeeping --------------------------------------------------------

    def note_key(self, metric: str, key) -> None:
        seen = self.keys[metric]
        if key in seen:
            self.repeats[metric] += 1
        else:
            seen.add(key)

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation calls, self time and work; shares as measured."""
        ops = max(ops, 1)
        out: dict[str, float] = {}
        for metric, *_ in SPANS:
            out[f"{metric}.calls"] = self.calls[metric] / ops
            out[f"{metric}.self_s"] = self.self_s[metric] / ops
        for metric, *_ in COUNTS:
            out[f"{metric}.calls"] = self.calls[metric] / ops
        for metric in ("reps.highest_weight_vector", "orbits.real_moment_polytope"):
            n = self.calls[metric]
            out[f"{metric}.repeat_share"] = self.repeats[metric] / n if n else 0.0
        out["reps.evaluate.terms"] = self.work["reps.evaluate.terms"] / ops
        out["numeric.sample_orbit.samples"] = self.work["numeric.sample_orbit.samples"] / ops
        out["numeric.hausdorff_distance.points"] = \
            self.work["numeric.hausdorff_distance.points"] / ops
        out["numeric.hausdorff_distance.distinct_share"] = \
            self.min_distinct_share if self.min_distinct_share is not None else 0.0
        out["numeric.gradient_identity_residual.first_call_s"] = \
            self.first_call_s.get("numeric.gradient_identity_residual", 0.0)
        out["numeric.write_samples_csv.rows"] = self.work["numeric.write_samples_csv.rows"] / ops
        return out


def _note_hwv(tracer: Tracer, metric: str, args: dict) -> None:
    spec = args["spec"]
    tracer.note_key(metric, (spec.r, spec.lam1, spec.lam2, args["k"]))


def _note_evaluate(tracer: Tracer, metric: str, args: dict) -> None:
    tracer.work["reps.evaluate.terms"] += len(args["self"].terms)


def _note_real_polytope(tracer: Tracer, metric: str, args: dict) -> None:
    from mplab.wire import format_point  # FlagPoint is unhashable; its literal is not
    case = args["case"]
    tracer.note_key(metric, (format_point(case.x), args["lam1"], args["lam2"],
                             case.gamma.label))


def _note_samples(tracer: Tracer, metric: str, args: dict) -> None:
    tracer.work["numeric.sample_orbit.samples"] += int(args["n"])


def _note_hausdorff(tracer: Tracer, metric: str, args: dict) -> None:
    import numpy as np
    shares = []
    for cloud in (args["a"], args["b"]):
        cloud = np.asarray(cloud)
        tracer.work["numeric.hausdorff_distance.points"] += len(cloud)
        shares.append(len(np.unique(cloud, axis=0)) / len(cloud))
    low = min(shares)
    if tracer.min_distinct_share is None or low < tracer.min_distinct_share:
        tracer.min_distinct_share = low


def _note_csv(tracer: Tracer, metric: str, args: dict) -> None:
    tracer.work["numeric.write_samples_csv.rows"] += args["samples"].count


_NOTES = {
    "reps.highest_weight_vector": _note_hwv,
    "reps.evaluate": _note_evaluate,
    "orbits.real_moment_polytope": _note_real_polytope,
    "numeric.sample_orbit": _note_samples,
    "numeric.hausdorff_distance": _note_hausdorff,
    "numeric.write_samples_csv": _note_csv,
}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in a stable order."""
    return list(Tracer().metrics(1))
