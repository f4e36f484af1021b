"""Command-line front end.

``_COMMANDS`` declares each subcommand once (its function, help line and
options) and ``_OPTIONS`` each option once (its flag, argparse arguments,
config-file reader and default).  A new option is one row of ``_OPTIONS``,
named in the ``_COMMANDS`` rows of the subcommands that take it.
Machine-readable output goes to stdout as JSON, human summaries to stderr.
Exit codes: 0 success, 1 check failure, 2 usage error.

``--config`` names a JSON object whose keys, the names of the options that
have a reader, supply those options where the subcommand takes them; flags
win, and other keys are ignored.  Only ``sample`` and ``verify`` take a seed:
``--seed``, then the config file, then ``MPLAB_SEED``, then 0.

Inputs are limited: ``oracle``, ``hwv`` and ``decompose`` accept section spaces
of dimension at most ``reps.MAX_SECTION_SPACE_DIM``, ``realpolytope`` and
``catalog`` the same for the section space at bundle power 1, the one the
representation route evaluates, and ``realpolytope`` a point of size at most
``reps.MAX_ROUTE_POINT_SIZE``, ``polytope --membership`` weights with L1 + L2
at most ``MAX_MEMBERSHIP_WEIGHT_SUM``, and ``sample`` at most ``MAX_SAMPLES``
samples.  A larger input is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import wire
from .orbits import (
    RealFormCase,
    RouteDisagreementError,
    _membership,
    classify_borel_orbit_closure,
    enumerate_polytope_catalog,
    moment_polytope,
    real_moment_polytope,
)
from .polytope import RationalPolytope
from .reps import (
    MAX_ROUTE_POINT_SIZE,
    MAX_SECTION_SPACE_DIM,
    BiHomogPoly,
    SectionSpaceSpec,
    check_weights,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    hw_vector_product_form,
    n_invariant_subspace,
    section_space_dim,
)

# Largest ``sample --n``: the sampled-agreement check's own size.  A sample
# costs about 0.22 KB of memory while the CSV is written.
MAX_SAMPLES = 100_000

# Largest L1 + L2 for ``polytope --membership``.  Its table has 2(L1 + L2) + 5
# rows, one membership test each: 4005 rows at the limit.
MAX_MEMBERSHIP_WEIGHT_SUM = 2000


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _load_json(path: str):
    """The JSON value in a file; a file that cannot be decoded or parsed is a
    ValueError that names it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read as JSON") from None
        except ValueError as exc:  # bad JSON, bytes that are not UTF-8, too many digits
            raise ValueError(f"{path} cannot be read as JSON: {exc}") from None


# Each option once: its flag, its other add_argument arguments, its reader
# (None: a flag only) and its default.  The reader parses the flag's text, as
# argparse's type, and the config file's value alike; an ``nargs`` option's
# config value is a JSON array, each entry read alone.  Config keys are read in
# this order, so a config file's first bad value is the one reported.
_OPTIONS = {
    "weights": ("--weights", dict(nargs=2, metavar=("L1", "L2"),
                                  help="the two positive integer weights"), wire.json_int, None),
    "config": ("--config", dict(help="JSON file with default option values"), None, None),
    "point": ("--point", dict(help="flag point literal 'a1,c1;a2,c2'"), _text, None),
    "gamma": ("--gamma", dict(help="involution: negation | identity | [[-1]] | [[1]]"),
              _text, None),
    "r": ("--r", dict(help="bundle power (default 1)"), wire.json_int, 1),
    "k": ("--k", dict(help="index of the invariant vector"), wire.json_int, None),
    "weight": ("--weight", dict(help="torus weight to solve at"), wire.json_int, None),
    "seed": ("--seed", dict(help="RNG seed (default: MPLAB_SEED or 0)"), wire.json_int, None),
    "n": ("--n", dict(help=f"number of samples (default 1000, at most {MAX_SAMPLES})"),
          wire.json_int, 1000),
    "subgroup": ("--subgroup", dict(choices=["B", "H", "G", "G'"],
                                    help="which group to sample (default H)"), _text, "H"),
    "out": ("--out", dict(help="CSV output path (default stdout)"), _text, None),
    "membership": ("--membership", dict(action="store_true",
                                        help="include the achievable-weight membership table"),
                   None, None),
    # checks.SUITES and "all", spelled out: importing checks would load NumPy.
    "suite": ("--suite", dict(required=True, choices=["section5", "lagrangian", "coadjoint",
                                                      "gradcheck", "all"]), None, None),
    "in": ("--in", dict(dest="infile", required=True, help=".json or .csv artifact"),
           None, None),
    "svg": ("--out", dict(required=True, help="SVG output path"), None, None),
}


def _resolve(args: argparse.Namespace) -> None:
    """Set each option the subcommand reads from a config file: its flag, then
    the config file, then the default.  Keys the subcommand lacks are never read."""
    names = _COMMANDS[args.command][2]
    table = _load_json(args.config) if getattr(args, "config", None) else {}
    if not isinstance(table, dict):
        raise ValueError("config file must hold a JSON object")
    for name, (_, kwargs, read, value) in _OPTIONS.items():
        if read is None or name not in names or getattr(args, name) is not None:
            continue
        if name in table:
            raw, count = table[name], kwargs.get("nargs")
            try:
                if count and not (isinstance(raw, list) and len(raw) == count):
                    raise TypeError(f"not a list of {count}")
                value = [read(v) for v in raw] if count else read(raw)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"bad value for --{name} in config file: "
                                 f"{json.dumps(raw)}") from None
        setattr(args, name, value)


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required option --{name}")
    return value


def _weights(args: argparse.Namespace) -> tuple[int, int]:
    lam1, lam2 = _require(args, "weights")
    check_weights(lam1, lam2)
    return lam1, lam2


def _seed(args: argparse.Namespace) -> int:
    """The RNG seed: flag, then config file, then ``MPLAB_SEED``, then 0."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("MPLAB_SEED") or "0"
        try:
            seed = wire.json_int(env)
        except ValueError:
            raise ValueError(f"MPLAB_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; a seed is an integer >= 0")
    return seed


def _limited(spec: SectionSpaceSpec) -> SectionSpaceSpec:
    dim = section_space_dim(spec)
    if dim > MAX_SECTION_SPACE_DIM:
        raise ValueError(f"section space dimension {dim} exceeds the limit "
                         f"{MAX_SECTION_SPACE_DIM}")
    return spec


def _membership_table(delta: RationalPolytope, lam1: int, lam2: int) -> list[dict]:
    if lam1 + lam2 > MAX_MEMBERSHIP_WEIGHT_SUM:
        raise ValueError(f"--membership needs L1 + L2 <= {MAX_MEMBERSHIP_WEIGHT_SUM}, "
                         f"got {lam1 + lam2}")
    top = lam1 + lam2 + 1
    grid = sorted({Fraction(num, den) for den in (1, 2) for num in range(-den, top * den + 1)})
    table = []
    for lam in grid:
        member, witness = _membership(delta, lam1, lam2, lam)
        table.append({"lambda": f"{lam.numerator}/{lam.denominator}",
                      "member": member, "witness": witness})
    return table


def cmd_polytope(args: argparse.Namespace) -> int:
    lam1, lam2 = _weights(args)
    x = wire.parse_point_literal(_require(args, "point"))
    delta = moment_polytope(x, lam1, lam2)
    if args.membership:
        _emit({"polytope": wire.polytope_to_json(delta),
               "orbit_class": classify_borel_orbit_closure(x).value,
               "membership": _membership_table(delta, lam1, lam2)})
    else:
        _emit(wire.polytope_to_json(delta))
    print(f"orbit polytope: {delta}", file=sys.stderr)
    return 0


def cmd_realpolytope(args: argparse.Namespace) -> int:
    lam1, lam2 = _weights(args)
    x = wire.parse_point_literal(_require(args, "point"))
    gamma = wire.parse_gamma(_require(args, "gamma"))
    _limited(SectionSpaceSpec(1, lam1, lam2))
    size = (lam1 + lam2) * sum(q.numerator.bit_length() + q.denominator.bit_length()
                               for g in x.coords for q in (g.re, g.im))
    if size > MAX_ROUTE_POINT_SIZE:
        raise ValueError(f"point size {size} exceeds the limit {MAX_ROUTE_POINT_SIZE}")
    try:
        via_intersection = real_moment_polytope(RealFormCase(x, gamma), lam1, lam2)
        via_membership, same = via_intersection, True
    except RouteDisagreementError as exc:
        via_intersection, via_membership = exc.via_intersection, exc.via_representation
        same = False
    _emit({"intersection_route": wire.polytope_to_json(via_intersection),
           "membership_route": wire.polytope_to_json(via_membership),
           "equal": same})
    print(f"routes {'agree' if same else 'DISAGREE'}: {via_intersection}", file=sys.stderr)
    return 0 if same else 1


def cmd_catalog(args: argparse.Namespace) -> int:
    lam1, lam2 = _weights(args)
    gamma = wire.parse_gamma(_require(args, "gamma"))
    _limited(SectionSpaceSpec(1, lam1, lam2))
    cat = enumerate_polytope_catalog(lam1, lam2, gamma)
    _emit({"weights": [lam1, lam2], "gamma": gamma.label,
           "count": len(cat), "polytopes": [wire.polytope_to_json(p) for p in cat]})
    for p in cat:
        print(f"  {p}", file=sys.stderr)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    spec = _limited(SectionSpaceSpec(args.r, *_weights(args)))
    weights_list = clebsch_gordan_highest_weights(spec)
    _emit({"r": spec.r, "weights": [spec.lam1, spec.lam2],
           "highest_weights": weights_list,
           "dims": [w + 1 for w in weights_list],
           "section_dim": section_space_dim(spec)})
    return 0


def cmd_hwv(args: argparse.Namespace) -> int:
    spec = _limited(SectionSpaceSpec(args.r, *_weights(args)))
    k = _require(args, "k")
    sum_form = highest_weight_vector(spec, k)
    product_form = hw_vector_product_form(spec, k)
    d1, d2 = spec.bidegree
    monomial = BiHomogPoly.monomial((0, d1 - k, 0, d2 - k)).pretty()
    factors = [] if monomial == "1" else [monomial]
    if k:
        factors.append("(x1*y2 - x2*y1)" + (f"^{k}" if k > 1 else ""))
    _emit({"r": spec.r, "k": k, "weights": [spec.lam1, spec.lam2],
           "weight": spec.r * (spec.lam1 + spec.lam2) - 2 * k,
           "sum_form": sum_form.pretty(),
           "product_form": "*".join(factors) or "1",
           "product_form_expanded": product_form.pretty(),
           "forms_equal": sum_form == product_form})
    return 0 if sum_form == product_form else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = _limited(SectionSpaceSpec(args.r, *_weights(args)))
    weight = _require(args, "weight")
    basis = n_invariant_subspace(spec, weight)
    _emit({"r": spec.r, "weights": [spec.lam1, spec.lam2], "weight": weight,
           "dimension": len(basis), "basis": [b.pretty() for b in basis]})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _seed(args)
    from . import checks  # NumPy loads only for the numeric subcommands

    results = checks.run_suite(args.suite, seed)
    passed = all(r.passed for r in results)
    _emit({"suite": args.suite, "seed": seed, "passed": passed,
           "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                      for r in results]})
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}", file=sys.stderr)
    return 0 if passed else 1


def cmd_sample(args: argparse.Namespace) -> int:
    lam1, lam2 = _weights(args)
    x = wire.parse_point_literal(_require(args, "point"))
    seed = _seed(args)
    n, out = args.n, args.out
    if n > MAX_SAMPLES:
        raise ValueError(f"--n {n} exceeds the limit {MAX_SAMPLES}")
    from . import numeric
    numeric.check_sample_args(args.subgroup, n)
    created = False
    if out:
        # Opened for append before drawing, so an unwritable path fails
        # before the work and an existing file keeps its bytes if the draw
        # is refused; a file this run created is removed then.
        created = not os.path.lexists(out)
        open(out, "a").close()
    try:
        samples = numeric.sample_orbit(x, args.subgroup, n, seed, lam1, lam2)
    except BaseException:
        if created:
            os.remove(out)
        raise
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as fh:
        numeric.write_samples_csv(samples, fh)
    if out:
        print(f"wrote {n} samples to {out}", file=sys.stderr)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    import csv  # csv and svgplot load only for plot

    from . import svgplot
    src = args.infile
    if src.endswith(".json"):
        obj = _load_json(src)
        try:
            poly = wire.polytope_from_json(obj.get("polytope", obj) if isinstance(obj, dict) else obj)
            svg = svgplot.render_polytope_svg(poly)
        except ValueError as exc:
            raise ValueError(f"{src}: {exc}") from None
    elif src.endswith(".csv"):
        with open(src, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            try:
                if not {"phi1", "phi3"} <= set(reader.fieldnames or ()):
                    raise ValueError(f"sample CSV {src} has no phi1 and phi3 columns")
                phi1, phi3 = [], []
                for row in reader:
                    try:
                        phi1.append(float(row["phi1"]))
                        phi3.append(float(row["phi3"]))
                    except ValueError as exc:
                        raise ValueError(f"sample CSV {src}, line {reader.line_num}: {exc}") from None
            # A field over csv.field_size_limit(), or bytes that are not UTF-8.
            except (csv.Error, UnicodeDecodeError) as exc:
                raise ValueError(f"sample CSV {src}: {exc}") from None
        try:
            svg = svgplot.render_samples_svg(phi1, phi3)
        except ValueError as exc:  # a value that is not finite, or a range a float cannot hold
            raise ValueError(f"sample CSV {src}: {exc}") from None
    else:
        raise ValueError("plot input must be a .json polytope or .csv sample file")
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


# Each subcommand once: its function, its help line and its options in
# --help order.
_COMMANDS = {
    "polytope": (cmd_polytope, "exact orbit polytope for a flag point",
                 ("weights", "config", "point", "membership")),
    "realpolytope": (cmd_realpolytope, "real-form polytope by both routes",
                     ("weights", "config", "point", "gamma")),
    "catalog": (cmd_catalog, "distinct real-form polytopes over all orbit classes",
                ("weights", "config", "gamma")),
    "decompose": (cmd_decompose, "tensor-product highest weights and dimensions",
                  ("weights", "config", "r")),
    "hwv": (cmd_hwv, "print the invariant vector in both closed forms",
            ("weights", "config", "r", "k")),
    "oracle": (cmd_oracle, "brute-force invariant subspace at a weight",
               ("weights", "config", "r", "weight")),
    "verify": (cmd_verify, "run a verification suite", ("suite", "config", "seed")),
    "sample": (cmd_sample, "sample an orbit and dump CSV",
               ("weights", "config", "point", "seed", "subgroup", "n", "out")),
    "plot": (cmd_plot, "render a polytope JSON or sample CSV as SVG", ("in", "svg")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplab",
        description="Exact orbit polytopes in CP1 x CP1, their real forms, "
                    "and a numeric moment-map laboratory.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, names) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_line)
        for name in names:
            flag, kwargs, read, _ = _OPTIONS[name]
            sub.add_argument(flag, **kwargs, **({"type": read} if read else {}))
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
