"""A fixed-seed fuzz of the command line, run in process through ``cli.main``.

Every argv is built from the parser's own option table: each subcommand's
options, in a shuffled order, with values drawn from pools of well-formed,
malformed and oversized values, among them config, sample CSV and polytope
JSON files, valid and broken, all far below the documented input limits.
Options are also dropped, repeated, left without their value, or joined by
an unknown one.

Every run must end in exit 0, 1 or 2 with no traceback, and an exit 2 must
come with a one-line error.  Argparse's own usage errors print its usage
synopsis (a ``usage:`` line and its indented continuations) before their
error line; the synopsis is allowed, any other extra line is not.

``verify`` runs its argument handling for real and its suites as a stub:
the suites themselves are the acceptance tests' gate, and running them
here would cost seconds per argv.
"""

import argparse
import json
import random

import pytest

from mplab import checks, cli

SEED = 20261018
RUNS = 900

GENERIC = ["", "-1", "x", "--", "1.5", "0,1;\n1,1", "é", "\u0662", "1_0"]
# Per option: well-formed values, drawn GOOD of the time, and malformed or
# oversized ones.
GOOD = 0.8
POOLS = {
    "weights": (["1", "2", "3"], ["0", "-2", "x", "2.5", str(10 ** 30), str(10 ** 400)]),
    "point": (["0,1;1,1", "1,1;1,1", "0/1,1/1;1/1,1/1", "1,0;1,0", "0,1;0,1", "1/2,-3;2,5",
               "-0,1;1,-0", "9" * 300 + ",1;1,7", " 1 , 1 ; 1 , 1 "],
              ["0,0;1,1", "1,2", "a,b;c,d", "1/0,1;1,1", ";", "1,1;1,1;1,1", "1e400,1;1,1",
               "1.5,1;1,1", "9" * 400 + ",1;1,1"]),
    "gamma": (["negation", "identity", "[[-1]]", "[[1]]"],
              ["[[2]]", "[[0]]", "[[-1, 0]]", "[", "[[1e400]]", "[[true]]", "neg", "[" * 5000]),
    "r": (["1", "2"], ["0", "-1", "x", str(10 ** 30), "40"]),
    "k": (["0", "1", "2"], ["-1", "x", "2.5", "1e3", str(10 ** 30), "0x10", "7"]),
    "weight": (["-1", "0", "1", "3"], ["x", "2.5", "1e3", str(10 ** 30), " 2"]),
    "seed": (["0", "7", str(2 ** 64)], ["-1", "x", "1.5", str(10 ** 30)]),
    "n": (["1", "3"], ["0", "-2", str(cli.MAX_SAMPLES + 1), "x", "1e3"]),
}

CONFIGS = {
    "valid.json": {"weights": [2, 1], "point": "0,1;1,1", "gamma": "negation", "r": 1,
                   "k": 0, "weight": 3, "seed": 1, "n": 3, "subgroup": "G'"},
    "wrong-types.json": {"weights": [2.5, True], "point": 5, "gamma": [1], "r": None,
                         "k": "x", "weight": {}, "seed": -1, "n": 10 ** 30, "subgroup": 1},
    "oversized.json": {"weights": [10 ** 30, 1], "n": cli.MAX_SAMPLES + 1, "r": 10 ** 6},
    "unused.json": {"bogus": 1, "membership": "yes", "suite": "none"},
}
GOOD_CONFIGS = ["valid.json", "unused.json"]
GOOD_PLOTS = ["sample.csv", "one-row.csv", "poly.json", "wrapped.json", "empty-poly.json"]
CONFIG_TEXTS = {
    "broken.json": "{", "list.json": "[1, 2]", "null.json": "null", "empty.json": "",
    "nan.json": '{"n": NaN, "weights": [Infinity, 1]}', "deep.json": "[" * 50_000,
    "digits.json": '{"seed": ' + "9" * 5000 + "}",
}
CSV_TEXTS = {
    "sample.csv": "phi1,phi2,phi3\n0.5,0,1.5\n-1,0,2\n",
    "one-row.csv": "phi1,phi3\n1,1\n",
    "no-phi.csv": "a,b\n1,2\n",
    "words.csv": "phi1,phi3\nx,y\n",
    "nan.csv": "phi1,phi3\nnan,1\n",
    "inf.csv": "phi1,phi3\ninf,1\n",
    "huge.csv": "phi1,phi3\n1e308,-1e308\n",
    "short.csv": "phi1,phi2,phi3\n1\n",
    "header-only.csv": "phi1,phi3\n",
    "empty.csv": "",
    "big-field.csv": "phi1,phi3\n" + "1" * 200_000 + ",1\n",
}
JSON_TEXTS = {
    "poly.json": '{"dim":1,"vertices":[["1","1"],["3","1"]]}',
    "wrapped.json": '{"polytope":{"dim":1,"vertices":[["2","1"]]}}',
    "empty-poly.json": '{"dim":1,"vertices":[]}',
    "dim2.json": '{"dim":2,"vertices":[["1","1"]]}',
    "zero-den.json": '{"dim":1,"vertices":[["1","0"]]}',
    "float.json": '{"dim":1,"vertices":[[1.5,1]]}',
    "three.json": '{"dim":1,"vertices":[["1","1"],["2","1"],["3","1"]]}',
    "wide.json": '{"dim":1,"vertices":[["1' + "0" * 400 + '","1"],["-1","1"]]}',
    "no-keys.json": "{}",
    "list-poly.json": "[1]",
    "deep-poly.json": "[" * 50_000,
}
BINARY = {"binary.json": b"\xff\xfe\x00{", "binary.csv": b"\xff\xfephi1,phi3\n"}


def _option_table() -> dict[str, list[argparse.Action]]:
    """Each subcommand's optional actions, as the parser declares them."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in sub._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, sub in subs.choices.items()}


def _value(action: argparse.Action, rng: random.Random, files: dict) -> list[str]:
    """The tokens that follow one option: its nargs values, well-formed or not."""
    if action.nargs == 0:
        return []
    if action.dest in files:
        good, bad = files[action.dest]
    elif action.choices:
        good, bad = list(action.choices), ["Q", "ALL"]
    else:
        good, bad = POOLS[action.dest]
    count = action.nargs if isinstance(action.nargs, int) else 1
    return [rng.choice(good if rng.random() < GOOD else bad + GENERIC) for _ in range(count)]


def _argv(name: str, actions: list, rng: random.Random, files: dict) -> list[str]:
    argv = [name]
    for action in rng.sample(actions, len(actions)):
        if rng.random() < (0.9 if action.required else 0.7):
            argv += [action.option_strings[0], *_value(action, rng, files)]
            if rng.random() < 0.05:  # the same option twice
                argv += [action.option_strings[0], *_value(action, rng, files)]
    roll = rng.random()
    if roll < 0.04:
        argv.append("--bogus")
    elif roll < 0.07:
        argv.append("stray")
    elif roll < 0.10 and len(argv) > 1:
        argv.pop()  # an option left without its last value, or a flag dropped
    elif roll < 0.11:
        argv.append("-h")
    return argv


@pytest.fixture
def fuzz_files(tmp_path, monkeypatch):
    """The input files, with the working directory moved among them so that a
    config-file ``out`` value writes there."""
    monkeypatch.chdir(tmp_path)
    for name, obj in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    for name, text in {**CONFIG_TEXTS, **CSV_TEXTS, **JSON_TEXTS}.items():
        (tmp_path / name).write_text(text)
    for name, data in BINARY.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir.json").mkdir()
    missing = ["missing.json", "missing.csv", "no-dir/x.json"]
    configs = [*CONFIGS, *CONFIG_TEXTS, "binary.json", "dir.json", *missing]
    plots = [*CSV_TEXTS, *JSON_TEXTS, *BINARY, "dir.json", "notes.txt", *missing]
    return {
        "config": (GOOD_CONFIGS, [name for name in configs if name not in GOOD_CONFIGS]),
        "infile": (GOOD_PLOTS, [name for name in plots if name not in GOOD_PLOTS]),
        "out": (["out.svg", "out.csv"], ["no-dir/out.svg", "dir.json", ""]),
    }


def _problem(argv, code, err: str) -> str | None:
    """What is wrong with one run's outcome, or None."""
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if "Traceback" in err:
        return "traceback"
    if code == 2:
        lines = err.splitlines()
        if not lines or not lines[-1].strip():
            return "exit 2 without an error line"
        synopsis = lines[:-1]
        if synopsis and not (synopsis[0].startswith("usage:")
                             and all(line.startswith(" ") for line in synopsis[1:])):
            return f"exit 2 with {len(lines)} lines"
    return None


def test_cli_fuzz(fuzz_files, capsys, monkeypatch):
    monkeypatch.delenv("MPLAB_SEED", raising=False)
    monkeypatch.setattr(checks, "run_suite", lambda suite, seed: [
        checks.CheckResult(f"stub-{suite}", seed % 2 == 0, f"seed {seed}")])
    table = _option_table()
    names = sorted(table)
    rng = random.Random(SEED)
    problems, codes = [], set()
    for i in range(RUNS):
        argv = _argv(names[i % len(names)], table[names[i % len(names)]], rng, fuzz_files)
        if rng.random() < 0.01:
            argv = [rng.choice(["nope", "--weights", ""])] + argv[1:]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001  (any escape is what the fuzz looks for)
            code = f"uncaught {exc!r}"
        err = capsys.readouterr().err
        codes.add(code)
        problem = _problem(argv, code, err)
        if problem:
            problems.append(f"{argv!r}: {problem}: {err[-300:]!r}")
    assert problems == []
    assert codes == {0, 1, 2}  # the pools reach success, a failed check and usage errors
