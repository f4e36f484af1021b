import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mplab import checks, cli, numeric, orbits, reps, svgplot, wire
from mplab.exactlin import GaussianRational
from mplab.orbits import FlagPoint, orbit_representatives
from mplab.polytope import hull


SRC = Path(__file__).resolve().parents[1] / "src"
MEMBERSHIP_MAX = cli.MAX_MEMBERSHIP_WEIGHT_SUM


def run_cli(*argv):
    """A fresh ``python -m mplab`` process; it must end without a traceback."""
    p = subprocess.run([sys.executable, "-m", "mplab", *argv], capture_output=True, text=True)
    assert "Traceback" not in p.stderr, p.stderr
    return p


def run_main(*argv):
    """``cli.main`` in this process, with the exit code and output a fresh
    process would give; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return subprocess.CompletedProcess(list(argv), code, out.getvalue(), err.getvalue())


class TestPolytopeCommand:
    def test_worked_example_exact_stdout(self):
        p = run_cli("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1")
        assert p.returncode == 0
        assert p.stdout.strip() == '{"dim":1,"vertices":[["1","1"],["3","1"]]}'

    def test_json_round_trip(self):
        p = run_main("polytope", "--weights", "3", "2", "--point", "0/1,1/1;1/1,1/1")
        poly = wire.polytope_from_json(json.loads(p.stdout))
        assert poly == hull([1, 5])

    def test_membership_table(self):
        p = run_main("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1",
                     "--membership")
        payload = json.loads(p.stdout)
        assert payload["orbit_class"] == "dense"
        table = {row["lambda"]: row for row in payload["membership"]}
        assert table["1/1"] == {"lambda": "1/1", "member": True, "witness": 1}
        # parity: 3 - 2 is odd, so the even-weight member needs the doubled power
        assert table["2/1"] == {"lambda": "2/1", "member": True, "witness": 2}
        assert table["3/2"] == {"lambda": "3/2", "member": True, "witness": 4}
        assert table["0/1"]["member"] is False

    def test_empty_polytope_round_trips(self):
        p = run_main("polytope", "--weights", "2", "1", "--point", "1/1,0/1;1/1,0/1")
        payload = json.loads(p.stdout)
        assert payload == {"dim": 1, "vertices": []}
        assert wire.polytope_from_json(payload).is_empty

    def test_gaussian_point_literal(self):
        p = run_main("polytope", "--weights", "2", "1", "--point", "1/2+1/3i,1/1;1/1,1/1")
        assert p.returncode == 0
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]

    def test_bad_literal_is_usage_error(self):
        p = run_main("polytope", "--weights", "2", "1", "--point", "not-a-point")
        assert p.returncode == 2

    @pytest.mark.parametrize("point", ["1\t/2,1;1,1", " 1 / 2 ,\n1;1,\t1 ", "1/2+\t0i,1;1,1"])
    def test_whitespace_in_a_point_literal_is_ignored(self, point):
        p = run_main("polytope", "--weights", "2", "1", "--point", point)
        want = run_main("polytope", "--weights", "2", "1", "--point", "1/2,1;1,1")
        assert p.returncode == 0
        assert (p.stdout, p.stderr) == (want.stdout, want.stderr)

    def test_missing_subcommand_usage_error(self):
        p = run_main()
        assert p.returncode == 2


def assert_usage_error(p):
    """Exit 2 with a one-line message on stderr and no traceback."""
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert len(p.stderr.strip().splitlines()) == 1


class TestMalformedInput:
    def test_zero_denominator_point(self):
        assert_usage_error(run_main("polytope", "--weights", "2", "1",
                                    "--point", "1/0,1;1,1"))

    @pytest.mark.parametrize("coord", ["\u0663", "\uff11", "1/\u0662", "1+\u0663i"])
    def test_non_ascii_digits_in_a_point_literal(self, coord):
        # Arabic-Indic three and two, fullwidth one: digits to str.isdigit, not to the grammar
        p = run_main("polytope", "--weights", "2", "1", "--point", f"{coord},1;1,1")
        assert_usage_error(p)
        assert p.stderr == f"error: bad coordinate literal {coord!r}\n"

    def test_non_integer_gamma_matrix(self):
        assert_usage_error(run_main("realpolytope", "--weights", "2", "1",
                                    "--point", "0/1,1/1;1/1,1/1", "--gamma", "[[0.5]]"))

    def test_polytope_json_without_dim(self, tmp_path):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"vertices": [["1", "1"]]}))
        assert_usage_error(run_main("plot", "--in", str(src),
                                    "--out", str(tmp_path / "x.svg")))

    WRONG_TYPE = [
        ({"weights": 5}, "realpolytope"),
        ({"weights": [[1], 1]}, "realpolytope"),
        ({"point": 5}, "realpolytope"),
        ({"gamma": 3}, "realpolytope"),
        ({"seed": [1]}, "sample"),  # only sample and verify read a seed
    ]

    @pytest.mark.parametrize("bad, command", WRONG_TYPE,
                             ids=[json.dumps(bad) for bad, _ in WRONG_TYPE])
    def test_config_value_of_wrong_type(self, tmp_path, bad, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "0/1,1/1;1/1,1/1",
                                   "gamma": "negation", "n": 1, **bad}))
        p = run_main(command, "--config", str(cfg))
        assert_usage_error(p)
        assert f"--{next(iter(bad)).replace('_', '-')}" in p.stderr

    def test_sample_csv_without_moment_columns(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("a,b\n1,2\n")
        assert_usage_error(run_main("plot", "--in", str(src),
                                    "--out", str(tmp_path / "s.svg")))

    def test_sample_csv_with_a_field_over_the_csv_limit(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("phi1,phi3\n" + "1" * 200_000 + ",1\n")
        p = run_main("plot", "--in", str(src), "--out", str(tmp_path / "s.svg"))
        assert_usage_error(p)
        assert p.stderr == (f"error: sample CSV {src}: "
                            f"field larger than field limit (131072)\n")
        assert not (tmp_path / "s.svg").exists()

    @pytest.mark.parametrize("row", ["nan,1.0", "0.5,inf", "-inf,-inf", "1.7e308,-1.7e308"])
    def test_sample_csv_with_unplottable_moment(self, tmp_path, row):
        src = tmp_path / "s.csv"
        src.write_text(f"phi1,phi3\n0.5,0.25\n{row}\n")
        assert_usage_error(run_main("plot", "--in", str(src), "--out", str(tmp_path / "s.svg")))
        assert not (tmp_path / "s.svg").exists()

    @pytest.mark.parametrize("vertices", [[[1.5, 1]], [["1", 2.0]], [[True, 1]]],
                             ids=json.dumps)
    def test_polytope_json_coordinate_not_an_integer(self, tmp_path, vertices):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": 1, "vertices": vertices}))
        assert_usage_error(run_main("plot", "--in", str(src),
                                    "--out", str(tmp_path / "x.svg")))
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("vertices, message", [
        ([["0", "1"], ["1", "1"], ["2", "1"]], "polytope JSON has 3 vertices; "
                                               "an interval has at most two"),
        ([["1", "1"], ["2", "2"]], "polytope JSON repeats the vertex 1"),
        ([["-3", "2"], ["-3", "2"]], "polytope JSON repeats the vertex -3/2"),
    ], ids=["three", "repeated", "repeated-fraction"])
    def test_polytope_json_that_is_not_an_interval(self, tmp_path, vertices, message):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": 1, "vertices": vertices}))
        p = run_main("plot", "--in", str(src), "--out", str(tmp_path / "x.svg"))
        assert_usage_error(p)
        assert p.stderr == f"error: {src}: {message}\n"
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("dim", [1.9, True], ids=json.dumps)
    def test_polytope_json_dim_not_an_integer(self, tmp_path, dim):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": dim, "vertices": [["1", "1"]]}))
        assert_usage_error(run_main("plot", "--in", str(src),
                                    "--out", str(tmp_path / "x.svg")))
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("vertices", [
        [["1" + "0" * 400, "1"]],                           # beyond a float
        [["-1" + "0" * 308, "1"], ["1" + "0" * 308, "1"]],  # a span beyond a float
    ], ids=["huge-vertex", "huge-span"])
    def test_polytope_json_vertex_out_of_float_range(self, tmp_path, vertices):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": 1, "vertices": vertices}))
        assert_usage_error(run_main("plot", "--in", str(src),
                                    "--out", str(tmp_path / "x.svg")))
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("literal", ["[[2]]", "[[1,0],[0,1]]", "[[true]]", "[[1.0]]", "[]"])
    @pytest.mark.parametrize("command", ["realpolytope", "catalog"])
    def test_gamma_literal_other_than_a_sign(self, command, literal, capsys):
        point = ["--point", "0/1,1/1;1/1,1/1"] if command == "realpolytope" else []
        code = cli.main([command, "--weights", "2", "1", *point, "--gamma", literal])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        # refused while parsing --gamma, with one line
        assert captured.err == f"error: involution matrix {literal!r} is not [[-1]] or [[1]]\n"

    @pytest.mark.parametrize("command,bad", [
        (["decompose"], {"weights": [2.7, True], "r": 1.5}),
        (["decompose"], {"weights": [2, 1.0]}),
        (["decompose"], {"r": True}),
        (["decompose"], {"r": 1.5}),
        (["hwv"], {"k": 0.0}),
        (["oracle"], {"weight": False}),
        (["sample", "--point", "0/1,1/1;1/1,1/1"], {"n": 10.0}),
        (["sample", "--point", "0/1,1/1;1/1,1/1"], {"seed": True}),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v[0])
    def test_config_integer_not_an_integer(self, tmp_path, capsys, command, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "r": 1, "k": 0, "weight": 1, **bad}))
        code = cli.main([*command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        name = next(iter(bad))
        assert captured.err == (f"error: bad value for --{name} in config file: "
                                f"{json.dumps(bad[name])}\n")

    def test_config_integer_strings_still_read(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"weights": ["2", 1], "r": "1"}))
        assert cli.main(["decompose", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["weights"] == [2, 1]

    @pytest.mark.parametrize("command", [
        lambda path: ["polytope", "--config", path],
        lambda path: ["plot", "--in", path, "--out", path + ".svg"],
    ], ids=["polytope-config", "plot-in"])
    def test_deeply_nested_json_file(self, tmp_path, capsys, command):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100_000)
        code = cli.main(command(str(src)))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {src} is nested too deeply to read as JSON\n"
        assert not (tmp_path / "deep.json.svg").exists()

    UNREADABLE = {
        "not-utf8": (b"\xff\xfe\x00{", "'utf-8' codec can't decode byte 0xff in position 0: "
                                        "invalid start byte"),
        "broken": (b"{", "Expecting property name enclosed in double quotes: "
                         "line 1 column 2 (char 1)"),
        "digits": (b'{"seed": ' + b"9" * 4301 + b"}", "Exceeds the limit (4300 digits) for "
                   "integer string conversion: value has 4301 digits; use "
                   "sys.set_int_max_str_digits() to increase the limit"),
    }

    @pytest.mark.parametrize("case", UNREADABLE)
    @pytest.mark.parametrize("command", [
        lambda path: ["polytope", "--config", path],
        lambda path: ["plot", "--in", path, "--out", path + ".svg"],
    ], ids=["polytope-config", "plot-in"])
    def test_unreadable_json_file_is_named(self, tmp_path, capsys, command, case):
        data, reason = self.UNREADABLE[case]
        src = tmp_path / "bad.json"
        src.write_bytes(data)
        code = cli.main(command(str(src)))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {src} cannot be read as JSON: {reason}\n"
        assert not (tmp_path / "bad.json.svg").exists()

    def test_sample_csv_that_is_not_utf8_is_named(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_bytes(b"\xff\xfephi1,phi3\n")
        code = cli.main(["plot", "--in", str(src), "--out", str(tmp_path / "s.svg")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: sample CSV {src}: 'utf-8' codec can't decode byte "
                                f"0xff in position 0: invalid start byte\n")
        assert not (tmp_path / "s.svg").exists()

    UNPLOTTABLE = {
        "word": ("s.csv", "phi1,phi3\nx,y\n",
                 "sample CSV {src}, line 2: could not convert string to float: 'x'"),
        "short-row": ("s.csv", "phi1,phi3\n1,2\n3\n",
                      "sample CSV {src}, line 3: could not convert string to float: ''"),
        "no-dim": ("p.json", '{"vertices": []}',
                   '{src}: polytope JSON must be an object with "dim" and "vertices"'),
        "dim-2": ("p.json", '{"dim": 2, "vertices": []}',
                  "{src}: polytope JSON has dim 2; only dim 1 is supported"),
        # refused while drawing: svgplot's checks of the values read
        "nan": ("s.csv", "phi1,phi3\n0.5,0.25\nnan,1.0\n",
                "sample CSV {src}: moment values must be finite, with a range a float can hold"),
        "beyond-float": ("p.json", '{"dim": 1, "vertices": [["1%s", "1"]]}' % ("0" * 400),
                         "{src}: polytope vertices must lie in a range a float can hold"),
    }

    @pytest.mark.parametrize("case", UNPLOTTABLE)
    def test_plot_input_that_cannot_be_read_is_named(self, tmp_path, capsys, case):
        name, text, message = self.UNPLOTTABLE[case]
        src = tmp_path / name
        src.write_text(text)
        code = cli.main(["plot", "--in", str(src), "--out", str(tmp_path / "x.svg")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message.format(src=src)}\n"
        assert not (tmp_path / "x.svg").exists()

    def test_deeply_nested_gamma_literal(self, capsys):
        code = cli.main(["catalog", "--weights", "2", "1", "--gamma", "[" * 100_000])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: unknown involution tag")
        assert len(captured.err.splitlines()) == 1


class TestInputLimits:
    @pytest.fixture
    def no_representation_work(self, monkeypatch):
        """Any brute-force invariant subspace or achieved hull fails the test."""
        def forbidden(*args):
            raise AssertionError("representation work before the input limit")
        monkeypatch.setattr(cli, "n_invariant_subspace", forbidden)
        monkeypatch.setattr(reps, "n_invariant_subspace", forbidden)
        monkeypatch.setattr(orbits, "_achieved_hull", forbidden)

    @staticmethod
    def assert_refused_before_work(argv):
        """The limit error comes first, as one line with exit 2."""
        p = run_main(*argv)
        assert_usage_error(p)
        assert "limit 2500" in p.stderr

    def test_oversized_oracle_fails_fast(self, no_representation_work):
        self.assert_refused_before_work(
            ["oracle", "--weights", "30", "30", "--r", "3", "--weight", "0"])

    @pytest.mark.parametrize("command", [["decompose"], ["hwv", "--k", "0"]])
    def test_oversized_section_space(self, command):
        assert_usage_error(run_main(*command, "--weights", "50", "49", "--r", "1"))

    def test_largest_section_space_accepted(self):
        p = run_main("decompose", "--weights", "49", "49", "--r", "1")
        assert p.returncode == 0
        assert json.loads(p.stdout)["section_dim"] == 2500

    def test_oversized_catalog_fails_fast(self, no_representation_work):
        self.assert_refused_before_work(
            ["catalog", "--weights", "80", "80", "--gamma", "negation"])

    @pytest.mark.parametrize("command", [["catalog"],
                                         ["realpolytope", "--point", "0/1,1/1;1/1,1/1"]])
    def test_oversized_representation_route(self, command, no_representation_work):
        # the route's r = 1 section space (50 + 1)(49 + 1) = 2550
        p = run_main(*command, "--weights", "50", "49", "--gamma", "negation")
        assert_usage_error(p)
        assert p.stderr == "error: section space dimension 2550 exceeds the limit 2500\n"

    def test_largest_representation_route_accepted(self):
        # the route's r = 1 section space (49 + 1)(49 + 1) = 2500
        p = run_main("realpolytope", "--weights", "49", "49",
                     "--point", "0/1,1/1;1/1,1/1", "--gamma", "negation")
        assert p.returncode == 0
        assert json.loads(p.stdout)["equal"] is True

    def test_oversized_route_point_fails_fast(self, no_representation_work, monkeypatch):
        def forbidden(*args):
            raise AssertionError("route work before the point-size limit")
        monkeypatch.setattr(cli, "real_moment_polytope", forbidden)
        # a first-factor point with three distinct 4200-digit denominators
        dens = ["9" * 4200, "9" * 4199 + "7", "9" * 4199 + "1"]
        literal = f"1/{dens[0]},1/{dens[1]};1/{dens[2]},0"
        assert len(literal) == 12_610
        start = time.perf_counter()
        p = run_main("realpolytope", "--weights", "49", "49", "--point", literal,
                     "--gamma", "negation")
        assert time.perf_counter() - start < 1.0
        assert_usage_error(p)
        assert p.stderr == "error: point size 4102966 exceeds the limit 150000\n"

    @pytest.mark.parametrize("extra_bit", [False, True], ids=["at-limit", "one-bit-over"])
    def test_route_point_size_limit(self, extra_bit):
        # 1/A, 1/B, 1/C and 1 carry 9 + 3 * 622 bits; times L1 + L2 = 80 that
        # is the limit, and an A of 623 bits puts the point 80 over it
        assert cli.MAX_ROUTE_POINT_SIZE == 80 * (9 + 3 * 622)
        a = 2 ** (622 if extra_bit else 621) + 1
        literal = f"1/{a},1/{2 ** 621 + 3};1/{2 ** 621 + 5},1"
        p = run_main("realpolytope", "--weights", "40", "40", "--point", literal,
                     "--gamma", "negation")
        if extra_bit:
            assert_usage_error(p)
            assert p.stderr == "error: point size 150080 exceeds the limit 150000\n"
        else:
            assert p.returncode == 0
            assert json.loads(p.stdout)["equal"] is True

    def test_oversized_sample(self, tmp_path):
        p = run_main("sample", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1",
                     "--n", "100001", "--out", str(tmp_path / "s.csv"))
        assert_usage_error(p)
        assert "limit 100000" in p.stderr
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("point,members", [("0/1,1/1;1/1,1/1", 2 * MEMBERSHIP_MAX + 1),
                                               ("1/1,1/1;1/1,1/1", 1)], ids=["dense", "diagonal"])
    def test_largest_membership_table_accepted(self, capsys, point, members):
        half = MEMBERSHIP_MAX // 2
        argv = ["polytope", "--membership", "--point", point,
                "--weights", str(half), str(MEMBERSHIP_MAX - half)]
        assert cli.main(argv) == 0
        table = json.loads(capsys.readouterr().out)["membership"]
        assert len(table) == 2 * MEMBERSHIP_MAX + 5
        assert sum(row["member"] for row in table) == members
        assert table[-1]["lambda"] == f"{MEMBERSHIP_MAX + 1}/1"

    def test_membership_table_decides_the_predicates_once(self, capsys, monkeypatch):
        calls, predicates = [], orbits.orbit_predicates

        def counted(x):
            calls.append(x)
            return predicates(x)

        monkeypatch.setattr(orbits, "orbit_predicates", counted)
        monkeypatch.setattr(cli, "orbit_predicates", counted, raising=False)
        argv = ["polytope", "--membership", "--point", "1,2;3,5", "--weights", "100", "100"]
        assert cli.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["membership"]) == 405
        assert len(calls) <= 2  # the polytope, which the table reads, and the orbit class

    def test_oversized_membership_table(self, capsys):
        half = MEMBERSHIP_MAX // 2
        argv = ["polytope", "--point", "0/1,1/1;1/1,1/1",
                "--weights", str(half), str(MEMBERSHIP_MAX - half + 1)]
        assert cli.main([*argv, "--membership"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --membership needs L1 + L2 <= {MEMBERSHIP_MAX}, "
                                f"got {MEMBERSHIP_MAX + 1}\n")
        assert cli.main(argv) == 0  # the polytope alone has no such limit

    @pytest.mark.parametrize("flag", [["--r-max", "1"], ["--eps", "0.001"]])
    def test_removed_options_are_unknown(self, flag):
        p = run_main("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1", *flag)
        assert p.returncode == 2


DEMO_05 = SRC.parent / "demos" / "05_numeric_laboratory.py"

NO_SCIPY_GATE = """
import contextlib, hashlib, io, json, runpy, sys
if sys.argv[1] == "without":
    sys.modules["scipy"] = None  # every import of scipy or a submodule raises ImportError
import numpy as np
from mplab import cli, numeric
from mplab.orbits import OrbitClass, orbit_representatives


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return [cli.main(argv), out.getvalue(), err.getvalue()]


got = {"verify": run(["verify", "--suite", "all", "--seed", "0"])}
for sub in ("B", "H", "G", "G'"):
    got[sub] = run(["sample", "--weights", "2", "1", "--point", "1/2+1/3i,1;1,1",
                    "--subgroup", sub, "--n", "2000", "--seed", "5", "--out", "s.csv"])
    with open("s.csv", "rb") as fh:
        got[sub].append(hashlib.sha256(fh.read()).hexdigest())
xi = np.array([[0.3 + 0.1j, 0.4 - 0.2j], [0, -0.3 - 0.1j]])
for norm in (0.016, 30):
    a = xi * (norm / np.abs(xi).sum(axis=0).max())
    got[f"flow {norm}"] = numeric._flow_matrix(a).tobytes().hex()
dense = orbit_representatives()[OrbitClass.DENSE]
a, b = (numeric.sample_orbit(dense, "G", 10_000, seed, 2, 1).phis for seed in (3, 103))
got["hausdorff"] = numeric.hausdorff_distance(a, b)
got["scipy"] = sorted(m for m, mod in sys.modules.items()
                      if m.split(".")[0] == "scipy" and mod is not None)
with contextlib.redirect_stdout(io.StringIO()) as out:
    runpy.run_path(sys.argv[2], run_name="__main__")
got["demo 05"] = out.getvalue()
if sys.argv[1] == "with":
    from scipy.spatial import cKDTree
    got["tree"] = float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))
print(json.dumps(got))
"""


class TestImportLayering:
    """The exact subcommands load neither NumPy nor SciPy nor ``dataclasses``,
    ``svgplot`` and ``csv`` load only for ``plot``, verify loads no SciPy and
    no ``dataclasses``, and without SciPy every command, check and demo gives
    the same results."""

    def run_python(self, code, tmp_path):
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        p = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                           capture_output=True, text=True, env=env)
        assert p.returncode == 0, p.stderr
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_exact_subcommands_load_neither(self, tmp_path):
        loaded = self.run_python("""
            import contextlib, io, json, sys
            from mplab import cli
            point, w = "0/1,1/1;1/1,1/1", ["--weights", "2", "1"]
            commands = [
                ["polytope", *w, "--point", point, "--membership"],
                ["realpolytope", *w, "--point", point, "--gamma", "negation"],
                ["catalog", *w, "--gamma", "negation"],
                ["decompose", *w, "--r", "1"],
                ["hwv", *w, "--r", "1", "--k", "1"],
                ["oracle", *w, "--r", "1", "--weight", "1"],
            ]
            watched = ("numpy", "scipy", "dataclasses", "csv", "mplab.svgplot")
            def modules():
                return sorted(m for m in sys.modules
                              if m in watched or m.split(".")[0] in ("numpy", "scipy"))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                codes = [cli.main(c) for c in commands]
            exact = modules()
            with open("poly.json", "w") as fh:
                fh.write(out.getvalue().splitlines()[0])
            codes.append(cli.main(["plot", "--in", "poly.json", "--out", "poly.svg"]))
            print(json.dumps({"codes": codes, "exact": exact, "plot": modules()}))
            """, tmp_path)
        assert loaded == {"codes": [0] * 7, "exact": [], "plot": ["csv", "mplab.svgplot"]}

    def test_verify_loads_no_scipy(self, tmp_path):
        loaded = self.run_python("""
            import contextlib, io, json, sys
            from mplab import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--suite", "all"])
            print(json.dumps({"code": code, "modules": sorted(
                m for m in sys.modules if m.split(".")[0] in ("scipy", "dataclasses"))}))
            """, tmp_path)
        assert loaded == {"code": 0, "modules": []}

    def test_numeric_loads_numpy_only(self, tmp_path):
        loaded = self.run_python("""
            import json, sys
            import mplab.numeric
            print(json.dumps(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})))
            """, tmp_path)
        assert loaded == ["numpy"]

    def test_numpy_alone_gives_the_same_results(self, tmp_path):
        # The same script runs with SciPy and with every SciPy import refused;
        # the two processes run side by side.
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs = {}
        for side in ("with", "without"):
            (tmp_path / side).mkdir()
            runs[side] = subprocess.Popen(
                [sys.executable, "-c", NO_SCIPY_GATE, side, str(DEMO_05)], cwd=tmp_path / side,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        got = {}
        for side, p in runs.items():
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            got[side] = json.loads(out.strip().splitlines()[-1])
        assert got["without"].pop("scipy") == []
        assert got["with"].pop("scipy") == []  # the shells went to the cell grid
        assert got["without"]["hausdorff"] == got["with"].pop("tree")
        assert got["without"]["verify"][0] == 0
        assert [got["without"][sub][0] for sub in ("B", "H", "G", "G'")] == [0] * 4
        assert got["without"] == got["with"]


class TestRealPolytopeCommand:
    def test_routes_agree(self):
        p = run_cli("realpolytope", "--weights", "2", "1",
                    "--point", "0/1,1/1;1/1,1/1", "--gamma", "negation")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["equal"] is True
        assert payload["intersection_route"] == payload["membership_route"]

    def test_identity_involution(self):
        p = run_main("realpolytope", "--weights", "1", "1",
                     "--point", "0/1,1/1;1/1,1/1", "--gamma", "identity")
        payload = json.loads(p.stdout)
        assert payload["equal"] is True
        assert payload["intersection_route"] == {"dim": 1, "vertices": [["0", "1"]]}

    def test_disagreement_reports_both_routes(self, disagreeing_routes, capsys):
        code = cli.main(["realpolytope", "--weights", "2", "1",
                         "--point", "0/1,1/1;1/1,1/1", "--gamma", "negation"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["equal"] is False
        assert payload["intersection_route"] == {"dim": 1, "vertices": [["1", "1"], ["3", "1"]]}
        assert payload["membership_route"] == {"dim": 1, "vertices": [["1", "1"]]}
        assert captured.err == "routes DISAGREE: [1, 3]\n"

    def test_matrix_gamma_literal(self):
        p = run_main("realpolytope", "--weights", "2", "1",
                     "--point", "0/1,1/1;1/1,1/1", "--gamma", "[[-1]]")
        assert p.returncode == 0
        assert json.loads(p.stdout)["equal"] is True


@pytest.mark.parametrize("literal, tag", [("[[-1]]", "negation"), ("[[1]]", "identity")])
@pytest.mark.parametrize("command", ["realpolytope", "catalog"])
def test_matrix_literal_prints_what_its_tag_prints(command, literal, tag, capsys):
    """Apart from the catalog's "gamma" label, a matrix literal is its tag."""
    argv = [command, "--weights", "1", "1"]
    if command == "realpolytope":
        argv += ["--point", "0/1,1/1;1/1,1/1"]
    assert cli.main([*argv, "--gamma", literal]) == 0
    by_literal = capsys.readouterr()
    assert cli.main([*argv, "--gamma", tag]) == 0
    by_tag = capsys.readouterr()
    assert by_literal.out.replace('"gamma":"matrix"', f'"gamma":"{tag}"') == by_tag.out
    assert by_literal.err == by_tag.err


class TestCatalogCommand:
    def test_worked_catalog(self):
        p = run_cli("catalog", "--weights", "2", "1", "--gamma", "negation")
        payload = json.loads(p.stdout)
        assert payload["count"] == 4
        assert {"dim": 1, "vertices": []} in payload["polytopes"]
        assert {"dim": 1, "vertices": [["1", "1"], ["3", "1"]]} in payload["polytopes"]


class TestAlgebraCommands:
    def test_decompose(self):
        p = run_cli("decompose", "--weights", "2", "1", "--r", "1")
        payload = json.loads(p.stdout)
        assert payload["highest_weights"] == [3, 1]
        assert payload["dims"] == [4, 2]
        assert payload["section_dim"] == 6

    def test_hwv_forms(self):
        p = run_cli("hwv", "--weights", "1", "1", "--r", "1", "--k", "1")
        payload = json.loads(p.stdout)
        assert payload["forms_equal"] is True
        assert payload["sum_form"] == "x1*y2 - y1*x2"
        assert payload["product_form"] == "(x1*y2 - x2*y1)"
        assert payload["weight"] == 0

    def test_oracle(self):
        p = run_cli("oracle", "--weights", "1", "1", "--r", "1", "--weight", "0")
        payload = json.loads(p.stdout)
        assert payload["dimension"] == 1
        assert payload["basis"] == ["x1*y2 - y1*x2"]

    def test_oracle_empty(self):
        p = run_main("oracle", "--weights", "1", "1", "--r", "1", "--weight", "-2")
        assert json.loads(p.stdout)["dimension"] == 0


class TestVerifyCommand:
    def test_lagrangian_suite_passes(self):
        p = run_main("verify", "--suite", "lagrangian")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["passed"] is True

    def test_reports_are_byte_identical(self):
        a = run_cli("verify", "--suite", "coadjoint", "--seed", "5")
        b = run_cli("verify", "--suite", "coadjoint", "--seed", "5")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_parser_tables_agree(self):
        # cli spells out the suite names so that it need not import checks to start
        parser = cli.build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in subs.choices["verify"]._actions if a.dest == "suite")
        assert suite.choices == [*checks.SUITES, "all"]
        used = {name for _, _, names in cli._COMMANDS.values() for name in names}
        assert used == set(cli._OPTIONS)

    def test_unknown_suite_usage_error(self):
        p = run_main("verify", "--suite", "bogus")
        assert p.returncode == 2


class TestSampleAndPlot:
    POINT = ["sample", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1"]

    @pytest.fixture
    def no_draw(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("sampled before the request and --out were checked")
        monkeypatch.setattr(numeric, "sample_orbit", no_work)

    def test_unwritable_out_fails_before_sampling(self, tmp_path, capsys, no_draw):
        out = tmp_path / "missing" / "x.csv"
        assert cli.main([*self.POINT, "--n", "100000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("config, message", [
        ({"subgroup": "K"}, "unknown subgroup tag 'K'; expected B, H, G or G'"),
        ({"n": 0}, "need n >= 1"),
    ])
    def test_refused_request_leaves_out_untouched(self, tmp_path, capsys, no_draw,
                                                  config, message):
        out = tmp_path / "x.csv"
        out.write_text("kept\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([*self.POINT, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("existing", [True, False])
    def test_refused_draw_leaves_out_untouched(self, tmp_path, capsys, existing):
        out = tmp_path / "x.csv"
        if existing:
            out.write_text("kept\n")
        argv = ["sample", "--weights", "2", "1", "--point", f"{10 ** 153},1;1,1",
                "--subgroup", "B", "--n", "1000", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == ("error: a drawn orbit point leaves the float range;"
                                           " scale the base point's pairs toward 1\n")
        assert list(tmp_path.iterdir()) == ([out] if existing else [])
        if existing:
            assert out.read_text() == "kept\n"

    def test_zero_pair_point_exits_2_before_sampling(self, capsys, no_draw):
        argv = ["sample", "--weights", "2", "1", "--point", "0,0;1,1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: first coordinate pair is (0, 0)\n"

    def test_pair_overflowing_a_float_exits_2_before_sampling(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew matrices for a refused base point")
        monkeypatch.setattr(numeric, "_draw_matrices", no_draw)
        argv = ["sample", "--weights", "2", "1", "--point", f"{10 ** 200},1;1,1", "--n", "2"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: squared modulus of the coordinate pair") and "overflows" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("weights, point", [
        (["2", "1"], "9" * 400 + ",1;1,1"),
        (["1" + "0" * 400, "1"], "0,1;1,1"),
    ], ids=["coordinate", "weight"])
    def test_beyond_a_float_exits_2_before_sampling(self, capsys, monkeypatch, weights, point):
        def no_draw(*args):
            raise AssertionError("drew matrices for a refused input")
        monkeypatch.setattr(numeric, "_draw_matrices", no_draw)
        assert cli.main(["sample", "--weights", *weights, "--point", point, "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond the float range" in err
        assert err.count("\n") == 1

    def test_sample_csv(self, tmp_path):
        out = tmp_path / "samples.csv"
        p = run_cli("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                    "--subgroup", "H", "--n", "25", "--seed", "3", "--out", str(out))
        assert p.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("a1re,a1im,c1re")
        assert len(lines) == 26

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        with monkeypatch.context() as env:
            env.setenv("MPLAB_SEED", "99")
            run_main("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                     "--n", "10", "--out", str(out1))
        run_main("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                 "--n", "10", "--seed", "99", "--out", str(out2))
        assert out1.read_text() == out2.read_text()

    def test_plot_polytope(self, tmp_path):
        src = tmp_path / "poly.json"
        p = run_main("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1")
        src.write_text(p.stdout)
        out = tmp_path / "poly.svg"
        q = run_cli("plot", "--in", str(src), "--out", str(out))
        assert q.returncode == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert 'version="1.1"' in text
        # render-only: the source artifact is untouched
        assert json.loads(src.read_text()) == json.loads(p.stdout)

    def test_plot_wide_polytope_ticks_by_powers_of_ten(self):
        # one tick per integer would draw a million; the span of 1.2e6 steps by 1e5
        svg = svgplot.render_polytope_svg(hull([0, 10**6]))
        assert svg.count("<text") == 1 + 13
        assert ">1000000</text>" in svg

    def test_plot_samples(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        run_main("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                 "--n", "50", "--seed", "0", "--out", str(csv_path))
        out = tmp_path / "s.svg"
        q = run_main("plot", "--in", str(csv_path), "--out", str(out))
        assert q.returncode == 0
        assert out.read_text().count("<circle") == 50

    def test_plot_rejects_other_files(self, tmp_path):
        src = tmp_path / "x.txt"
        src.write_text("hello")
        q = run_main("plot", "--in", str(src), "--out", str(tmp_path / "x.svg"))
        assert_usage_error(q)
        assert q.stderr == "error: plot input must be a .json polytope or .csv sample file\n"
        assert not (tmp_path / "x.svg").exists()


# Every command that takes weights, with the other options it needs.
WEIGHT_COMMANDS = {
    "polytope": ["--point", "0/1,1/1;1/1,1/1"],
    "realpolytope": ["--point", "0/1,1/1;1/1,1/1", "--gamma", "negation"],
    "catalog": ["--gamma", "negation"],
    "decompose": [],
    "hwv": ["--k", "0"],
    "oracle": ["--weight", "1"],
    "sample": ["--point", "0/1,1/1;1/1,1/1", "--n", "3"],
}


@pytest.mark.parametrize("weights", [["0", "1"], ["1", "-2"]], ids=" ".join)
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", WEIGHT_COMMANDS)
def test_weight_below_one_is_a_usage_error(tmp_path, command, from_config, weights):
    argv = [command, *WEIGHT_COMMANDS[command]]
    if command == "sample":
        argv += ["--out", str(tmp_path / "x.csv")]
    if from_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"weights": [int(w) for w in weights]}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--weights", *weights]
    p = run_main(*argv)
    assert_usage_error(p)
    assert (p.stdout, p.stderr) == ("", "error: both weights must be integers >= 1\n")
    assert [f.name for f in tmp_path.iterdir()] == (["c.json"] if from_config else [])


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "0/1,1/1;1/1,1/1"}))
        p = run_main("polytope", "--config", str(cfg))
        assert p.returncode == 0
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]

    def test_removed_keys_are_ignored(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "0/1,1/1;1/1,1/1",
                                   "r_max": None, "eps": [1]}))
        p = run_main("polytope", "--config", str(cfg))
        assert p.returncode == 0
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]

    @pytest.mark.parametrize("command, unused", [
        (["polytope", "--point", "0/1,1/1;1/1,1/1"], {"gamma": "bogus"}),
        (["decompose"], {"point": "garbage"}),
        (["polytope", "--point", "0/1,1/1;1/1,1/1"], {"gamma": 3}),
        (["decompose"], {"point": 5}),
    ], ids=["polytope-gamma", "decompose-point", "polytope-gamma-int", "decompose-point-int"])
    def test_unused_keys_are_ignored(self, tmp_path, capsys, command, unused):
        argv = [*command, "--weights", "2", "1"]
        assert cli.main(argv) == 0
        clean = capsys.readouterr()
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(unused))
        assert cli.main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == clean

    def test_config_types_are_checked_before_the_command(self, tmp_path, capsys):
        # two faults: a weight below 1 and a config value of the wrong type;
        # the config file is read in full before the command checks its weights
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"out": 5}))
        code = cli.main(["sample", "--weights", "0", "1", "--point", "0,1;1,1",
                         "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: bad value for --out in config file: 5\n"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "1/1,0/1;1/1,0/1"}))
        p = run_main("polytope", "--config", str(cfg),
                     "--point", "0/1,1/1;1/1,1/1")
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]


class TestSeedOption:
    """Only sample and verify take a seed: the flag, then the config file,
    then MPLAB_SEED, then 0.  A negative seed is refused before any work."""

    @pytest.mark.parametrize("command", [
        ["polytope", "--point", "0/1,1/1;1/1,1/1"],
        ["realpolytope", "--point", "0/1,1/1;1/1,1/1", "--gamma", "negation"],
        ["catalog", "--gamma", "negation"],
        ["decompose"],
        ["hwv", "--k", "0"],
        ["oracle", "--weight", "1"],
    ], ids=lambda command: command[0])
    def test_seed_is_unknown_elsewhere(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--weights", "2", "1", "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_bad_seed_environment_is_ignored_elsewhere(self, capsys, monkeypatch):
        argv = ["polytope", "--weights", "2", "1", "--point", "0,1;1,1"]
        assert cli.main(argv) == 0
        clean = capsys.readouterr()
        monkeypatch.setenv("MPLAB_SEED", "abc")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == clean

    @pytest.mark.parametrize("source", ["flag", "config", "environment"])
    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "all"],
        ["verify", "--suite", "coadjoint"],
        ["verify", "--suite", "lagrangian"],
        ["sample", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1", "--n", "5"],
    ], ids=["verify-all", "verify-coadjoint", "verify-lagrangian", "sample"])
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                             command, source):
        argv = [*command]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "config":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv("MPLAB_SEED", "-1")

        def no_work(*args, **kwargs):
            raise AssertionError("the seed was refused after the work began")
        monkeypatch.setattr(checks, "run_suite", no_work)
        monkeypatch.setattr(numeric, "sample_orbit", no_work)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: seed -1 is negative; a seed is an integer >= 0\n"

    def test_seed_environment_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("MPLAB_SEED", "abc")
        assert cli.main(["verify", "--suite", "lagrangian"]) == 2
        assert capsys.readouterr().err == "error: MPLAB_SEED='abc' is not an integer\n"

    @pytest.mark.parametrize("env", ["\u0663", "1_0"], ids=ascii)
    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "lagrangian"],
        ["sample", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1", "--n", "5"],
    ], ids=lambda command: command[0])
    def test_seed_environment_outside_the_integer_grammar(self, capsys, monkeypatch,
                                                          command, env):
        # int() reads Arabic-Indic three as 3 and 1_0 as 10; a config value may not
        def no_work(*args, **kwargs):
            raise AssertionError("the seed was refused after the work began")
        monkeypatch.setattr(checks, "run_suite", no_work)
        monkeypatch.setattr(numeric, "sample_orbit", no_work)
        monkeypatch.setenv("MPLAB_SEED", env)
        assert cli.main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: MPLAB_SEED={env!r} is not an integer\n"


# Each integer flag: the argv of a subcommand that takes it, up to the flag's
# last value (``--weights`` has its first value given).
INTEGER_FLAGS = {
    "--weights": ["polytope", "--point", "0,1;1,1", "--weights", "2"],
    "--r": ["decompose", "--weights", "2", "1", "--r"],
    "--k": ["hwv", "--weights", "2", "1", "--k"],
    "--weight": ["oracle", "--weights", "2", "1", "--weight"],
    "--seed": ["verify", "--suite", "lagrangian", "--seed"],
    "--n": ["sample", "--weights", "2", "1", "--point", "0,1;1,1", "--n"],
}
# Integers to int() but not to the grammar: Arabic-Indic two, fullwidth one,
# an underscore, a plus sign and a leading space.
OUTSIDE_THE_GRAMMAR = ["\u0662", "\uff11", "1_0", "+2", " 2"]


class TestIntegerGrammar:
    """Flags, config values and ``MPLAB_SEED`` read an integer by one grammar,
    ``wire.json_int``'s ASCII ``-?[0-9]+``."""

    @pytest.mark.parametrize("bad", OUTSIDE_THE_GRAMMAR, ids=ascii)
    @pytest.mark.parametrize("flag", INTEGER_FLAGS)
    def test_flag_outside_the_grammar_is_a_usage_error(self, flag, bad):
        argv = INTEGER_FLAGS[flag]
        p = run_main(*argv, bad)
        assert p.returncode == 2 and p.stdout == ""
        assert p.stderr.startswith("usage: mplab ")
        assert p.stderr.splitlines()[-1] == (f"mplab {argv[0]}: error: argument {flag}: "
                                             f"invalid json_int value: {bad!r}")

    @pytest.mark.parametrize("command, name, tokens, value", [
        (["oracle", "--weights", "2", "1"], "weight", ["-1"], -1),
        (["hwv", "--weights", "2", "1"], "k", ["001"], 1),
        (["decompose", "--weights", "2", "1"], "r", ["007"], 7),
        (["polytope", "--point", "0,1;1,1"], "weights", ["007", "1"], [7, 1]),
        (["sample", "--weights", "2", "1", "--point", "0,1;1,1", "--n", "3"], "seed",
         [str(2 ** 64)], 2 ** 64),
    ], ids=["weight=-1", "k=001", "r=007", "weights=007,1", "seed=2**64"])
    def test_well_formed_flags_read_as_their_config_values(self, tmp_path, command, name,
                                                            tokens, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({name: value}))
        p = run_main(*command, f"--{name}", *tokens)
        q = run_main(*command, "--config", str(cfg))
        assert p.returncode == q.returncode == 0
        assert (p.stdout, p.stderr) == (q.stdout, q.stderr)

    @pytest.mark.parametrize("text", ["0", "7", "-1", "-0", "007", str(2 ** 64),
                                      *OUTSIDE_THE_GRAMMAR, "1e3", "0x10", ""], ids=ascii)
    def test_flag_config_and_wire_share_one_grammar(self, tmp_path, text):
        def read_r(argv):
            """``--r`` as ``decompose`` reads it, or None where it is refused."""
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    args = cli.build_parser().parse_args(argv)
                    cli._resolve(args)
                except (SystemExit, ValueError):
                    return None
            return args.r

        try:
            want = wire.json_int(text)
        except ValueError:
            want = None
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"r": text}))
        assert read_r(["decompose", "--r", text]) == want
        assert read_r(["decompose", "--config", str(cfg)]) == want


class TestWireFormats:
    def test_round_trip_all_catalog_polytopes(self):
        from mplab.orbits import enumerate_polytope_catalog
        from mplab.weights import negation_involution
        for poly in enumerate_polytope_catalog(3, 2, negation_involution()):
            assert wire.polytope_from_json(wire.polytope_to_json(poly)) == poly

    def test_2d_polytope_json_rejected(self, tmp_path):
        square = {"dim": 2, "vertices": [[["0", "1"], ["0", "1"]], [["1", "1"], ["1", "1"]]]}
        with pytest.raises(ValueError, match="dim 2"):
            wire.polytope_from_json(square)
        src = tmp_path / "square.json"
        src.write_text(json.dumps(square))
        assert_usage_error(run_main("plot", "--in", str(src), "--out", str(tmp_path / "x.svg")))

    @pytest.mark.parametrize("vertices", [["34"], ["34", "56"], {"12": 0}, "12",
                                          [["1", "2", "3"]], [[]], [{"1": "2"}]],
                             ids=repr)
    def test_vertex_that_is_not_a_pair_array_is_refused(self, vertices):
        # a two-character string unpacks like a pair, "34" as 3/4
        with pytest.raises(ValueError, match=r"must be (a \[num, den\] array|an array)$"):
            wire.polytope_from_json({"dim": 1, "vertices": vertices})

    def test_plot_refuses_a_string_vertex(self, tmp_path):
        src = tmp_path / "strings.json"
        src.write_text(json.dumps({"dim": 1, "vertices": ["34", "56"]}))
        out = tmp_path / "x.svg"
        p = run_main("plot", "--in", str(src), "--out", str(out))
        assert_usage_error(p)
        assert p.stderr == f"error: {src}: a polytope JSON vertex must be a [num, den] array\n"
        assert not out.exists()

    def test_point_literal_round_trip(self):
        for x in orbit_representatives().values():
            assert wire.parse_point_literal(wire.format_point(x)) == x

    @given(st.booleans(), st.lists(st.fractions(max_denominator=10 ** 6), min_size=8,
                                   max_size=8))
    @settings(deadline=None, max_examples=60)
    def test_point_literal_round_trip_property(self, real, parts):
        if real:
            parts[1::2] = [Fraction(0)] * 4
        coords = [GaussianRational(re, im) for re, im in zip(parts[0::2], parts[1::2])]
        assume(not (coords[0].is_zero and coords[1].is_zero))
        assume(not (coords[2].is_zero and coords[3].is_zero))
        x = FlagPoint(*coords)
        back = wire.parse_point_literal(wire.format_point(x))
        assert back == x
        assert back.coords == x.coords

    def test_gaussian_literals(self):
        g = wire.parse_gaussian("1/2-3/4i")
        assert str(g) == "1/2-3/4i"
        with pytest.raises(ValueError):
            wire.parse_gaussian("1/2+i")
