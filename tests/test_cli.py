import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from mplab import checks, cli, numeric, svgplot, wire
from mplab.orbits import orbit_representatives
from mplab.polytope import equals, hull


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv, env=None):
    full_env = os.environ.copy()
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "mplab", *argv],
                          capture_output=True, text=True, env=full_env)


class TestPolytopeCommand:
    def test_worked_example_exact_stdout(self):
        p = run_cli("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1")
        assert p.returncode == 0
        assert p.stdout.strip() == '{"dim":1,"vertices":[["1","1"],["3","1"]]}'

    def test_json_round_trip(self):
        p = run_cli("polytope", "--weights", "3", "2", "--point", "0/1,1/1;1/1,1/1")
        poly = wire.polytope_from_json(json.loads(p.stdout))
        assert equals(poly, hull([1, 5]))

    def test_membership_table(self):
        p = run_cli("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1",
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
        p = run_cli("polytope", "--weights", "2", "1", "--point", "1/1,0/1;1/1,0/1")
        payload = json.loads(p.stdout)
        assert payload == {"dim": 1, "vertices": []}
        assert wire.polytope_from_json(payload).is_empty

    def test_gaussian_point_literal(self):
        p = run_cli("polytope", "--weights", "2", "1", "--point", "1/2+1/3i,1/1;1/1,1/1")
        assert p.returncode == 0
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]

    def test_bad_literal_is_usage_error(self):
        p = run_cli("polytope", "--weights", "2", "1", "--point", "not-a-point")
        assert p.returncode == 2

    def test_missing_subcommand_usage_error(self):
        p = run_cli()
        assert p.returncode == 2


def assert_usage_error(p):
    """Exit 2 with a one-line message on stderr and no traceback."""
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert len(p.stderr.strip().splitlines()) == 1


class TestMalformedInput:
    def test_zero_denominator_point(self):
        assert_usage_error(run_cli("polytope", "--weights", "2", "1",
                                   "--point", "1/0,1;1,1"))

    def test_non_integer_gamma_matrix(self):
        assert_usage_error(run_cli("realpolytope", "--weights", "2", "1",
                                   "--point", "0/1,1/1;1/1,1/1", "--gamma", "[[0.5]]"))

    def test_polytope_json_without_dim(self, tmp_path):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"vertices": [["1", "1"]]}))
        assert_usage_error(run_cli("plot", "--in", str(src),
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
        p = run_cli(command, "--config", str(cfg))
        assert_usage_error(p)
        assert f"--{next(iter(bad)).replace('_', '-')}" in p.stderr

    def test_sample_csv_without_moment_columns(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("a,b\n1,2\n")
        assert_usage_error(run_cli("plot", "--in", str(src),
                                   "--out", str(tmp_path / "s.svg")))

    @pytest.mark.parametrize("row", ["nan,1.0", "0.5,inf", "-inf,-inf", "1.7e308,-1.7e308"])
    def test_sample_csv_with_unplottable_moment(self, tmp_path, row):
        src = tmp_path / "s.csv"
        src.write_text(f"phi1,phi3\n0.5,0.25\n{row}\n")
        assert_usage_error(run_cli("plot", "--in", str(src), "--out", str(tmp_path / "s.svg")))
        assert not (tmp_path / "s.svg").exists()

    @pytest.mark.parametrize("vertices", [[[1.5, 1]], [["1", 2.0]], [[True, 1]]],
                             ids=json.dumps)
    def test_polytope_json_coordinate_not_an_integer(self, tmp_path, vertices):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": 1, "vertices": vertices}))
        assert_usage_error(run_cli("plot", "--in", str(src),
                                   "--out", str(tmp_path / "x.svg")))
        assert not (tmp_path / "x.svg").exists()

    def test_polytope_json_with_three_vertices(self, tmp_path):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": 1, "vertices": [["0", "1"], ["1", "1"], ["2", "1"]]}))
        assert_usage_error(run_cli("plot", "--in", str(src),
                                   "--out", str(tmp_path / "x.svg")))
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("dim", [1.9, True], ids=json.dumps)
    def test_polytope_json_dim_not_an_integer(self, tmp_path, dim):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": dim, "vertices": [["1", "1"]]}))
        assert_usage_error(run_cli("plot", "--in", str(src),
                                   "--out", str(tmp_path / "x.svg")))
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("vertices", [
        [["1" + "0" * 400, "1"]],                           # beyond a float
        [["-1" + "0" * 308, "1"], ["1" + "0" * 308, "1"]],  # a span beyond a float
    ], ids=["huge-vertex", "huge-span"])
    def test_polytope_json_vertex_out_of_float_range(self, tmp_path, vertices):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"dim": 1, "vertices": vertices}))
        assert_usage_error(run_cli("plot", "--in", str(src),
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

    def test_deeply_nested_gamma_literal(self, capsys):
        code = cli.main(["catalog", "--weights", "2", "1", "--gamma", "[" * 100_000])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: unknown involution tag")
        assert len(captured.err.splitlines()) == 1


class TestInputLimits:
    def test_oversized_oracle_fails_fast(self):
        start = time.perf_counter()
        p = run_cli("oracle", "--weights", "30", "30", "--r", "3", "--weight", "0")
        assert time.perf_counter() - start < 1.0
        assert_usage_error(p)
        assert "limit 2500" in p.stderr

    @pytest.mark.parametrize("command", [["decompose"], ["hwv", "--k", "0"]])
    def test_oversized_section_space(self, command):
        assert_usage_error(run_cli(*command, "--weights", "50", "49", "--r", "1"))

    def test_largest_section_space_accepted(self):
        p = run_cli("decompose", "--weights", "49", "49", "--r", "1")
        assert p.returncode == 0
        assert json.loads(p.stdout)["section_dim"] == 2500

    def test_oversized_catalog_fails_fast(self):
        start = time.perf_counter()
        p = run_cli("catalog", "--weights", "80", "80", "--gamma", "negation")
        assert time.perf_counter() - start < 1.0
        assert_usage_error(p)
        assert "limit 2500" in p.stderr

    @pytest.mark.parametrize("command", [["catalog"],
                                         ["realpolytope", "--point", "0/1,1/1;1/1,1/1"]])
    def test_oversized_representation_route(self, command):
        # r = 2 section space (2*25 + 1)(2*25 + 1) = 2601
        assert_usage_error(run_cli(*command, "--weights", "25", "25", "--gamma", "negation"))

    def test_largest_representation_route_accepted(self):
        # r = 2 section space (2*24 + 1)(2*24 + 1) = 2401
        p = run_cli("realpolytope", "--weights", "24", "24",
                    "--point", "0/1,1/1;1/1,1/1", "--gamma", "negation")
        assert p.returncode == 0
        assert json.loads(p.stdout)["equal"] is True

    def test_oversized_sample(self, tmp_path):
        p = run_cli("sample", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1",
                    "--n", "100001", "--out", str(tmp_path / "s.csv"))
        assert_usage_error(p)
        assert "limit 100000" in p.stderr
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag", [["--r-max", "1"], ["--eps", "0.001"]])
    def test_removed_options_are_unknown(self, flag):
        p = run_cli("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1", *flag)
        assert p.returncode == 2


class TestImportLayering:
    """The exact subcommands load neither NumPy nor SciPy, and verify loads no SciPy."""

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
            with contextlib.redirect_stdout(io.StringIO()) as out:
                codes = [cli.main(c) for c in commands]
            with open("poly.json", "w") as fh:
                fh.write(out.getvalue().splitlines()[0])
            codes.append(cli.main(["plot", "--in", "poly.json", "--out", "poly.svg"]))
            print(json.dumps({"codes": codes, "modules": sorted(
                m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))}))
            """, tmp_path)
        assert loaded == {"codes": [0] * 7, "modules": []}

    def test_verify_loads_no_scipy(self, tmp_path):
        loaded = self.run_python("""
            import contextlib, io, json, sys
            from mplab import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--suite", "all"])
            print(json.dumps({"code": code, "modules": sorted(
                m for m in sys.modules if m.split(".")[0] == "scipy")}))
            """, tmp_path)
        assert loaded == {"code": 0, "modules": []}

    def test_numeric_loads_numpy_only(self, tmp_path):
        loaded = self.run_python("""
            import json, sys
            import mplab.numeric
            print(json.dumps(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})))
            """, tmp_path)
        assert loaded == ["numpy"]


class TestRealPolytopeCommand:
    def test_routes_agree(self):
        p = run_cli("realpolytope", "--weights", "2", "1",
                    "--point", "0/1,1/1;1/1,1/1", "--gamma", "negation")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["equal"] is True
        assert payload["intersection_route"] == payload["membership_route"]

    def test_identity_involution(self):
        p = run_cli("realpolytope", "--weights", "1", "1",
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
        assert payload["membership_route"] == {"dim": 1, "vertices": [["1", "1"], ["2", "1"]]}
        assert captured.err == "routes DISAGREE: [1, 3]\n"

    def test_matrix_gamma_literal(self):
        p = run_cli("realpolytope", "--weights", "2", "1",
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
        p = run_cli("oracle", "--weights", "1", "1", "--r", "1", "--weight", "-2")
        assert json.loads(p.stdout)["dimension"] == 0


class TestVerifyCommand:
    def test_lagrangian_suite_passes(self):
        p = run_cli("verify", "--suite", "lagrangian")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["passed"] is True

    def test_reports_are_byte_identical(self):
        a = run_cli("verify", "--suite", "coadjoint", "--seed", "5")
        b = run_cli("verify", "--suite", "coadjoint", "--seed", "5")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_unknown_suite_usage_error(self):
        p = run_cli("verify", "--suite", "bogus")
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

    def test_sample_csv(self, tmp_path):
        out = tmp_path / "samples.csv"
        p = run_cli("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                    "--subgroup", "H", "--n", "25", "--seed", "3", "--out", str(out))
        assert p.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("a1re,a1im,c1re")
        assert len(lines) == 26

    def test_seed_env_override(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                "--n", "10", "--out", str(out1), env={"MPLAB_SEED": "99"})
        run_cli("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                "--n", "10", "--seed", "99", "--out", str(out2))
        assert out1.read_text() == out2.read_text()

    def test_plot_polytope(self, tmp_path):
        src = tmp_path / "poly.json"
        p = run_cli("polytope", "--weights", "2", "1", "--point", "0/1,1/1;1/1,1/1")
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
        run_cli("sample", "--point", "0/1,1/1;1/1,1/1", "--weights", "2", "1",
                "--n", "50", "--seed", "0", "--out", str(csv_path))
        out = tmp_path / "s.svg"
        q = run_cli("plot", "--in", str(csv_path), "--out", str(out))
        assert q.returncode == 0
        assert out.read_text().count("<circle") == 50

    def test_plot_rejects_other_files(self, tmp_path):
        src = tmp_path / "x.txt"
        src.write_text("hello")
        q = run_cli("plot", "--in", str(src), "--out", str(tmp_path / "x.svg"))
        assert q.returncode == 2


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "0/1,1/1;1/1,1/1"}))
        p = run_cli("polytope", "--config", str(cfg))
        assert p.returncode == 0
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]

    def test_removed_keys_are_ignored(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "0/1,1/1;1/1,1/1",
                                   "r_max": None, "eps": [1]}))
        p = run_cli("polytope", "--config", str(cfg))
        assert p.returncode == 0
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]

    @pytest.mark.parametrize("command, unused", [
        (["polytope", "--point", "0/1,1/1;1/1,1/1"], {"gamma": "bogus"}),
        (["decompose"], {"point": "garbage"}),
    ], ids=["polytope-gamma", "decompose-point"])
    def test_unused_keys_are_ignored(self, tmp_path, capsys, command, unused):
        argv = [*command, "--weights", "2", "1"]
        assert cli.main(argv) == 0
        clean = capsys.readouterr()
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(unused))
        assert cli.main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == clean

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "1/1,0/1;1/1,0/1"}))
        p = run_cli("polytope", "--config", str(cfg),
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


class TestWireFormats:
    def test_round_trip_all_catalog_polytopes(self):
        from mplab.orbits import enumerate_polytope_catalog
        from mplab.weights import negation_involution
        for poly in enumerate_polytope_catalog(3, 2, negation_involution()):
            assert equals(wire.polytope_from_json(wire.polytope_to_json(poly)), poly)

    def test_2d_polytope_json_rejected(self, tmp_path):
        square = {"dim": 2, "vertices": [[["0", "1"], ["0", "1"]], [["1", "1"], ["1", "1"]]]}
        with pytest.raises(ValueError, match="dim 2"):
            wire.polytope_from_json(square)
        src = tmp_path / "square.json"
        src.write_text(json.dumps(square))
        assert_usage_error(run_cli("plot", "--in", str(src), "--out", str(tmp_path / "x.svg")))

    def test_point_literal_round_trip(self):
        for x in orbit_representatives().values():
            assert wire.parse_point_literal(wire.format_point(x)) == x

    def test_gaussian_literals(self):
        g = wire.parse_gaussian("1/2-3/4i")
        assert str(g) == "1/2-3/4i"
        with pytest.raises(ValueError):
            wire.parse_gaussian("1/2+i")
