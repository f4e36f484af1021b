import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from mplab import cli, wire
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
        assert equals(poly, hull([(1,), (5,)]))

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

    @pytest.mark.parametrize("bad", [
        {"weights": 5},
        {"weights": [[1], 1]},
        {"point": 5},
        {"gamma": 3},
        {"seed": [1]},
    ], ids=lambda bad: json.dumps(bad))
    def test_config_value_of_wrong_type(self, tmp_path, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "0/1,1/1;1/1,1/1",
                                   "gamma": "negation", **bad}))
        p = run_cli("realpolytope", "--config", str(cfg))
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
    """The exact subcommands must not load NumPy or SciPy."""

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

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"weights": [2, 1], "point": "1/1,0/1;1/1,0/1"}))
        p = run_cli("polytope", "--config", str(cfg),
                    "--point", "0/1,1/1;1/1,1/1")
        assert json.loads(p.stdout)["vertices"] == [["1", "1"], ["3", "1"]]


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
