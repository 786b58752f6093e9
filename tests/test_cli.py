import json
import subprocess
import sys

import pytest

from wishart_roots import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPointCommands:
    def test_cdf_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--n", "4", "--m", "2",
                               "--lambda", "2,1", "--x", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,method,err_est"
        x, value, method, err = lines[1].split(",")
        assert method == "quadrature"
        assert float(value) == pytest.approx(0.0093813012844991, rel=1e-10)
        assert float(err) < 1e-9

    def test_quadrature_at_large_noncentrality(self, capsys):
        # the H-series needs incomplete gammas past Gamma's float range here
        code, out, _ = run_cli(capsys, "pdf", "--n", "4", "--m", "2", "--lambda", "100,50",
                               "--x", "120", "--method", "quadrature")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(0.017279376390519807,
                                                                          rel=1e-8)

    def test_quadrature_refusal_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "cdf", "--n", "5", "--m", "3", "--lambda", "500,400,300",
                                 "--x", "450", "--method", "quadrature")
        assert code == 2 and out == ""
        assert "float range" in err

    def test_determinism(self, capsys):
        a = run_cli(capsys, "pdf", "--n", "3", "--m", "2", "--lambda", "1.5,0.5", "--x", "2")
        b = run_cli(capsys, "pdf", "--n", "3", "--m", "2", "--lambda", "1.5,0.5", "--x", "2")
        assert a == b

    def test_method_all_rows(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--n", "4", "--m", "2",
                               "--lambda", "2,1", "--x", "3", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        methods = [ln.split(",")[2] for ln in lines[1:]]
        assert methods == ["quadrature", "series", "conjecture", "hgm"]
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert max(vals) - min(vals) < 1e-8 * max(vals)

    def test_method_all_m4_density_leaves_out_conjecture(self, capsys):
        # the m = 4 conjecture route is experimental: "all" runs the others
        code, out, _ = run_cli(capsys, "pdf", "--n", "6", "--m", "4", "--lambda", "1.5,1,0.5,0.1",
                               "--x", "2", "--method", "all", "--order", "3")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert [r[2] for r in rows] == ["quadrature", "series", "hgm"]
        quadrature, series, hgm = (float(r[1]) for r in rows)
        assert hgm == pytest.approx(quadrature, rel=1e-8, abs=0)
        assert series == pytest.approx(quadrature, rel=1e-3, abs=0)  # order-3 truncation
        code, _, err = run_cli(capsys, "pdf", "--n", "6", "--m", "4", "--lambda", "1.5,1,0.5,0.1",
                               "--x", "2", "--method", "conjecture")
        assert code == 1 and "experimental" in err

    def test_zero_lambda_all_routes(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--n", "4", "--m", "2",
                               "--lambda", "2,0", "--x", "5", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["quadrature", "series", "conjecture", "hgm"]
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert max(vals) - min(vals) < 1e-8 * max(vals)

    def test_repeated_lambda_all_routes(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--n", "4", "--m", "2",
                               "--lambda", "1,1", "--x", "3", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["quadrature", "series", "conjecture", "hgm"]
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert max(vals) - min(vals) < 1e-8 * max(vals)

    def test_hgm_tail(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--n", "4", "--m", "2",
                               "--lambda", "2,1", "--x", "150", "--method", "hgm")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(7.5546294798066441e-49, rel=1e-8, abs=0)

    def test_err_estimate_propagates_unexpected_errors(self, capsys, monkeypatch):
        # only the errors a route raises for inputs it does not serve mean
        # "no second route"; anything else is a fault and must surface
        from wishart_roots import distribution as dist

        def broken(*a, **k):
            raise TypeError("synthetic fault in the reference route")

        monkeypatch.setattr(dist, "pdf_conjecture", broken)
        with pytest.raises(TypeError):
            run_cli(capsys, "pdf", "--n", "4", "--m", "2", "--lambda", "2,1", "--x", "3")

    def test_err_estimate_is_not_measured_against_series(self, capsys):
        # the order-20 series is silently wrong here (1.9e-12 against 0.020390):
        # the other routes measure their error against quadrature or conjecture
        code, out, _ = run_cli(capsys, "pdf", "--n", "4", "--m", "2", "--lambda", "40,30",
                               "--x", "60", "--method", "all", "--json")
        assert code == 0
        rows = {r["method"]: r for r in json.loads(out)}
        quadrature = rows["quadrature"]["value"]
        assert quadrature == pytest.approx(0.020390, rel=1e-4)
        for method in ("quadrature", "conjecture", "hgm"):
            assert rows[method]["err_est"] <= 1e-8 * rows[method]["value"], method
        assert rows["series"]["err_est"] >= 0.5 * quadrature

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--n", "3", "--m", "1",
                               "--lambda", "1", "--x", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["method"] == "quadrature"

    def test_cdf_conjecture_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--n", "4", "--m", "2",
                               "--lambda", "2,1", "--x", "3", "--method", "conjecture")
        assert code == 1
        assert "density" in err

    def test_bad_lambda_count(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--n", "4", "--m", "2",
                               "--lambda", "2", "--x", "3")
        assert code == 1


class TestTable:
    def test_monotone_cdf(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "4", "--m", "2",
                               "--lambda", "2,1", "--x-min", "0.5", "--x-max", "20",
                               "--points", "12", "--what", "cdf", "--method", "hgm")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,cdf_hgm"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(vals) == 12
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "table", "--n", "3", "--m", "1", "--lambda", "1",
                               "--x-min", "2", "--x-max", "1", "--points", "4")
        assert code == 1
        assert "bad grid" in err

    def test_cdf_conjecture_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--n", "4", "--m", "2", "--lambda", "2,1",
                                 "--x-min", "1", "--x-max", "3", "--points", "3",
                                 "--what", "cdf", "--method", "conjecture")
        assert code == 1
        assert "density" in err and out == ""

    def test_method_all_cdf_leaves_out_conjecture(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "3", "--m", "1", "--lambda", "1",
                               "--x-min", "1", "--x-max", "3", "--points", "2",
                               "--what", "cdf", "--method", "all")
        assert code == 0
        assert out.splitlines()[0] == "x,cdf_quadrature,cdf_series,cdf_hgm"

    def test_one_refused_abscissa_exits_2(self, capsys):
        # quadrature serves x = 50 and refuses x = 450 at these eigenvalues
        code, out, err = run_cli(capsys, "table", "--n", "5", "--m", "3", "--lambda", "500,400,300",
                                 "--x-min", "50", "--x-max", "450", "--points", "2", "--what", "cdf")
        assert code == 2 and out == ""
        assert "float range" in err

    @pytest.mark.parametrize("what", ["pdf", "cdf"])
    def test_hgm_sweep_matches_point_calls(self, capsys, what):
        from wishart_roots import hgm
        from wishart_roots.distribution import EvalConfig, WishartParams

        code, out, _ = run_cli(capsys, "table", "--n", "4", "--m", "2", "--lambda", "2,1",
                               "--x-min", "0.5", "--x-max", "20", "--points", "7",
                               "--what", what, "--method", "hgm")
        assert code == 0
        p = WishartParams(4, 2, (2.0, 1.0))
        point = hgm.pdf_hgm if what == "pdf" else hgm.cdf_hgm
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert len(rows) == 7
        for x, value in rows:
            assert float(value) == pytest.approx(point(p, float(x), EvalConfig()), rel=1e-8)


    def test_hgm_m4_near_repeats_matches_quadrature(self, capsys):
        # two pairs of eigenvalues 1e-4 apart, at small x, where the density is ~1e-37
        common = ("table", "--n", "6", "--m", "4", "--lambda", "3.0001,2.5,2,1.9999",
                  "--x-min", "0.15", "--x-max", "0.5", "--points", "2")
        columns = []
        for method in ("hgm", "quadrature"):
            code, out, _ = run_cli(capsys, *common, "--method", method)
            assert code == 0
            columns.append([float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]])
        hgm, quadrature = columns
        assert len(hgm) == 2 and all(v > 0 for v in quadrature)
        assert hgm == pytest.approx(quadrature, rel=1e-8, abs=0)


class TestHgmDump:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "hgm", "--n", "4", "--m", "2", "--lambda", "2,1",
                               "--x-max", "3", "--points", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("x,b0,b1,") and lines[0].endswith(",R,psi")
        assert len(lines) == 4
        assert len(lines[1].split(",")) == 1 + 9 + 2

    @pytest.mark.parametrize("grid", [("--points", "1"), ("--x-min", "3", "--x-max", "1")])
    def test_bad_grid(self, capsys, grid):
        argv = ["hgm", "--n", "4", "--m", "2", "--lambda", "2,1", "--x-max", "3"] + list(grid)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "bad grid" in err and out == ""

    def test_psi_matches_table_sweep(self, capsys):
        common = ("--n", "4", "--m", "2", "--lambda", "2,1",
                  "--x-min", "0.5", "--x-max", "20", "--points", "9")
        _, dump, _ = run_cli(capsys, "hgm", *common)
        _, table, _ = run_cli(capsys, "table", *common, "--method", "hgm", "--what", "pdf")
        psi = [float(ln.split(",")[-1]) for ln in dump.strip().splitlines()[1:]]
        pdf = [float(ln.split(",")[1]) for ln in table.strip().splitlines()[1:]]
        assert len(psi) == len(pdf) == 9
        assert psi == pytest.approx(pdf, rel=1e-8)
        # the dump integrates with the same --tol as the table
        _, dump, _ = run_cli(capsys, "hgm", *common, "--tol", "1e-12")
        _, table, _ = run_cli(capsys, "table", *common, "--method", "hgm", "--what", "pdf",
                              "--tol", "1e-12")
        assert [ln.split(",")[-1] for ln in dump.strip().splitlines()[1:]] == \
            [ln.split(",")[1] for ln in table.strip().splitlines()[1:]]


class TestMc:
    def test_report_passes(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--n", "3", "--m", "1", "--lambda", "1",
                               "--samples", "20000", "--seed", "7")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] and len(rep["points"]) == 20

    def test_histogram(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--n", "3", "--m", "1", "--lambda", "1",
                               "--samples", "2000", "--seed", "7", "--histogram")
        assert code == 0
        assert out.splitlines()[0] == "bin_left,bin_right,density,cdf_at_right"


class TestVerify:
    def test_operators_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "operators", "--n", "3", "--m", "2",
                               "--order", "9")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        assert all(r["max_residual_terms"] == 0 for r in reports)

    def test_recurrences_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "recurrences")
        assert code == 0
        assert json.loads(out)[0]["pass"]

    @pytest.mark.parametrize("m", ["1", "4"])
    def test_printed_without_operators_is_usage_error(self, capsys, m):
        code, out, err = run_cli(capsys, "verify", "printed", "--n", "5", "--m", m)
        assert code == 1
        assert "m = 2 and m = 3" in err and out == ""

    def test_all_skips_printed_without_operators(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--n", "3", "--m", "1", "--order", "4")
        assert code == 0
        checks = [r["check"] for r in json.loads(out)]
        assert "recurrences" in checks and not any(c.startswith("printed") for c in checks)

    def test_order_too_small_names_the_deficit(self, capsys):
        # the printed order-5 operator needs five lam_1-derivatives, so order
        # 4 is one short at m = 2 and order 5 is the smallest that passes
        code, out, err = run_cli(capsys, "verify", "all", "--n", "4", "--m", "2", "--order", "4")
        assert code == 1 and out == ""
        assert "lam-derivatives of orders (5, 0)" in err
        assert "certified on the box (4, 4)" in err
        assert "raise the series order by at least 1" in err
        code, out, _ = run_cli(capsys, "verify", "all", "--n", "4", "--m", "2", "--order", "5")
        assert code == 0
        assert all(r["pass"] for r in json.loads(out))

    def test_failure_exit_code(self, capsys, monkeypatch):
        from wishart_roots import operators as ops

        monkeypatch.setattr(
            ops, "verify_theorem1",
            lambda n, m, order, series=None: [{"check": "theorem1_product", "params": {},
                                               "max_residual_terms": 3, "pass": False}],
        )
        code, out, _ = run_cli(capsys, "verify", "operators", "--n", "3", "--m", "2")
        assert code == 3


class TestNumericFailureExit:
    def test_exit_code_two(self, capsys, monkeypatch):
        from wishart_roots import distribution as dist

        def boom(*a, **k):
            raise ArithmeticError("synthetic numeric failure")

        monkeypatch.setattr(dist, "cdf", boom)
        code, _, err = run_cli(capsys, "cdf", "--n", "3", "--m", "1",
                               "--lambda", "1", "--x", "2")
        assert code == 2
        assert "numeric failure" in err

    def test_float_range_refusal_is_numeric_failure(self, capsys):
        # the m = 2 conjecture's determinant leaves float range here; no row is printed
        code, out, err = run_cli(capsys, "pdf", "--n", "4", "--m", "2", "--lambda", "500,400",
                                 "--x", "540", "--method", "conjecture")
        assert code == 2
        assert out == ""
        assert "numeric failure" in err and "left float range" in err

    @pytest.mark.parametrize("kind", ["pdf", "cdf"])
    def test_ill_conditioned_hgm_rows_are_refused(self, capsys, kind):
        # the rows' Skeel condition numbers are about 5e7 (density) and 7e7 (CDF):
        # unscreened, the density was 2.5e-9 off quadrature's under the default --tol
        code, out, err = run_cli(capsys, kind, "--n", "6", "--m", "4", "--lambda",
                                 "66.721,66.721,60.163,56.964", "--x", "9.04", "--method", "hgm")
        assert code == 2 and out == ""
        assert "numeric failure" in err and "condition number" in err

    def test_nan_value_is_numeric_failure(self, capsys, monkeypatch):
        from wishart_roots import distribution as dist

        monkeypatch.setattr(dist, "pdf_quadrature", lambda p, xs, cfg: [float("nan")] * len(xs))
        code, out, err = run_cli(capsys, "pdf", "--n", "4", "--m", "2", "--lambda", "2,1", "--x", "3")
        assert code == 2
        assert out == ""
        assert "numeric failure" in err and "returned nan" in err


_POINT = ["--n", "4", "--m", "2", "--lambda", "2,1"]
_GRID = ["--x-min", "1", "--x-max", "3", "--points", "3"]


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["pdf", *_POINT, "--x", "3", "--tol", "nan", "--method", "hgm"],
        ["table", *_POINT, *_GRID, "--tol", "nan", "--method", "hgm"],
        ["pdf", *_POINT, "--x", "3", "--tol", "-1", "--method", "hgm"],
        ["pdf", *_POINT, "--x", "3", "--tol", "inf"],
        ["cdf", *_POINT, "--x", "3", "--order", "-3", "--method", "series"],
        ["pdf", "--n", "4", "--m", "2", "--lambda", "inf,1", "--x", "3"],
        ["pdf", "--n", "4", "--m", "2", "--lambda", "nan,1", "--x", "3"],
        ["pdf", *_POINT, "--x", "inf"],
        ["pdf", *_POINT, "--x", "nan"],
        ["cdf", *_POINT, "--x", "inf", "--method", "hgm"],
        ["table", *_POINT, "--x-min", "0", "--x-max", "inf", "--points", "3"],
        ["hgm", *_POINT, "--x-min", "nan", "--x-max", "3", "--points", "3"],
        ["mc", "--n", "4", "--m", "2", "--lambda", "nan,1", "--samples", "100"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestConfigFile:
    def test_defaults_from_json(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"method": "series", "order": 14}))
        code, out, _ = run_cli(capsys, "cdf", "--config", str(cfgfile),
                               "--n", "4", "--m", "2", "--lambda", "1,0.4", "--x", "2")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "series"

    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"method": "series"}))
        code, out, _ = run_cli(capsys, "cdf", "--config", str(cfgfile),
                               "--n", "4", "--m", "2", "--lambda", "1,0.4", "--x", "2",
                               "--method", "quadrature")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "quadrature"

    def test_equals_form_of_the_flag(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"method": "series"}))
        code, out, _ = run_cli(capsys, "cdf", f"--config={cfgfile}",
                               "--n", "4", "--m", "2", "--lambda", "1,0.4", "--x", "2")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "series"

    def test_explicit_lambda_wins(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"lambdas": "9,9", "x": 1}))
        argv = ("pdf", "--n", "4", "--m", "2", "--lambda", "2,1", "--x", "5")
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfgfile))
        assert code == 0 and out == plain

    def test_values_take_the_option_types(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"tol": "1e-3", "order": "7", "json": True}))
        code, out, _ = run_cli(capsys, "pdf", "--config", str(cfgfile), "--n", "4", "--m", "2",
                               "--lambda", "2,1", "--x", "5")
        assert code == 0
        (row,) = json.loads(out)
        assert row["x"] == 5.0 and row["method"] == "quadrature"
        args = cli._parse_args(["pdf", "--config", str(cfgfile), "--n", "4", "--m", "2",
                                "--lambda", "2,1", "--x", "5"], *cli._build_parser())
        assert (args.tol, args.order, args.json) == (1e-3, 7, True)

    def test_required_options_from_the_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"n": 4, "m": 2, "lambdas": "2,1", "x": 3}))
        _, plain, _ = run_cli(capsys, "cdf", "--n", "4", "--m", "2", "--lambda", "2,1", "--x", "3")
        code, out, _ = run_cli(capsys, "cdf", "--config", str(cfgfile))
        assert code == 0 and out == plain

    def test_file_does_not_leak_into_later_calls(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.json"
        cfgfile.write_text(json.dumps({"order": 4}))
        argv = ("pdf", "--n", "4", "--m", "2", "--lambda", "2,1", "--x", "3", "--method", "series")
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfgfile))
        assert code == 0 and out != plain  # order 4, not the default 20
        assert run_cli(capsys, *argv) == (0, plain, "")

    @pytest.mark.parametrize("content", ['{"tol": "abc"}', "[1, 2]", "{not json", '{"json": "yes"}',
                                         '{"tol": [1]}', None])
    def test_bad_file_is_usage_error(self, capsys, tmp_path, content):
        cfgfile = tmp_path / "defaults.json"
        if content is not None:
            cfgfile.write_text(content)
        code, out, err = run_cli(capsys, "cdf", "--config", str(cfgfile),
                                 "--n", "4", "--m", "2", "--lambda", "1,0.4", "--x", "2")
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: the command must not import it; nor
    # does the import build the parser, which the first call of main builds
    probe = ("import sys, wishart_roots.cli as cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')), cli._parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] 0"


def test_one_parser_serves_a_sequence_of_calls(capsys, tmp_path, monkeypatch):
    # each call prints and exits as the same call in a fresh process does
    cfgfile = tmp_path / "defaults.json"
    cfgfile.write_text(json.dumps({"n": 4, "m": 2, "lambdas": "2,1", "x": 3, "method": "series",
                                   "order": 4}))
    calls = [
        ["table", *_POINT, *_GRID, "--what", "cdf"],
        ["pdf", *_POINT, "--x", "3", "--method", "all"],
        ["pdf", *_POINT, "--x", "nan"],
        ["pdf", "--config", str(cfgfile)],
        ["pdf", *_POINT, "--x", "3", "--method", "series"],
        ["hgm", *_POINT, "--x-max", "3", "--points", "4"],
        ["verify", "recurrences"],
    ]
    built, build_parser = [], cli._build_parser

    def build():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", build)
    cli._parser.cache_clear()
    try:
        here = [run_cli(capsys, *argv)[:2] for argv in calls]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert [code for code, _ in here] == [0, 0, 1, 0, 0, 0, 0]
    for argv, (code, out) in zip(calls, here):
        fresh = subprocess.run([sys.executable, "-m", "wishart_roots.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
