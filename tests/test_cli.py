import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import xi_ineq
from xi_ineq.cli import main, render_json
from xi_ineq.config import DEFAULT_CONFIG, config_from_mapping, parse_config_text
from xi_ineq import inequality, modulus
from xi_ineq.modulus import _jeta_table, _w_table, constants, power_series_coeffs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp":"[^"]*"', '"timestamp":""', text)


def count_transforms(monkeypatch, transform) -> list:
    """Record the frequency t of every call (sigma, t, ...) of `transform` that the
    library makes, through whichever module's binding of it."""
    calls = []

    def counted(sigma, t, *args, **kwargs):
        calls.append(t)
        return transform(sigma, t, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "xi_ineq" or name.startswith("xi_ineq."):
            for key, value in list(vars(module).items()):
                if value is transform:
                    monkeypatch.setattr(module, key, counted)
    return calls


def count_adaptive_transforms(monkeypatch) -> list:
    """Record the frequency of every adaptive cosine transform that the library
    starts, through whichever module's binding of `modulus.w_cos_transform`."""
    return count_transforms(monkeypatch, modulus.w_cos_transform)


class TestSerialization:
    def test_repr_floats_round_trip(self):
        values = [1.0 / 3.0, 2.0, 1e-300, 0.1 + 0.2]
        text = render_json({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_nonfinite_floats_round_trip(self):
        parsed = json.loads(render_json({"v": [math.inf, -math.inf, math.nan]}))["v"]
        assert parsed[:2] == [math.inf, -math.inf] and math.isnan(parsed[2])

    def test_shapes(self):
        text = render_json({"a": [1, True, None, "x"], "b": {"c": 0.5}})
        assert json.loads(text) == {"a": [1, True, None, "x"], "b": {"c": 0.5}}


class TestConfigFile:
    def test_parse_and_apply(self):
        mapping = parse_config_text("# comment\nseries_tol = 1e-12\nquad_max_depth = 30\n")
        cfg = config_from_mapping(mapping)
        assert cfg.series_tol == 1e-12
        assert cfg.quad_max_depth == 30

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("series_tol 1e-12")

    def test_cli_reads_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("quad_rel_tol = 1e-9\n")
        code, out = run_cli(capsys, "constants", "--sigma", "0.75",
                            "--method", "B_series", "--config", str(path))
        assert code == 0

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text("quad_rel_tol = 1e-9\n")
        monkeypatch.setenv("XI_INEQ_CONFIG", str(path))
        code, _ = run_cli(capsys, "constants", "--sigma", "0.75",
                          "--method", "B_series")
        assert code == 0

    def test_missing_config_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "constants", "--config", "/nonexistent/path")
        assert code == 3

    def test_misspelled_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("quad_abstol = 1e-3\n")
        code = main(["constants", "--sigma", "0.75", "--method", "B_series",
                     "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "xi-ineq: config error: unknown config key 'quad_abstol'; known keys: "
            "series_tol, series_max_terms, quad_rel_tol, quad_abs_tol, quad_max_depth"]

    @pytest.mark.parametrize("line", ["quad_abs_tol = inf", "quad_rel_tol = nan",
                                      "series_tol = -inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        code = main(["verify-modulus", "--sigma", "0.75", "--t-list", "0",
                     "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("xi-ineq: config error: ")
        assert "must be finite and strictly positive" in err[0]


class TestCommands:
    def test_constants_all_methods_pass(self, capsys):
        code, out = run_cli(capsys, "constants", "--sigma", "0.75", "--method", "all")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["outputs"]["methods_agree"] is True
        assert len(report["outputs"]["rows"]) == 3

    def test_constants_paper_truncation_series(self, capsys):
        code, out = run_cli(capsys, "constants", "--sigma", "0.75",
                            "--paper-truncation", "B")
        assert code == 0
        row = json.loads(out)["outputs"]["rows"][0]
        assert abs(row["S"] - 0.473929) <= 1e-4 * 0.473929
        assert abs(row["T"] - (-0.0218449)) <= 1e-4 * 0.0218449

    def test_verify_modulus_small_grid(self, capsys):
        code, out = run_cli(capsys, "verify-modulus", "--sigma", "0.75",
                            "--t-list", "0,10")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["max_rel_err"] < 1e-7
        assert report["outputs"]["max_rel_err_J"] < 1e-6

    def test_scan_exit_zero(self, capsys):
        code, out = run_cli(capsys, "scan", "--sigma", "0.75", "--t-max", "2",
                            "--step", "0.5")
        assert code == 0
        assert json.loads(out)["outputs"]["summaries"][0]["violations"] == []

    def test_coeffs(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--sigma", "0.75", "--kmax", "4")
        assert code == 0
        rows = json.loads(out)["outputs"]["rows"]
        assert all(r["sign_ok"] and r["bound_ok"] for r in rows)

    def test_montecarlo_seeded(self, capsys):
        code, out = run_cli(capsys, "montecarlo", "--sigma", "0.75",
                            "--t-list", "1", "--samples", "5000", "--seed", "3")
        assert code == 0
        row = json.loads(out)["outputs"]["rows"][0]
        assert row["within_4se"] and row["inequality_holds"]

    def test_montecarlo_estimate_below_bound_within_4se_is_indeterminate(self, capsys):
        # at t = 10 the exact value clears the bound by ~0.06 se at 5000 draws,
        # so an estimate below the bound is sampling noise, not a violation
        code, out = run_cli(capsys, "montecarlo", "--sigma", "0.75",
                            "--t-list", "1,10", "--samples", "5000", "--seed", "8")
        report = json.loads(out)
        assert code == 2 and report["status"] == "indeterminate"
        row_1, row_10 = report["outputs"]["rows"]
        assert row_10["estimate"] < row_10["bound_rhs"]
        assert row_10["verdict"] == "indeterminate"
        assert row_1["verdict"] == "holds"
        assert row_1["within_4se"] and row_10["within_4se"]

    def test_reproduce_appendix_reports_known_mismatch(self, capsys):
        # the inversion-recipe S row cannot match its published value (upstream
        # inconsistency); the command must surface that as a fail, exit 1
        code, out = run_cli(capsys, "reproduce-appendix")
        assert code == 1
        rows = json.loads(out)["outputs"]["rows"]
        verdict = {(r["recipe"], r["constant"]): r["matches_1e4"] for r in rows}
        assert verdict[("B", "S")] and verdict[("B", "T")] and verdict[("C", "T")]
        assert not verdict[("C", "S")]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 3

    def test_csv_and_json_numeric_identity(self, capsys, tmp_path):
        args = ["constants", "--sigma", "0.75", "--method", "B_series"]
        code, json_out = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        code, csv_out = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        row_json = json.loads(json_out)["outputs"]["rows"][0]
        row_csv = next(csv.DictReader(io.StringIO(csv_out)))
        for key in ("S", "T"):
            assert float(row_csv[key]) == row_json[key]

    def test_byte_identical_reports_modulo_timestamp(self, capsys):
        args = ["montecarlo", "--sigma", "0.75", "--t-list", "1,5",
                "--samples", "4000", "--seed", "11"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert strip_timestamp(first) == strip_timestamp(second)

    @pytest.mark.parametrize("argv", [
        ["constants", "--method", "B_series"],
        ["verify-modulus", "--sigma", "0.75", "--t-list", "0"],
        ["scan", "--t-max", "1", "--step", "0.5"],
        ["coeffs", "--kmax", "2"],
        ["montecarlo", "--t-list", "1", "--samples", "1000"],
        ["autocorr", "--t-max", "1"],
        ["selftest"],
    ])
    def test_csv_header_is_the_json_row_keys(self, capsys, argv):
        # every subcommand that arguments can make cheap: reproduce-appendix takes
        # none and runs 2 s, and builds its rows the same way
        _, json_out = run_cli(capsys, *argv)
        _, csv_out = run_cli(capsys, *argv, "--format", "csv")
        outputs = json.loads(json_out)["outputs"]
        rows = outputs.get("rows", outputs.get("checks"))
        assert next(csv.reader(io.StringIO(csv_out))) == list(rows[0])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(capsys, "constants", "--sigma", "0.75",
                            "--method", "B_series", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["command"] == "constants"

    @pytest.mark.parametrize("argv", [["constants", "--seed", "1"],
                                      ["selftest", "--sigma", "0.7"]])
    def test_flag_a_subcommand_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3

    def test_autocorr_computes_constants_once(self, capsys):
        # S and T live in the W record, so one record build is one S/T evaluation
        _w_table.cache_clear()
        code, _ = run_cli(capsys, "autocorr", "--sigma", "0.75", "--t-max", "2",
                          "--step", "0.5")
        assert code == 0
        assert _w_table.cache_info().misses == 1

    def test_route_b_runs_once_per_sigma_across_commands(self, capsys, monkeypatch):
        # verify-modulus builds the W record, route B inside it; constants reads it
        runs = []
        route_b = modulus._st_method_B

        def counted(*args):
            runs.append(args[0])
            return route_b(*args)

        monkeypatch.setattr(modulus, "_st_method_B", counted)
        _w_table.cache_clear()
        code, _ = run_cli(capsys, "verify-modulus", "--sigma", "0.75", "--t-list", "0,1")
        assert code == 0
        code, _ = run_cli(capsys, "constants", "--sigma", "0.75", "--method", "all")
        assert code == 0
        assert runs == [0.75]

    @pytest.mark.parametrize("method", ["B_series", "all"])
    def test_route_b_outside_the_strip_runs_without_the_w_table(self, capsys, method):
        # the W table certifies only up to sigma about 7.75; route B has no such
        # limit, and its values at sigma = 8 are the ones it gave standalone
        _w_table.cache_clear()
        code, out = run_cli(capsys, "constants", "--sigma", "8", "--method", method)
        assert code == 0
        row = next(r for r in json.loads(out)["outputs"]["rows"] if r["method"] == "B_series")
        assert (row["S"], row["T"]) == (-51.61787530813468, -1.8024837230142985)
        assert _w_table.cache_info().misses == 0

    def test_montecarlo_computes_each_transform_once(self, capsys, monkeypatch):
        # every row and the t = 0 normalization read one W table; none of
        # them runs an adaptive transform
        adaptive = count_adaptive_transforms(monkeypatch)
        _w_table.cache_clear()
        run_cli(capsys, "montecarlo", "--sigma", "0.75", "--t-list", "1,5,10",
                "--samples", "2000", "--seed", "3")
        assert _w_table.cache_info().misses == 1
        assert adaptive == []

    def test_coeffs_reuses_the_series_a_coeffs(self, capsys):
        # every a(k) of the series and of the report's rows reads one J table
        _jeta_table.cache_clear()
        power_series_coeffs(0.75, 10)
        assert _jeta_table.cache_info().misses == 1
        code, _ = run_cli(capsys, "coeffs", "--sigma", "0.75", "--kmax", "10")
        assert code == 0
        assert _jeta_table.cache_info().misses == 1

    def test_j_eta_scan_builds_one_j_table_per_sigma(self, capsys, monkeypatch):
        adaptive = count_adaptive_transforms(monkeypatch)
        _jeta_table.cache_clear()
        code, _ = run_cli(capsys, "scan", "--sigma", "0.6,0.75", "--route", "J_eta",
                          "--t-max", "5", "--step", "0.5")
        assert code == 0
        assert _jeta_table.cache_info().misses == 2
        assert adaptive == []

    def test_autocorr_zero_scan_reuses_the_table_grid(self, capsys, monkeypatch):
        # the zero scan and the table's 21 grid points read one W table and
        # run no adaptive transform
        adaptive = count_adaptive_transforms(monkeypatch)
        _w_table.cache_clear()
        code, _ = run_cli(capsys, "autocorr", "--sigma", "0.75", "--t-max", "2",
                          "--step", "0.1")
        assert code == 0
        assert _w_table.cache_info().misses == 1
        assert adaptive == []

    def test_autocorr_values_each_grid_point_once(self, capsys, monkeypatch):
        # the default grid t = 0.5 k in (0, 30] and K^(0): one fixed-rule transform
        # each, where the table and the zero scan used to read every point twice
        reads = count_transforms(monkeypatch, modulus.w_cos_fixed)
        code, _ = run_cli(capsys, "autocorr")
        assert code == 0
        assert sorted(reads) == [0.5 * k for k in range(61)]

    @pytest.mark.parametrize("argv", [
        ["scan", "--t-max", "2", "--step", "0.5"],
        ["verify-modulus", "--sigma", "0.75", "--t-list", "0,1"],
    ])
    def test_representation_runs_no_adaptive_transform(self, capsys, monkeypatch, argv):
        adaptive = count_adaptive_transforms(monkeypatch)
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert adaptive == []

    def test_w_table_certification_failure_exits_2(self, capsys, monkeypatch):
        # one node value 1e-7 off: the density misses the probes next to it
        calH = modulus.calH
        bad_node = float(modulus._X[8])

        def off(sigma, x, cfg=DEFAULT_CONFIG):
            return calH(sigma, x, cfg) + np.where(x == bad_node, 1e-7, 0.0)

        monkeypatch.setattr(modulus, "calH", off)
        _w_table.cache_clear()
        code = main(["scan", "--t-max", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "certification" in err

    @pytest.mark.parametrize("route", ["representation", "J_eta"])
    def test_nonfinite_representation_exits_2(self, capsys, route):
        # poly(t) overflows from t about 1e77: the scan used to pass on nan and -inf
        code = main(["scan", "--route", route, "--t-max", "1e200", "--step", "1e199"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "numerical failure" in err and "at t=" in err

    def test_coeffs_overflowing_t_check_is_usage_error(self, capsys, monkeypatch):
        # 100 ** 170 overflows a double: one line on stderr, exit 3, no coefficient
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients computed")

        monkeypatch.setattr(importlib.import_module("xi_ineq.cli"), "power_series_coeffs", refuse)
        code = main(["coeffs", "--kmax", "85", "--t-check", "100"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "overflows" in err

    @pytest.mark.parametrize("command", ["scan", "autocorr"])
    def test_grid_past_the_cap_is_usage_error(self, capsys, command):
        # --step 1e-9 asks for 2e9 points: one line on stderr, exit 3, no scan
        code = main([command, "--t-max", "2", "--step", "1e-9"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "more than 1000000 points" in err

    def test_samples_past_the_cap_is_usage_error(self, capsys, monkeypatch):
        # a mistyped sample count: one line on stderr, exit 3, no sampler built
        def refuse(*args, **kwargs):
            raise AssertionError("sampler built")

        monkeypatch.setattr(inequality, "XSigmaSampler", refuse)
        code = main(["montecarlo", "--samples", "1000000000000"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "at most" in err

    def test_autocorr_range_with_no_grid_point_is_usage_error(self, capsys):
        # t = 0.5 is past t_max = 0.3: no point of the zero scan's grid
        code = main(["autocorr", "--t-max", "0.3", "--step", "0.5"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "no grid point" in err

    @pytest.mark.parametrize("sigma", ["0.4", "0.5", "1.0"])
    def test_autocorr_sigma_outside_the_strip_is_usage_error(self, capsys, sigma):
        # 0.4 used to pass, 0.5 and 1.0 to end in a ZeroDivisionError traceback
        code = main(["autocorr", "--sigma", sigma, "--t-max", "2", "--step", "0.5"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "sigma in (1/2,1)" in err

    @pytest.mark.parametrize("argv, mention", [
        (["autocorr", "--step", "-0.5"], "step"),
        (["autocorr", "--step", "0"], "step"),
        (["montecarlo", "--samples", "10"], "n_samples"),
        (["scan", "--step", "0"], "step"),
        (["scan", "--t-max", "-1"], "t_max"),
        (["coeffs", "--kmax", "-1"], "K >= 0"),
        (["montecarlo", "--sigma", "0.6,0.7"], "--sigma"),
        (["coeffs", "--sigma", "0.6,0.7"], "--sigma"),
        (["autocorr", "--sigma", "0.6,0.7"], "--sigma"),
        (["verify-modulus", "--t-list", ","], "--t-list"),
        (["verify-modulus", "--sigma", "abc"], "--sigma"),
        (["montecarlo", "--t-list", ","], "--t-list"),
        (["scan", "--sigma", ","], "--sigma"),
        (["constants", "--sigma", ","], "--sigma"),
        (["constants", "--sigma", "nan"], "--sigma"),
        (["verify-modulus", "--t-list", "nan"], "--t-list"),
        (["montecarlo", "--t-list", "1,inf"], "--t-list"),
        (["coeffs", "--sigma", "nan"], "--sigma"),
        (["coeffs", "--t-check", "inf"], "--t-check"),
        (["montecarlo", "--sigma", "inf"], "--sigma"),
        (["scan", "--t-max", "nan"], "--t-max"),
        (["scan", "--step", "inf"], "--step"),
        (["autocorr", "--t-max=-inf"], "--t-max"),
        (["autocorr", "--sigma", "nan"], "--sigma"),
        (["coeffs", "--kmax", "86"], "K <= 85"),
        (["montecarlo", "--seed", "-1"], "seed"),
        (["montecarlo", "--seed", str(2 ** 128)], "seed"),
    ])
    def test_bad_value_is_usage_error(self, argv, mention):
        # in a child process with a timeout: a negative autocorr step used to
        # walk away from t_max forever
        src = os.path.dirname(os.path.dirname(xi_ineq.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "xi_ineq.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        message = proc.stderr.strip().splitlines()[-1]
        assert message.startswith("xi-ineq") and mention in message

    def test_cli_import_loads_no_scipy(self):
        # the runtime depends on numpy alone; scipy is a test extra
        src = os.path.dirname(os.path.dirname(xi_ineq.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, xi_ineq.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_cache_is_bounded(self):
        bounds = {}
        for info in pkgutil.iter_modules(xi_ineq.__path__, "xi_ineq."):
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                if callable(obj) and hasattr(obj, "cache_info"):
                    bounds[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
        assert {"xi_ineq.theta.divisor_sigma",
                "xi_ineq.theta.theta_R", "xi_ineq.theta.theta_R_prime",
                "xi_ineq.modulus._w_table", "xi_ineq.modulus._jeta_table"} <= set(bounds)
        assert all(isinstance(m, int) for m in bounds.values()), bounds
        # one record per sigma or tau: no other cache above the theta layer
        assert {name for name in bounds if not name.startswith("xi_ineq.theta.")} == {
            "xi_ineq.modulus._w_table", "xi_ineq.modulus._jeta_table",
            "xi_ineq.xi._u_table", "xi_ineq.xi.xi_real"}

    def test_constants_one_cache_entry_whatever_the_call_form(self):
        _w_table.cache_clear()
        constants(0.75)
        constants(0.75, DEFAULT_CONFIG)
        constants(0.75, cfg=DEFAULT_CONFIG)
        assert _w_table.cache_info().misses == 1
