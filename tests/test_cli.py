import json
import math
import shutil

import numpy as np
import pytest

import rotorkick.cli as cli
import rotorkick.core
import rotorkick.sweep
from rotorkick.cli import main, parse_config
from rotorkick.core import _J_MAX_LIMIT, _STEPS_LIMIT
from rotorkick.serialize import read_records_csv
from rotorkick.sweep import PointRecord, SweepResult
from rotorkick.validate import CheckResult


class TestParseConfig:
    def test_missing_subcommand(self):
        with pytest.raises(cli.UsageError):
            parse_config([])

    def test_unknown_flag(self):
        with pytest.raises(cli.UsageError):
            parse_config(["analytic", "--P", "1.5", "--bogus", "1"])

    def test_config_file_merged(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment line\nP=1.5\nsigma=3.0\nj0=1\n")
        cfg = parse_config(["--config", str(cfgfile), "propagate"])
        assert cfg.options["P"] == 1.5
        assert cfg.options["sigma"] == 3.0
        assert cfg.options["j0"] == 1

    def test_cli_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("P=1.5\nsigma=3.0\n")
        cfg = parse_config(["--config", str(cfgfile), "propagate", "--sigma", "2.0"])
        assert cfg.options["sigma"] == 2.0
        assert cfg.options["P"] == 1.5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("strength=1.5\n")
        with pytest.raises(cli.UsageError):
            parse_config(["--config", str(cfgfile), "propagate", "--P", "1", "--sigma", "1"])

    def test_malformed_config_line(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("just a line without equals\n")
        with pytest.raises(cli.UsageError):
            parse_config(["--config", str(cfgfile), "analytic", "--P", "1.5"])

    def test_sweep_requires_p_spec(self):
        with pytest.raises(cli.UsageError):
            parse_config(["sweep", "--sigma-min", "1", "--sigma-max", "2",
                          "--sigma-step", "0.1"])

    def test_sweep_p_conflict(self):
        with pytest.raises(cli.UsageError):
            parse_config(["sweep", "--P", "1.5", "--P-min", "1", "--P-max", "2",
                          "--P-step", "0.5", "--sigma-min", "1", "--sigma-max", "2",
                          "--sigma-step", "0.1"])

    def test_parser_built_once(self):
        parse_config(["analytic", "--P", "1.5"])
        misses = cli._build_parser.cache_info().misses
        assert parse_config(["analytic", "--P", "2.5"]).options["P"] == 2.5
        assert cli._build_parser.cache_info().misses == misses

    def test_bad_format(self):
        with pytest.raises(cli.UsageError):
            parse_config(["analytic", "--P", "1.5", "--formats", "csv,pdf"])

    def test_config_value_checked_against_choices(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("P=1.5\nsigma=3.0\nmethod=euler\n")
        assert main(["--config", str(cfgfile), "propagate", "--out", str(tmp_path / "out")]) == 1
        assert "invalid choice: 'euler'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("P=-1", "--P must be finite and >= 0"),
        ("sigma_step=nan", "--sigma-step must be finite and > 0"),
        ("drop_threshold=1.5", "--drop-threshold must be in (0, 1)"),
        ("j_max=2.5", "invalid int value: '2.5'"),
    ])
    def test_config_value_checked_like_its_flag(self, line, message, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"P=1.5\nsigma_min=1\nsigma_max=2\nsigma_step=0.5\n{line}\n")
        assert main(["--config", str(cfgfile), "sweep", "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--drop-threshold", "--drop"])
    def test_given_flag_overrides_config_abbreviated_or_not(self, flag, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("P=1.5\nsigma_min=1\nsigma_max=2\nsigma_step=0.5\n"
                           "drop_threshold=0.3\n")
        cfg = parse_config(["--config", str(cfgfile), "sweep", flag, "0.2"])
        assert cfg.options["drop_threshold"] == 0.2

    @pytest.mark.parametrize("value, quick", [
        ("true", True), ("yes", True), ("1", True), ("false", False), ("no", False),
        ("0", False), ("FALSE", False), ("maybe", None), ("", None),
    ])
    def test_config_switch_values(self, value, quick, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_acceptance", lambda **kw: [CheckResult("stub", True, "ok")])
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"quick={value}\n")
        argv = ["--config", str(cfgfile), "validate", "--out", str(tmp_path / "out")]
        if quick is None:
            assert main(argv) == 1
        else:
            assert parse_config(argv).options["quick"] is quick

    def test_unreadable_config_file_is_1(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg"), "analytic", "--P", "1.5",
                     "--out", str(tmp_path / "out")]) == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_config_file_writes_the_same_bytes_as_flags(self, tmp_path, monkeypatch):
        # a fig2-shaped sweep: P and sigma from flags, then from a config file
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "out"
        flags = ["--P", "1.5", "--sigma-min", "0.005", "--sigma-max", "10",
                 "--sigma-step", "0.005"]
        names = ("records.csv", "records.json", "config_echo.txt")
        assert main(["sweep", *flags, "--out", str(out)]) == 0
        want = {name: (out / name).read_bytes() for name in names}
        shutil.rmtree(out)
        cfgfile = tmp_path / "fig2.cfg"
        cfgfile.write_text("P=1.5\nsigma_min=0.005\nsigma_max=10\nsigma_step=0.005\n")
        assert main(["--config", str(cfgfile), "sweep", "--out", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == want


# a three-point sweep at the paper's P
SWEEP = ["sweep", "--P", "1.5", "--sigma-min", "1", "--sigma-max", "2", "--sigma-step", "0.5"]


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["propagate", "--P", "1.5"]) == 1  # missing --sigma
        assert "error" in capsys.readouterr().err

    def test_negative_p_is_1(self):
        assert main(["propagate", "--P", "-1", "--sigma", "1"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--P", "nan", "--sigma-min", "1", "--sigma-max", "2", "--sigma-step", "0.5"],
         "--P must be finite and >= 0"),
        (["sweep", "--P", "1", "--sigma-min", "1", "--sigma-max", "inf", "--sigma-step", "0.5"],
         "--sigma-max must be finite and > 0"),
        (["sweep", "--P-min", "1", "--P-max", "nan", "--P-step", "0.5", "--sigma-min", "1",
          "--sigma-max", "2", "--sigma-step", "0.5"], "--P-max must be finite and >= 0"),
        (["sweep", "--P-min", "1", "--P-max", "2", "--P-step", "0", "--sigma-min", "1",
          "--sigma-max", "2", "--sigma-step", "0.5"], "--P-step must be finite and > 0"),
        (["propagate", "--P", "inf", "--sigma", "1"], "--P must be finite and >= 0"),
        (["propagate", "--P", "1", "--sigma", "nan"], "--sigma must be finite and > 0"),
    ])
    def test_non_finite_is_1(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid_args, message", [
        (["--P-min", "2", "--P-max", "1", "--P-step", "0.5",
          "--sigma-min", "1", "--sigma-max", "2"], "P_max must be >= P_min, got 1.0 < 2.0"),
        (["--P", "1.5", "--sigma-min", "2", "--sigma-max", "1"],
         "sigma_max must be >= sigma_min, got 1.0 < 2.0"),
    ])
    def test_max_below_min_is_1(self, grid_args, message, tmp_path, capsys):
        argv = ["sweep", *grid_args, "--sigma-step", "0.5", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid_args, field", [
        (["--P", "1.5", "--sigma-min", "1", "--sigma-max", "2", "--sigma-step", "1e-320"],
         "sigma_step"),
        (["--P-min", "1", "--P-max", "2", "--P-step", "1e-320", "--sigma-min", "1",
          "--sigma-max", "2", "--sigma-step", "0.5"], "P_step"),
    ])
    def test_oversized_axis_is_1(self, grid_args, field, tmp_path, capsys):
        assert main(["sweep", *grid_args, "--out", str(tmp_path / "out")]) == 1
        assert f"error: {field} 1e-320 gives inf points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_grid_is_1(self, tmp_path, monkeypatch, capsys):
        # 1001 P x 1000 sigma values: each axis fits its cap, the grid does not
        def no_evaluate(*args):
            raise AssertionError("the sweep started evaluating points")
        monkeypatch.setattr(rotorkick.sweep, "_evaluate", no_evaluate)
        argv = ["sweep", "--P-min", "0", "--P-max", "1000", "--P-step", "1", "--sigma-min", "1",
                "--sigma-max", "1000", "--sigma-step", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: grid of 1001 P x 1000 sigma values has "
                                           "1001000 points, more than 1000000\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epoch", ["abc", "1e3", "1.5"])
    def test_malformed_source_date_epoch_is_1(self, epoch, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        rc = main(["sweep", "--P", "1.5", "--sigma-min", "1", "--sigma-max", "2",
                   "--sigma-step", "0.5", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["propagate", "--P", "1.5", "--sigma", "3"], SWEEP])
    def test_out_of_memory_is_1(self, argv, tmp_path, monkeypatch, capsys):
        def no_memory(j_max):
            raise MemoryError(f"cannot hold the bands of j_max={j_max}")
        monkeypatch.setattr(rotorkick.core, "_bands", no_memory)
        assert main([*argv, "--j-max", str(_J_MAX_LIMIT), "--out", str(tmp_path)]) == 1
        assert f"error: out of memory: cannot hold the bands of j_max={_J_MAX_LIMIT}" in (
            capsys.readouterr().err)

    def test_j_max_above_the_limit_is_1_on_both_commands(self, tmp_path, monkeypatch, capsys):
        # refused while the arguments are parsed: no band is built, no file written
        def no_bands(j_max):
            raise AssertionError(f"_bands({j_max}) was called")
        monkeypatch.setattr(rotorkick.core, "_bands", no_bands)
        errors = []
        for argv in (["propagate", "--P", "1.5", "--sigma", "3"], SWEEP):
            assert main([*argv, "--j-max", "100000000", "--out", str(tmp_path / "out")]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: --j-max must be <= {_J_MAX_LIMIT}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_j_max_is_1_on_both_commands(self, tmp_path, capsys):
        errors = []
        for argv in (["propagate", "--P", "1.5", "--sigma", "3"], SWEEP):
            assert main([*argv, "--j-max", "-1", "--out", str(tmp_path / "out")]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: --j-max must be >= 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["propagate", "--P", "1.5", "--sigma", "3", "--j0", "-1"], "--j0"),
        ([*SWEEP, "--j0", "-1"], "--j0"),
        (["validate", "--quick", "--seed", "-1"], "--seed"),
    ])
    def test_negative_j0_and_seed_are_1(self, argv, flag, tmp_path, monkeypatch, capsys):
        # refused while the arguments are parsed: no check runs, no file is written
        def no_checks(**kwargs):
            raise AssertionError("the acceptance checks started")
        monkeypatch.setattr(cli, "run_acceptance", no_checks)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 0\n"
        assert not (tmp_path / "out").exists()

    def test_steps_above_the_limit_is_1(self, tmp_path, monkeypatch, capsys):
        # refused while the arguments are parsed: no step runs, no file is written
        def no_ode(*args, **kwargs):
            raise AssertionError("propagate_ode was called")
        monkeypatch.setattr(cli, "propagate_ode", no_ode)
        assert main(["propagate", "--P", "1.5", "--sigma", "3", "--method", "rk4",
                     "--steps", str(_STEPS_LIMIT + 1), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: --steps must be <= {_STEPS_LIMIT}\n"
        assert not (tmp_path / "out").exists()

    def test_j0_above_the_auto_ladder_is_1(self, tmp_path, monkeypatch, capsys):
        # auto mode's first basis, J0 + 4, is above the cap: refused before any
        # band is built, and before the sweep writes a file
        def no_bands(j_max):
            raise AssertionError(f"_bands({j_max}) was called")
        monkeypatch.setattr(rotorkick.core, "_bands", no_bands)
        message = ("error: J0=5000 leaves auto mode no basis to try: its first, j_max=5004, "
                   "is above the cap j_max_cap=400\n")
        assert main([*SWEEP, "--j0", "5000", "--out", str(tmp_path / "sweep")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "sweep").exists()
        assert main(["propagate", "--P", "1", "--sigma", "1", "--j0", "5000",
                     "--out", str(tmp_path / "propagate")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "propagate").exists()

    def test_j0_outside_a_fixed_basis_is_1_and_writes_no_file(self, tmp_path, capsys):
        # propagate refuses it as sweep does, before config_echo.txt is written
        assert main(["propagate", "--P", "1", "--sigma", "1", "--j-max", "3", "--j0", "5",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: J0=5 outside basis (j_max=3)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["5", "0", "1", "nan"])
    def test_leak_tol_outside_0_1_is_1_on_both_commands(self, tmp_path, capsys, tol):
        # refused with a fixed basis too, where the ladder never reads it
        errors = []
        for argv in (["propagate", "--P", "1.5", "--sigma", "3"], SWEEP):
            for j_max in ("9", "0"):
                assert main([*argv, "--j-max", j_max, "--leak-tol", tol,
                             "--out", str(tmp_path / "out")]) == 1
                errors.append(capsys.readouterr().err)
        assert set(errors) == {"error: --leak-tol must be in (0, 1)\n"}
        assert not (tmp_path / "out").exists()

    def test_convergence_failure_is_2(self, tmp_path, capsys):
        rc = main(["propagate", "--P", "500", "--sigma", "0.001",
                   "--leak-tol", "1e-14", "--out", str(tmp_path)])
        assert rc == 2
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_args, n_points, plots", [
        (["--P", "500"], 6,
         ("energy_vs_sigma", "coeffs_vs_sigma", "orientation", "alignment")),
        (["--P-min", "400", "--P-max", "500", "--P-step", "50"], 18, ("surface_heatmap",)),
    ])
    def test_all_failed_sweep_is_2(self, grid_args, n_points, plots, tmp_path, monkeypatch,
                                   capsys):
        # every point fails: the figures still draw and the exit code reports a
        # numeric failure, not a usage error
        def all_failed(grid, drop_rel_threshold):
            return SweepResult(grid=grid, records=[
                PointRecord(p=p, sigma=s, j0=grid.j0, j_max=-1, energy=math.nan,
                            orientation=math.nan, alignment=math.nan,
                            populations=np.array([]), coeff_abs=np.array([]),
                            failed=True, error="basis did not converge")
                for p in grid.p_values for s in grid.sigma_values])
        monkeypatch.setattr(cli, "run_sweep", all_failed)
        rc = main(["sweep", *grid_args, "--sigma-min", "0.001", "--sigma-max", "0.006",
                   "--sigma-step", "0.001", "--formats", "csv,json,svg", "--out", str(tmp_path)])
        assert rc == 2
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert len(failures) == n_points
        assert f"{n_points} grid points failed" in capsys.readouterr().err
        for name in plots:
            assert (tmp_path / f"{name}.svg").read_text().endswith("</svg>\n")

    def test_validation_failure_is_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_acceptance", lambda **kw: [
            CheckResult("stub-pass", True, "ok"),
            CheckResult("stub-fail", False, "bad"),
        ])
        rc = main(["validate", "--out", str(tmp_path)])
        assert rc == 3
        out = capsys.readouterr().out
        assert "[PASS] stub-pass" in out and "[FAIL] stub-fail" in out
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert [d["passed"] for d in doc] == [True, False]

    def test_validation_success_is_0(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_acceptance",
                            lambda **kw: [CheckResult("stub", True, "ok")])
        assert main(["validate", "--out", str(tmp_path)]) == 0


class TestPropagateCommand:
    def test_outputs_and_echo(self, tmp_path, capsys):
        rc = main(["propagate", "--P", "1.5", "--sigma", "3.044",
                   "--formats", "csv,json,svg", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "propagate.json").exists()
        assert (tmp_path / "propagate.csv").exists()
        assert (tmp_path / "polar_density.svg").exists()
        echo = (tmp_path / "config_echo.txt").read_text()
        assert "command=propagate" in echo
        assert "P=1.5" in echo
        doc = json.loads((tmp_path / "propagate.json").read_text())
        assert doc["kinetic_energy"] < 1e-4
        assert "E=" in capsys.readouterr().out

    def test_rk4_method(self, tmp_path):
        rc = main(["propagate", "--P", "1.5", "--sigma", "3.0", "--method", "rk4",
                   "--steps", "20000", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "propagate.json").read_text())
        assert doc["method"] == "rk4"

    def test_fixed_basis(self, tmp_path):
        rc = main(["propagate", "--P", "1.5", "--sigma", "3.0", "--j-max", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "propagate.json").read_text())
        assert doc["j_max"] == 9


class TestSweepCommand:
    def test_one_dimensional(self, tmp_path, capsys):
        rc = main(["sweep", "--P", "1.5", "--sigma-min", "2.0", "--sigma-max", "4.0",
                   "--sigma-step", "0.05",
                   "--formats", "csv,json,svg", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("records.csv", "records.json", "drops.csv",
                     "energy_vs_sigma.svg", "coeffs_vs_sigma.svg",
                     "orientation.svg", "alignment.svg"):
            assert (tmp_path / name).exists(), name
        out = capsys.readouterr().out
        assert "1 drops" in out
        assert "n=1" in out  # analytic comparison printed

    @pytest.mark.parametrize("j0, compared", [(1, True), (2, False)])
    def test_drops_compared_for_the_two_level_pairs(self, j0, compared, tmp_path, capsys):
        # J0 = 1 has a two-level pair to compare its drop with; J0 = 2 has a drop
        # but no pair, so no comparison is printed
        assert main(["sweep", "--P", "1.5", "--sigma-min", "0.05", "--sigma-max", "2.0",
                     "--sigma-step", "0.05", "--j0", str(j0), "--formats", "csv",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "40 points (0 failed), 1 drops" in out
        assert ("  drop at sigma=" in out) == compared

    def test_sigma_axis_stops_at_max(self, tmp_path):
        # 20.8 steps of 0.05 fit: the last row is sigma = 2.0, not 2.05 > 2.04
        assert main(["sweep", "--P", "1.5", "--sigma-min", "1.0", "--sigma-max", "2.04",
                     "--sigma-step", "0.05", "--formats", "csv", "--out", str(tmp_path)]) == 0
        _, data = read_records_csv(tmp_path / "records.csv")
        assert data[:, 1].tolist() == [round(1.0 + 0.05 * i, 12) for i in range(21)]

    def test_two_dimensional(self, tmp_path):
        rc = main(["sweep", "--P-min", "0.5", "--P-max", "2.5", "--P-step", "0.5",
                   "--sigma-min", "2.0", "--sigma-max", "4.0", "--sigma-step", "0.5",
                   "--formats", "csv,svg", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "surface_heatmap.svg").exists()

    def test_surface_without_line_fit(self, tmp_path):
        # the two minima of this block lie on different parabolas, so no
        # shared slope can be fitted; the sweep still writes its records
        rc = main(["sweep", "--P-min", "5.3", "--P-max", "8.45", "--P-step", "0.05",
                   "--sigma-min", "5.3", "--sigma-max", "8.45", "--sigma-step", "0.05",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "records.csv").exists()
        doc = json.loads((tmp_path / "records.json").read_text())
        assert len(doc["records"]) == 64 * 64
        assert len(doc["minima"]) >= 2
        assert "minima_line_fit" not in doc

    def test_j_max_fixes_the_basis(self, tmp_path):
        assert main([*SWEEP, "--j-max", "20", "--formats", "csv,json", "--out", str(tmp_path)]) == 0
        cols, data = read_records_csv(tmp_path / "records.csv")
        assert len(cols) == data.shape[1] == 6 + 2 * 21 and data.shape[0] == 3
        config = json.loads((tmp_path / "records.json").read_text())["metadata"]["config"]
        assert config["j_max"] == 20 and "basis" not in config
        assert "j_max=20" in (tmp_path / "config_echo.txt").read_text().splitlines()

    def test_basis_option_is_gone(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([*SWEEP, "--basis", "fixed", "--out", out]) == 1
        assert "unrecognized arguments: --basis fixed" in capsys.readouterr().err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("basis=fixed\n")
        assert main(["--config", str(cfgfile), *SWEEP, "--out", out]) == 1
        assert "unknown config key 'basis'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid_args, rc_want", [
        (["--P", "1.5", "--sigma-min", "2.0", "--sigma-max", "4.0", "--sigma-step", "0.05"], 0),
        (["--P-min", "1.5", "--P-max", "500", "--P-step", "498.5", "--sigma-min", "0.001",
          "--sigma-max", "0.02", "--sigma-step", "0.001", "--leak-tol", "1e-14"], 2),
    ])
    def test_builds_no_point_records(self, grid_args, rc_want, tmp_path, monkeypatch):
        # from the eigensolve to the files, figures and summary on columns alone,
        # failed points and failures.json included
        def no_records(*args):
            raise AssertionError("the sweep built PointRecords")
        monkeypatch.setattr(rotorkick.sweep, "_point_records", no_records)
        rc = main(["sweep", *grid_args, "--formats", "csv,json,svg", "--out", str(tmp_path)])
        assert rc == rc_want
        assert (tmp_path / "records.json").exists()
        assert (tmp_path / "failures.json").exists() == (rc_want == 2)


class TestAnalyticCommand:
    def test_outputs(self, tmp_path, capsys):
        rc = main(["analytic", "--P", "1.5", "--n-max", "3", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "zero_loci.json").read_text())
        assert len(doc["loci"]) == 3
        assert doc["loci"][0]["sigma_exact"] == pytest.approx(3.0199, abs=1e-3)
        csv_lines = (tmp_path / "zero_loci.csv").read_text().splitlines()
        assert csv_lines[0] == "n,sigma_exact,sigma_taylor"
        assert len(csv_lines) == 4
        assert "existence threshold" in capsys.readouterr().out

    def test_no_roots_in_strong_field(self, tmp_path, capsys):
        rc = main(["analytic", "--P", "6.0", "--n-max", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "no real roots" in capsys.readouterr().out
        assert (tmp_path / "zero_loci.csv").read_bytes() == b"n,sigma_exact,sigma_taylor\r\n"

    @pytest.mark.parametrize("n_max", ["0", "100001", "100000000", "2.5", "True"])
    def test_n_max_out_of_range_is_1(self, n_max, tmp_path, capsys):
        argv = ["analytic", "--P", "1.5", "--n-max", n_max, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert ("--n-max must be in [1, 100000]" in err if n_max.isdigit()
                else "invalid int value" in err)
        assert not (tmp_path / "out").exists()
