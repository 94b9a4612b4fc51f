"""Command-line runner: config parsing, suite dispatch, artifacts, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kmaxwell import cli, evolution, io, tolerances

pytestmark = pytest.mark.filterwarnings("error")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(args, capsys):
    code = cli.main([str(a) for a in args])
    return code, capsys.readouterr().out


def load_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def checks_by_name(manifest):
    return {c["name"]: c for c in manifest["checks"]}


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")

# every config key with its default, in RunConfig field order
GENERAL_DEFAULTS = {
    "experiment": None, "n": 3, "k": 2, "cells": 16, "length": 1.0, "dt": 0.005,
    "periodic": False, "beta": "unit", "a": "unit", "t_final": 0.5, "cfl": 0.4,
    "boundary": "project_B", "monitor_stride": 1, "steps": 120, "trials": 3,
    "bundles": 5, "seed": 0, "out": None,
}
IDENTITIES = {**GENERAL_DEFAULTS, "experiment": "identities", "trials": 100}
SYMBOL_AUDIT = {**GENERAL_DEFAULTS, "experiment": "symbol_audit", "trials": 1000}
EVOLVE = {**GENERAL_DEFAULTS, "experiment": "evolve"}
GREEN_SUITE = {**GENERAL_DEFAULTS, "experiment": "green_suite", "dt": 0.0025, "steps": 240}
SYMPLECTIC_SUITE = {**GENERAL_DEFAULTS, "experiment": "symplectic_suite"}


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "experiment = identities\n"))
        assert cfg.experiment == "identities"
        assert cfg.cells == 16
        assert cfg.seed == 0
        assert cfg.n == 3 and cfg.k == 2
        assert cfg.dt == 0.005 and cfg.steps == 120
        assert cfg.trials == 100
        assert cfg.periodic is False

    def test_per_suite_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "experiment = green_suite\n"))
        assert cfg.dt == 0.0025 and cfg.steps == 240 and cfg.trials == 3
        cfg = cli.parse_config(write_config(tmp_path, "experiment = symbol_audit\n"))
        assert cfg.trials == 1000

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("identities", IDENTITIES),
            ("symbol_audit", SYMBOL_AUDIT),
            ("evolve", {**EVOLVE, "cells": 32, "dt": 0.0125, "t_final": 1.25, "monitor_stride": 5}),
            ("green_suite", GREEN_SUITE),
            ("symplectic_suite", {**SYMPLECTIC_SUITE, "periodic": True}),
        ],
    )
    def test_demo_config_resolves_every_key(self, name, expected):
        cfg = cli.parse_config(os.path.join(DEMO_CONFIGS, f"{name}.cfg"))
        assert list(dataclasses.asdict(cfg).items()) == list(expected.items())

    @pytest.mark.parametrize(
        "expected", [IDENTITIES, SYMBOL_AUDIT, EVOLVE, GREEN_SUITE, SYMPLECTIC_SUITE],
        ids=lambda e: e["experiment"],
    )
    def test_bare_config_resolves_every_key(self, tmp_path, expected):
        cfg = cli.parse_config(write_config(tmp_path, f"experiment = {expected['experiment']}\n"))
        assert list(dataclasses.asdict(cfg).items()) == list(expected.items())

    @pytest.mark.parametrize("text,value", [("true", True), ("1", True), ("false", False), ("0", False)])
    def test_boolean_spellings(self, tmp_path, text, value):
        cfg = cli.parse_config(write_config(tmp_path, f"experiment = evolve\nperiodic = {text}\n"))
        assert cfg.periodic is value

    def test_comments_blanks_and_whitespace(self, tmp_path):
        text = "# full line comment\n\n  experiment=evolve  # trailing comment\n\tseed =  7\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        assert cfg.experiment == "evolve" and cfg.seed == 7

    def test_explicit_values_parsed(self, tmp_path):
        text = (
            "experiment = evolve\nn = 4\nk = 3\ncells = 8\nlength = 2.0\ndt = 0.01\n"
            "periodic = true\nbeta = well\na = expanding\nt_final = 0.25\ncfl = 0.3\n"
            "boundary = periodic_test\nmonitor_stride = 2\nsteps = 48\ntrials = 9\n"
            "bundles = 3\nseed = 11\nout = artifacts\n"
        )
        cfg = cli.parse_config(write_config(tmp_path, text))
        assert (cfg.n, cfg.k, cfg.cells, cfg.length) == (4, 3, 8, 2.0)
        assert cfg.periodic is True and cfg.beta == "well" and cfg.a == "expanding"
        assert (cfg.boundary, cfg.monitor_stride) == ("periodic_test", 2)
        assert (cfg.steps, cfg.trials, cfg.bundles, cfg.seed) == (48, 9, 3, 11)
        assert cfg.out == "artifacts"

    def test_n_out_of_range_message(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, "experiment = identities\nn = 6\n"))
        assert "n out of supported range [2,5]" in err.value.errors

    def test_k_out_of_range_message(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, "experiment = identities\nn = 3\nk = 3\n"))
        assert any("k out of supported range [1,2]" in e for e in err.value.errors)

    def test_duplicate_key_names_the_line(self, tmp_path):
        text = "experiment = identities\nseed = 1\nseed = 2\n"
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, text))
        assert any(e.startswith("line 3: duplicate key 'seed'") for e in err.value.errors)

    def test_all_errors_collected_at_once(self, tmp_path):
        text = "experiment = evolve\nn = 6\nfruit = banana\ndt = fast\nn = 3\nnonsense line\n"
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, text))
        joined = "\n".join(err.value.errors)
        assert "line 3: unknown key 'fruit'" in joined
        assert "line 4: malformed number for 'dt': 'fast'" in joined
        assert "line 5: duplicate key 'n'" in joined
        assert "line 6: expected key=value" in joined
        assert "n out of supported range [2,5]" in joined
        assert len(err.value.errors) == 5

    def test_unknown_enumeration_values(self, tmp_path):
        for text, fragment in (
            ("experiment = frobnicate\n", "unknown experiment"),
            ("experiment = evolve\nbeta = vortex\n", "unknown beta expression id"),
            ("experiment = evolve\na = collapsing\n", "unknown a expression id"),
            ("experiment = evolve\nboundary = reflect\n", "boundary must be one of"),
            ("experiment = evolve\nperiodic = maybe\n", "malformed boolean"),
        ):
            with pytest.raises(cli.ConfigError) as err:
                cli.parse_config(write_config(tmp_path, text))
            assert any(fragment in e for e in err.value.errors), fragment

    def test_experiment_required(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, "seed = 3\n"))
        assert any("experiment is required" in e for e in err.value.errors)

    def test_positivity_and_range_guards(self, tmp_path):
        text = (
            "experiment = evolve\ncells = 0\nlength = -1\ndt = 0\nt_final = 0\n"
            "cfl = -0.1\nmonitor_stride = 0\nsteps = 4\ntrials = 0\nbundles = 0\nseed = -2\n"
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, text))
        joined = "\n".join(err.value.errors)
        for fragment in (
            "cells must be a positive integer",
            "length must be positive",
            "dt must be positive",
            "t_final must be positive",
            "cfl must be positive",
            "monitor_stride must be a positive integer",
            "steps must be at least 8",
            "trials must be a positive integer",
            "bundles must be a positive integer",
            "seed must be non-negative",
        ):
            assert fragment in joined, fragment

    def test_suite_metric_constraints(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(
                write_config(tmp_path, "experiment = green_suite\na = expanding\n")
            )
        assert any("requires the static scale factor" in e for e in err.value.errors)
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, "experiment = green_suite\nk = 1\n"))
        assert any("green_suite requires 2 <= k" in e for e in err.value.errors)
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, "experiment = symplectic_suite\nn = 2\nk = 1\n"))
        assert any("symplectic_suite requires n >= 3" in e for e in err.value.errors)

    def test_symplectic_suite_needs_two_bundles(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = symplectic_suite\nbundles = 1\n")
        code, text = run_cli(["validate", "--config", cfg], capsys)
        assert code == 2
        assert "config error: symplectic_suite requires at least two bundles to pair" in text
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(write_config(tmp_path, "experiment = symplectic_suite\nbundles = 0\n"))
        assert err.value.errors == ["bundles must be a positive integer"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("experiment = green_suite\ncells = 80\n", "cells must not exceed 64"),
            ("experiment = symplectic_suite\nsteps = 600\n", "steps must not exceed 512"),
        ],
    )
    def test_history_budget_is_a_config_error(self, tmp_path, capsys, command, text, fragment):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        args = [command, "--config", cfg] + (["--out", out] if command == "run" else [])
        code, printed = run_cli(args, capsys)
        assert code == 2
        assert f"config error: {text.split()[2]} keeps dense histories: {fragment}" in printed
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("experiment", ["green_suite", "symplectic_suite"])
    def test_step_above_the_courant_limit_is_a_config_error(self, tmp_path, capsys, command, experiment):
        # 16 cells on the unit box: h = 0.0625, limit 0.9 * h / 1 = 0.05625
        cfg = write_config(tmp_path, f"experiment = {experiment}\ncells = 16\ndt = 0.06\n")
        out = tmp_path / "out"
        args = [command, "--config", cfg] + (["--out", out] if command == "run" else [])
        code, printed = run_cli(args, capsys)
        assert code == 2
        assert f"config error: {experiment}: cfl violation: dt=0.06 exceeds" in printed
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("cfl = 0.95\n", "cfl must lie in (0, 0.9]"),
            ("t_final = inf\n", "t_final must be finite"),
            ("boundary = periodic_test\n", "periodic_test mode requires an all-periodic grid"),
        ],
    )
    def test_invalid_evolve_parameters_are_config_errors(self, tmp_path, capsys, command, text, fragment):
        # evolution.EvolveConfig's rules and the boundary-mode rule, checked before any output is written
        cfg = write_config(tmp_path, "experiment = evolve\n" + text)
        out = tmp_path / "out"
        args = [command, "--config", cfg] + (["--out", out] if command == "run" else [])
        code, printed = run_cli(args, capsys)
        assert code == 2
        assert f"config error: evolve: {fragment}" in printed
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_demo_configs_are_accepted(self, name):
        assert cli.parse_config(os.path.join(DEMO_CONFIGS, f"{name}.cfg")).experiment == name


class TestBuilders:
    def test_grid_from_config(self, tmp_path):
        cfg = cli.parse_config(
            write_config(tmp_path, "experiment = evolve\nn = 4\ncells = 8\nlength = 2.0\nperiodic = true\n")
        )
        grid = cli.build_grid(cfg)
        assert grid.n == 4
        assert grid.cells_per_axis == (8, 8, 8)
        assert grid.lengths == (2.0, 2.0, 2.0)
        assert grid.periodic == (True, True, True)

    def test_metric_catalogue(self, tmp_path):
        cfg = cli.parse_config(
            write_config(tmp_path, "experiment = evolve\nbeta = well\na = expanding\n")
        )
        metric = cli.build_metric(cfg)
        assert metric.beta(0.0, 0.5, 0.5) == pytest.approx(0.75)
        assert metric.beta(0.0, 0.0, 0.0) > 0.99
        assert metric.conf(0.0) == 1.0
        assert metric.conf(1.0) == pytest.approx(1.1)
        unit = cli.build_metric(cli.parse_config(write_config(tmp_path, "experiment = evolve\n")))
        assert unit.beta(0.3, 0.1, 0.9) == 1.0 and unit.conf(2.0) == 1.0


class TestRunSuites:
    def test_identities_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 5\n")
        out = tmp_path / "out"
        code, text = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0
        manifest = load_manifest(out)
        assert manifest["passed"] is True
        names = sorted(checks_by_name(manifest))
        assert len(names) == 8 and names[0] == "identities_m2_euclidean"
        for check in manifest["checks"]:
            assert check["threshold"] == tolerances.IDENTITY_TOL
            assert check["measure"] < check["threshold"]
        table = io.read_table_csv(out / "series_identities.csv")
        assert len(table["m"]) == 8 and "double_hodge" in table
        assert "8/8 checks passed" in text

    def test_symbol_audit_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = symbol_audit\ntrials = 3\n")
        out = tmp_path / "out"
        code, _ = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0
        manifest = load_manifest(out)
        names = checks_by_name(manifest)
        assert len(names) == 4 * len(cli.SYMBOL_TABLE)
        for n, k in cli.SYMBOL_TABLE:
            assert names[f"symbol_symmetry_n{n}k{k}"]["threshold"] == tolerances.SYMBOL_SYMMETRY_TOL
            assert names[f"symbol_positivity_n{n}k{k}"]["measure"] > 0.0
            assert names[f"symbol_counts_n{n}k{k}"]["measure"] == 0.0
            assert names[f"symbol_admissibility_n{n}k{k}"]["passed"] is True
        table = io.read_table_csv(out / "series_symbol.csv")
        assert len(table["n"]) == len(cli.SYMBOL_TABLE)

    def test_evolve_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = evolve\ndt = 0.01\nt_final = 0.1\n")
        out = tmp_path / "out"
        code, _ = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0
        manifest = load_manifest(out)
        names = checks_by_name(manifest)
        assert names["cfl"]["passed"] is True
        assert names["constraint_drift_rE"]["threshold"] == tolerances.CONSTRAINT_DRIFT_TOL
        assert names["constraint_drift_rB"]["threshold"] == tolerances.CONSTRAINT_DRIFT_TOL
        assert names["boundary_residual"]["threshold"] == tolerances.BOUNDARY_RESIDUAL_TOL
        assert names["cone_leak"]["threshold"] == tolerances.CONE_LEAK_TOL
        series = io.read_monitor_csv(out / "series_monitor.csv")
        assert set(io.MONITOR_COLUMNS) <= set(series)
        assert len(series["time"]) == 11
        listed = set(manifest["files"])
        assert listed == set(os.listdir(out))
        for name in ("snapshot_final_fe.json", "snapshot_final_fe.bin",
                     "snapshot_final_fb.json", "snapshot_final_fb.bin"):
            assert name in listed

    def test_evolve_cfl_violation_fails_named_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = evolve\ndt = 0.2\nt_final = 1.0\n")
        out = tmp_path / "out"
        code, text = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 1
        manifest = load_manifest(out)
        assert manifest["passed"] is False
        cfl = checks_by_name(manifest)["cfl"]
        assert cfl["passed"] is False
        assert cfl["measure"] == 0.2 and cfl["measure"] > cfl["threshold"]
        assert manifest["files"] == ["manifest.json"]
        assert "FAIL" in text and "cfl" in text

    @pytest.mark.parametrize("scale_factor", ["unit", "expanding"])
    def test_evolve_with_well_lapse(self, tmp_path, capsys, scale_factor):
        # the catalogue lapse must broadcast over arrays of mesh sites
        cfg = write_config(
            tmp_path,
            f"experiment = evolve\nbeta = well\na = {scale_factor}\ndt = 0.01\nt_final = 0.1\n",
        )
        out = tmp_path / "out"
        code, text = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0, text
        assert load_manifest(out)["passed"] is True

    def test_green_suite_with_well_lapse(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "experiment = green_suite\nbeta = well\ncells = 12\ndt = 0.004\nsteps = 100\ntrials = 1\n",
        )
        out = tmp_path / "out"
        code, text = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0, text
        assert checks_by_name(load_manifest(out))["right_inverse_defect"]["passed"] is True

    def test_green_suite_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = green_suite\n")
        out = tmp_path / "out"
        code, _ = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0
        manifest = load_manifest(out)
        names = checks_by_name(manifest)
        defect = names["right_inverse_defect"]
        assert 0.0 < defect["measure"] < tolerances.GREEN_DEFECT_TOL
        assert defect["threshold"] == tolerances.GREEN_DEFECT_TOL
        for key in ("sequence_defect_a", "sequence_defect_b", "sequence_defect_c"):
            assert names[key]["passed"] is True
        table = io.read_table_csv(out / "series_green.csv")
        assert len(table["trial"]) == 3 and "defect_c" in table

    def test_symplectic_suite_on_torus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = symplectic_suite\nperiodic = true\n")
        out = tmp_path / "out"
        code, _ = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0
        manifest = load_manifest(out)
        names = checks_by_name(manifest)
        assert names["skew"]["threshold"] == tolerances.PRESYMPLECTIC_REL_TOL
        assert names["cutoff_independence"]["passed"] is True
        table = io.read_table_csv(out / "series_symplectic.csv")
        assert len(table["sigma"]) == 10
        assert np.max(np.abs(table["sigma"])) > 0.0

    def test_symplectic_suite_with_well_lapse(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = symplectic_suite\nperiodic = true\nbeta = well\n")
        out = tmp_path / "out"
        code, text = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0, text
        assert checks_by_name(load_manifest(out))["cutoff_independence"]["measure"] < 1e-15

    def test_manifest_structure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\nseed = 4\n")
        out = tmp_path / "out"
        run_cli(["run", "--config", cfg, "--out", out], capsys)
        manifest = load_manifest(out)
        assert manifest["config"]["experiment"] == "identities"
        assert manifest["config"]["seed"] == 4
        assert manifest["config"]["trials"] == 2
        assert manifest["version"]
        assert manifest["started"] <= manifest["finished"]
        for check in manifest["checks"]:
            assert set(check) == {"name", "passed", "measure", "threshold", "detail"}
        assert set(manifest["files"]) == set(os.listdir(out))


class TestRuntimeFailure:
    def test_instability_writes_a_manifest_and_exits_3(self, tmp_path, capsys, monkeypatch):
        def blow_up(s0, src, metric, cfg, support=None):
            raise evolution.InstabilityError(0.25, s0, None)

        monkeypatch.setattr(evolution, "evolve", blow_up)
        cfg = write_config(tmp_path, "experiment = evolve\ndt = 0.01\nt_final = 0.1\n")
        out = tmp_path / "out"
        code, stdout = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 3
        manifest = load_manifest(out)
        assert manifest["passed"] is False
        assert manifest["checks"] == [] and manifest["files"] == ["manifest.json"]
        error = manifest["error"]
        assert error["type"] == "InstabilityError"
        assert error["message"] == "evolution became non-finite after t=0.25"
        assert error["phase"] == "cli._run_evolve"
        assert error["t_last"] == 0.25
        assert "ERROR InstabilityError in cli._run_evolve" in stdout

    def test_instability_writes_the_partial_monitor_series(self, tmp_path, capsys, monkeypatch):
        evolve = evolution.evolve

        def blow_up(s0, src, metric, cfg, support=None):
            short = evolution.EvolveConfig(t_final=s0.t + 2 * s0.grid.dt, cfl=cfg.cfl)
            _, series = evolve(s0, src, metric, short, support=support)
            raise evolution.InstabilityError(float(series.times[-1]), s0, series)

        monkeypatch.setattr(evolution, "evolve", blow_up)
        cfg = write_config(tmp_path, "experiment = evolve\ndt = 0.01\nt_final = 0.1\n")
        out = tmp_path / "out"
        code, stdout = run_cli(["run", "--config", cfg, "--out", out], capsys)
        assert code == 3
        manifest = load_manifest(out)
        assert manifest["passed"] is False and manifest["checks"] == []
        assert manifest["files"] == ["series_monitor.csv", "manifest.json"]
        assert set(manifest["files"]) == set(os.listdir(out))
        assert manifest["error"]["phase"] == "cli._run_evolve"
        assert manifest["error"]["t_last"] == pytest.approx(0.02)
        series = io.read_monitor_csv(out / "series_monitor.csv")
        np.testing.assert_allclose(series["time"], [0.0, 0.01, 0.02], rtol=0, atol=1e-15)
        assert np.all(np.isfinite(series["energy"])) and series["energy"][0] > 0.0

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from 3.11")
    def test_phase_names_the_class_of_a_method(self, tmp_path, capsys, monkeypatch):
        def bad_config(s0, src, metric, cfg, support=None):
            evolution.EvolveConfig(t_final=1.0, cfl=2.0)

        monkeypatch.setattr(evolution, "evolve", bad_config)
        cfg = write_config(tmp_path, "experiment = evolve\ndt = 0.01\nt_final = 0.1\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out], capsys)[0] == 3
        assert load_manifest(out)["error"]["phase"] == "evolution.EvolveConfig.__post_init__"

    def test_any_suite_exception_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, out):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(cli._SUITES, "identities", broken)
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out], capsys)[0] == 3
        error = load_manifest(out)["error"]
        assert (error["type"], error["message"], error["phase"]) == ("RuntimeError", "disk on fire", "cli.run")
        assert "t_last" not in error

    def test_files_written_before_the_failure_are_indexed(self, tmp_path, capsys, monkeypatch):
        def half_done(cfg, out):
            io.write_json(out / "partial.json", {"done": False})
            raise RuntimeError("second phase failed")

        monkeypatch.setitem(cli._SUITES, "identities", half_done)
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out], capsys)[0] == 3
        manifest = load_manifest(out)
        assert manifest["files"] == ["partial.json", "manifest.json"]
        assert set(manifest["files"]) == set(os.listdir(out))
        assert set(manifest["error"]) == {"type", "message", "phase"}

    def test_files_left_from_an_earlier_run_are_not_indexed(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("stale.txt", "series_monitor.csv", "manifest.json"):
            (out / name).write_text("from an earlier run\n")
            os.utime(out / name, ns=(10**18, 10**18))

        def rewrites_then_fails(cfg, out):
            io.write_json(out / "partial.json", {"done": False})
            (out / "series_monitor.csv").write_text("time\n0.0\n")
            raise RuntimeError("second phase failed")

        monkeypatch.setitem(cli._SUITES, "identities", rewrites_then_fails)
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        assert run_cli(["run", "--config", cfg, "--out", out], capsys)[0] == 3
        assert load_manifest(out)["files"] == ["partial.json", "series_monitor.csv", "manifest.json"]

    def test_passing_manifest_has_no_error_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out], capsys)[0] == 0
        assert set(load_manifest(out)) == {"config", "version", "started", "finished", "checks", "files", "passed"}


class TestCliInterface:
    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        out = tmp_path / "out"
        code, _ = run_cli(["run", "--config", cfg, "--out", out, "--seed", 9], capsys)
        assert code == 0
        assert load_manifest(out)["config"]["seed"] == 9

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        code, text = run_cli(["run", "--config", cfg, "--seed", -1], capsys)
        assert code == 2 and "seed must be non-negative" in text

    def test_out_dir_from_config_and_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\nout = from_config\n")
        code, _ = run_cli(["run", "--config", cfg], capsys)
        assert code == 0 and (tmp_path / "from_config" / "manifest.json").exists()
        code, _ = run_cli(["run", "--config", cfg, "--out", "from_flag"], capsys)
        assert code == 0 and (tmp_path / "from_flag" / "manifest.json").exists()

    def test_validate_success_echoes_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = evolve\nseed = 5\n")
        code, text = run_cli(["validate", "--config", cfg], capsys)
        assert code == 0
        assert "config ok" in text and "seed = 5" in text and "experiment = evolve" in text

    def test_validate_lists_every_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = evolve\nn = 6\nfruit = banana\n")
        code, text = run_cli(["validate", "--config", cfg], capsys)
        assert code == 2
        assert "n out of supported range [2,5]" in text
        assert "unknown key 'fruit'" in text

    def test_missing_config_file(self, tmp_path, capsys):
        code, text = run_cli(["run", "--config", tmp_path / "absent.cfg"], capsys)
        assert code == 2 and "cannot read config" in text

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"experiment = identities\n# caf\xe9\n")
        args = [command, "--config", cfg] + (["--out", tmp_path / "out"] if command == "run" else [])
        code, text = run_cli(args, capsys)
        assert code == 2 and "cannot read config" in text and "utf-8" in text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_output_directory_that_cannot_be_written(self, tmp_path, capsys, out):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        (tmp_path / "taken").write_text("a file, not a directory\n")
        code, text = run_cli(["run", "--config", cfg, "--out", tmp_path / out], capsys)
        assert code == 2 and "cannot write to output directory" in text
        assert (tmp_path / "taken").read_text() == "a file, not a directory\n"

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["run"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_console_script_with_thread_env(self, tmp_path):
        cfg = write_config(tmp_path, "experiment = identities\ntrials = 2\n")
        env = dict(os.environ, KMAXWELL_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "kmaxwell.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout

    def test_fiber_suites_load_no_scipy(self, tmp_path):
        # the fiber audits are numpy only; importing scipy.linalg costs a fresh interpreter about 0.3 s
        configs = [
            str(write_config(tmp_path, f"experiment = {name}\ntrials = 2\n", name=f"{name}.cfg"))
            for name in ("identities", "symbol_audit")
        ]
        script = (
            "import sys\n"
            "from kmaxwell import cli\n"
            f"for i, path in enumerate({configs!r}):\n"
            f"    assert cli.run(cli.parse_config(path), {str(tmp_path)!r} + f'/out{{i}}')['passed']\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = evolve\ndt = 0.01\nt_final = 0.1\nseed = 3\n")
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(["run", "--config", cfg, "--out", out1], capsys)[0] == 0
        assert run_cli(["run", "--config", cfg, "--out", out2], capsys)[0] == 0
        for name in ("series_monitor.csv", "snapshot_final_fe.bin", "snapshot_final_fb.bin",
                     "snapshot_final_fe.json", "snapshot_final_fb.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        first = json.loads((out1 / "manifest.json").read_text())
        second = json.loads((out2 / "manifest.json").read_text())
        for manifest in (first, second):
            manifest.pop("started")
            manifest.pop("finished")
        assert first == second

    def test_seed_changes_results(self, tmp_path, capsys):
        base = "experiment = symplectic_suite\nperiodic = true\nsteps = 40\nbundles = 2\n"
        cfg = write_config(tmp_path, base)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run_cli(["run", "--config", cfg, "--out", out1], capsys)
        run_cli(["run", "--config", cfg, "--out", out2, "--seed", 1], capsys)
        sigma1 = io.read_table_csv(out1 / "series_symplectic.csv")["sigma"]
        sigma2 = io.read_table_csv(out2 / "series_symplectic.csv")["sigma"]
        assert not np.array_equal(sigma1, sigma2)
