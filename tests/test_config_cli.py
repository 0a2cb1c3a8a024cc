"""INI config parsing and the command-line entry point."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from twostrain import basin, cli
from twostrain.cli import main
from twostrain.bifurcation import SUPPORTED_PAIRS
from twostrain.config import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)
from twostrain.figures import PRESETS, reproduce
from twostrain.integrate import IntegrationConfig
from twostrain.model import StateVector


def _cfg_text(params, initial=None, integration=None):
    run = RunConfig(
        params=params,
        initial=None if initial is None else StateVector(*initial),
        integration=integration or IntegrationConfig(),
    )
    return dump_config(run)


def _write_cfg(tmp_path, params, initial=None, integration=None, name="run.ini"):
    path = tmp_path / name
    path.write_text(_cfg_text(params, initial=initial, integration=integration))
    return path


_MINIMAL = """
[parameters]
s = 0.4
L = 1.5
a = 0.3
r = 0.7
K = 2.0
b = 0.7
lambda = 0.7
beta = 0.2
psi = 0.2
phi = 0.7
mu = 0.5
nu = 0.9
e = 0.2
f = 0.2
"""


class TestParseConfig:
    def test_round_trip_identity(self, fig1_params):
        run = RunConfig(
            params=fig1_params,
            initial=StateVector(0.0, 1.8, 0.1, 0.1),
            integration=IntegrationConfig(rel_tol=1e-8, t_max=500.0),
        )
        text = dump_config(run)
        again = parse_config(text)
        assert again == run
        assert dump_config(again) == text

    def test_every_field_is_settable_from_the_file(self, fig1_params):
        # Every IntegrationConfig field is an [integration] key: none keeps
        # its default whatever the file says.
        changed = {field.name: 2.0 * field.default for field in fields(IntegrationConfig)}
        text = _MINIMAL + "[initial]\nP = 0.5\nS = 1.8\nV = 0.1\nW = 0.2\n[integration]\n"
        text += "".join(f"{key} = {value!r}\n" for key, value in changed.items())
        run = parse_config(text)
        assert run.integration == IntegrationConfig(**changed)
        assert run.initial == StateVector(0.5, 1.8, 0.1, 0.2)
        assert parse_config(dump_config(run)) == run

    def test_lambda_key(self, fig1_params):
        text = _cfg_text(fig1_params)
        assert "lambda = 0.7" in text
        assert parse_config(text).params.lam == 0.7

    def test_minimal_config_defaults(self):
        run = parse_config(_MINIMAL)
        assert run.initial is None
        assert run.integration == IntegrationConfig()
        assert run.params.K == 2.0

    def test_require_initial(self):
        run = parse_config(_MINIMAL)
        with pytest.raises(ConfigError, match=r"\[initial\] section"):
            run.require_initial()

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("[extra]\nx = 1\n", "unknown sections"),
            ("[initial]\nP = 1\nS = 1\nV = 0\nW = 0\nQ = 2\n", "unknown initial-state keys"),
            ("[initial]\nP = 1\nS = 1\n", "missing initial-state keys"),
            ("[initial]\nP = -1\nS = 1\nV = 0\nW = 0\n", "invalid initial state"),
            ("[integration]\nstep_mode = 3\n", "unknown integration keys"),
            ("[integration]\nt_max = -5\n", "invalid integration settings"),
        ],
    )
    def test_section_errors(self, mutation, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(_MINIMAL + mutation)

    def test_parameter_errors(self):
        with pytest.raises(ConfigError, match="missing parameter keys"):
            parse_config("[parameters]\ns = 0.4\n")
        with pytest.raises(ConfigError, match="unknown parameter keys"):
            parse_config(_MINIMAL.replace("lambda = 0.7", "lamda = 0.7"))
        with pytest.raises(ConfigError, match="is not a number"):
            parse_config(_MINIMAL.replace("K = 2.0", "K = two"))
        with pytest.raises(ConfigError, match="invalid parameters"):
            parse_config(_MINIMAL.replace("s = 0.4", "s = 0"))
        with pytest.raises(ConfigError, match="missing \\[parameters\\]"):
            parse_config("[initial]\nP = 1\nS = 1\nV = 0\nW = 0\n")
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config("no section header here\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.ini")


class TestCliSimulate:
    def test_reaches_the_endemic_attractor(self, tmp_path, capsys, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "final state:" in captured.out
        assert "trajectory.csv" in captured.out
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,P,S,V,W"
        final = np.array([float(v) for v in lines[-1].split(",")[1:]])
        np.testing.assert_allclose(final, (0.0, 1.0, 0.7, 0.0), atol=1e-3)

    def test_zero_start_stays_zero(self, tmp_path, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.0, 0.0, 0.0, 0.0))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        for row in rows:
            assert [float(v) for v in row.split(",")[1:]] == [0.0, 0.0, 0.0, 0.0]

    def test_reruns_are_byte_identical(self, tmp_path, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_coexistence_endpoint_vs_reported_values(self, tmp_path, fig1_params):
        # The independently reported endpoint is close but not exact; the
        # closed-form equilibrium is the authoritative target.
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.1, 1.8, 0.1, 0.1))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        final = np.array([float(v) for v in last.split(",")[1:]])
        exact = np.array([21.0 / 74.0, 40.0 / 37.0, 910.0 / 3811.0, 0.0])
        np.testing.assert_allclose(final, exact, atol=1e-3)
        reported = np.array([0.2828, 1.0760, 0.2441, 0.0])
        np.testing.assert_allclose(final, reported, atol=2e-2)
        assert float(np.max(np.abs(final - reported))) > 1e-3

    def test_dump_config_round_trip(self, tmp_path, capsys, fig1_params):
        integration = IntegrationConfig(rel_tol=1e-9, abs_tol=1e-11)
        cfg = _write_cfg(
            tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1), integration=integration
        )
        assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
        captured = capsys.readouterr()
        run = parse_config(captured.out)
        assert run.params == fig1_params
        assert run.integration == integration

    def test_exit_codes(self, tmp_path, capsys, fig1_params):
        # Missing --config.
        assert main(["simulate"]) == 2
        assert "--config is required" in capsys.readouterr().err
        # Malformed config file.
        bad = tmp_path / "bad.ini"
        bad.write_text("[parameters]\ns = 0.4\n")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "missing parameter keys" in capsys.readouterr().err
        # Non-positive tolerance override.
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1))
        assert main(["simulate", "--config", str(cfg), "--tol", "0"]) == 2
        assert "--tol must be positive" in capsys.readouterr().err
        # Output directory blocked by an existing file.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(
            ["simulate", "--config", str(cfg), "--out", str(blocker / "sub")]
        ) == 3
        assert "I/O error" in capsys.readouterr().err

    def test_step_failure_exit_code(self, tmp_path, capsys, fig1_params):
        # A floor on the step size that the accuracy target cannot meet.
        integration = IntegrationConfig(
            rel_tol=1e-12,
            abs_tol=1e-14,
            initial_step=0.9,
            max_step=1.0,
            min_step=0.5,
        )
        cfg = _write_cfg(
            tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1), integration=integration
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "step size underflowed" in err

    def test_overflowing_error_norm_is_a_step_failure(self, tmp_path, capsys, fig1_params):
        # At --tol 1e-200 the squared error ratios overflow; the run rejects
        # its steps until the step size underflows.
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1))
        args = ["simulate", "--config", str(cfg), "--tol", "1e-200", "--out", str(tmp_path / "o")]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: step size underflowed below 1e-14 at t=0\n"

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("t_max = nan", "t_max"),
            ("t_max = inf", "t_max"),
            ("rel_tol = nan", "tolerances"),
            ("min_step = nan", "min_step"),
            ("settle_tol = nan", "settle_tol"),
            ("settle_time = nan", "settle_time"),
            ("settle_time = -1", "settle_time"),
            ("rel_tol = inf", "tolerances must be positive and finite"),
            ("abs_tol = inf", "tolerances must be positive and finite"),
            ("min_step = inf", "min_step must be positive and finite"),
            ("settle_tol = inf", "settle_tol must be positive and finite"),
        ],
    )
    def test_invalid_integration_setting_is_a_config_error(
        self, tmp_path, capsys, fig1_params, setting, message
    ):
        key = setting.split(" = ")[0]
        text = "".join(
            setting + "\n" if line.startswith(key + " = ") else line + "\n"
            for line in _cfg_text(fig1_params, initial=(0.0, 1.8, 0.1, 0.1)).splitlines()
        )
        assert setting in text.splitlines()
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid integration settings" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    def test_infinite_tol_is_a_config_error(self, tmp_path, capsys, fig1_params, command):
        cfg = _write_cfg(tmp_path, fig1_params, initial=(0.0, 1.8, 0.1, 0.1))
        options = ["--config", str(cfg)] if command == "simulate" else ["fig1"]
        out = tmp_path / "out"
        assert main([command, *options, "--tol", "inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: --tol inf: tolerances must be positive and finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestCliAnalysis:
    def test_equilibria_listing(self, tmp_path, capsys, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params)
        out = tmp_path / "out"
        assert main(["equilibria", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "E4: (0, 1, 0.7, 0) [feasible]" in stdout
        assert "E5: (0, 8, 0, -18.6667) [infeasible]" in stdout
        lines = (out / "catalog.jsonl").read_text().splitlines()
        assert len(lines) == 8
        assert json.loads(lines[0])["id"] == "E0"

    def test_equilibria_decoupled_listing(self, tmp_path, capsys, fig1_params):
        p = fig1_params.replace(a=0.0, b=0.0, e=0.0, f=0.0)
        cfg = _write_cfg(tmp_path, p)
        assert main(["equilibria", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "E3: (1.5, 2, 0, 0) [feasible]" in capsys.readouterr().out

    def test_stability_listing(self, tmp_path, capsys, fig5_params):
        cfg = _write_cfg(tmp_path, fig5_params)
        out = tmp_path / "out"
        assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "E3: stable_node (lead Re -0.0887068)" in stdout
        assert len((out / "verdicts.jsonl").read_text().splitlines()) == 8

    def test_stability_skips_degenerate_points(self, tmp_path, capsys, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params.replace(**{"lambda": 0.0}))
        out = tmp_path / "out"
        assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "E4: skipped" in stdout
        assert len((out / "verdicts.jsonl").read_text().splitlines()) == 7

    def test_sweep(self, tmp_path, capsys, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params)
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", str(cfg), "--out", str(out),
            "--param", "K", "--lo", "0.5", "--hi", "3", "--n", "26",
        ])
        assert rc == 0
        assert "208 rows" in capsys.readouterr().out
        assert len((out / "sweep.csv").read_text().splitlines()) == 209

    def test_sweep_writes_the_crossings(self, tmp_path, capsys, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params)
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", str(cfg), "--out", str(out),
            "--param", "K", "--lo", "0.5", "--hi", "9", "--n", "5",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "E2<->E4: K* = 1 " in stdout
        assert len((out / "sweep.csv").read_text().splitlines()) == 41
        lines = (out / "crossings.csv").read_text().splitlines()
        assert lines[0] == "eq_a,eq_b,status,critical_value,coincidence_gap,crossing_real_part"
        rows = [line.split(",") for line in lines[1:]]
        assert [tuple(row[:2]) for row in rows] == list(SUPPORTED_PAIRS)
        p = fig1_params
        located = {
            ("E2", "E3"): p.s / p.a,
            ("E2", "E4"): (p.psi + p.mu) / p.lam,
            ("E2", "E5"): (p.phi + p.nu) / p.beta,
        }
        for eq_a, eq_b, status, value, gap, re in rows:
            if (eq_a, eq_b) in located:
                assert status == "located"
                assert float(value) == pytest.approx(located[eq_a, eq_b], rel=1e-15, abs=0)
                assert float(gap) <= 1e-8 and float(re) <= 1e-8
            else:
                assert (status, value, gap, re) == ("no_sign_change", "", "", "")

    def test_sweep_bad_parameter(self, tmp_path, capsys, fig1_params):
        cfg = _write_cfg(tmp_path, fig1_params)
        rc = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--param", "q", "--lo", "0", "--hi", "1", "--n", "5",
        ])
        assert rc == 2
        assert "unknown parameter" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_basin_small_grid(self, tmp_path, capsys, fig4_params):
        cfg = _write_cfg(tmp_path, fig4_params)
        out = tmp_path / "out"
        rc = main([
            "basin", "--config", str(cfg), "--out", str(out), "--resolution", "4",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "classified 64 nodes toward E1, E4" in stdout
        assert "79.7% decided" in stdout
        lines = (out / "labels.csv").read_text().splitlines()
        assert len(lines) == 65
        assert lines[0] == "P,S,V,label"
        assert lines[1] == "0,0,0,undecided"
        assert lines[-1] == "2,3,2.5,E4"

    def test_undecided_grid_warning_is_one_line(self, tmp_path, capsys, fig4_params):
        # One node in eight is undecided, above the 5% warning threshold.
        cfg = _write_cfg(tmp_path, fig4_params)
        rc = main([
            "basin", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--resolution", "2", "--bounds", "1.3:1.9,0.1:0.2,0:2.5",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: 12.5% of grid nodes undecided (threshold 5.0%)\n"
        assert "87.5% decided" in captured.out

    def test_unknown_attractor_id(self, tmp_path, capsys, fig4_params):
        cfg = _write_cfg(tmp_path, fig4_params)
        rc = main([
            "basin", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--resolution", "4", "--attractors", "E9",
        ])
        assert rc == 2
        assert "unknown equilibrium id 'E9'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_separatrix_small_grid(self, tmp_path, capsys, fig4_params):
        cfg = _write_cfg(tmp_path, fig4_params)
        out = tmp_path / "out"
        rc = main([
            "separatrix", "--config", str(cfg), "--out", str(out), "--resolution", "8",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "68 boundary points from 68 boundary-cell corner pairs (0 skipped)" in stdout
        assert "fit residual" in stdout
        assert len((out / "boundary_points.csv").read_text().splitlines()) == 69
        assert (out / "surface.obj").exists()
        assert (out / "surface_lattice.csv").exists()

    def test_separatrix_unknown_graph_axis_is_a_config_error(self, tmp_path, capsys, fig4_params):
        cfg = _write_cfg(tmp_path, fig4_params)
        out = tmp_path / "out"
        rc = main([
            "separatrix", "--config", str(cfg), "--out", str(out), "--resolution", "3",
            "--graph-axis", "X",
        ])
        assert rc == 2
        assert "unknown graph axis 'X'" in capsys.readouterr().err
        assert not (out / "labels.csv").exists()

    @pytest.mark.parametrize("command", ["basin", "separatrix"])
    def test_step_failure_in_a_batch_exit_code(self, tmp_path, capsys, fig4_params, command):
        integration = IntegrationConfig(
            rel_tol=1e-12, abs_tol=1e-14, initial_step=0.9, max_step=1.0, min_step=0.5
        )
        cfg = _write_cfg(tmp_path, fig4_params, integration=integration)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--resolution", "3"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "step size underflowed" in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_basin_initial_step_above_the_attractor_step_bound(self, tmp_path, capsys, fig4_params):
        # Attractor runs clamp the first step to their bound of 2.5; the
        # config itself (initial_step 5 <= max_step 10) is valid as given.
        integration = IntegrationConfig(initial_step=5.0, max_step=10.0)
        cfg = _write_cfg(tmp_path, fig4_params, integration=integration)
        rc = main(["basin", "--config", str(cfg), "--out", str(tmp_path / "o"), "--resolution", "3"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "classified 27 nodes toward E1, E4" in captured.out

    def test_basin_corner_far_outside_the_model_scale_is_a_step_failure(
        self, tmp_path, capsys, fig4_params
    ):
        cfg = _write_cfg(tmp_path, fig4_params)
        rc = main([
            "basin", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--bounds", "0:1e200,0:3,0:2.5", "--resolution", "2",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "step size underflowed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "K, command",
        [
            (1e200, ["equilibria"]),
            (1e200, ["stability"]),
            (1e200, ["sweep", "--param", "a", "--lo", "0.1", "--hi", "1", "--n", "3"]),
            (2.0, ["sweep", "--param", "K", "--lo", "0.5", "--hi", "1e200", "--n", "3"]),
        ],
    )
    def test_overflowing_closed_forms_exit_code(self, tmp_path, capsys, fig1_params, K, command):
        # The thresholds square K, past the float range for K = 1e200.
        cfg = _write_cfg(tmp_path, fig1_params.replace(K=K))
        rc = main([command[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *command[1:]])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_basin_auto_attractors_skip_the_full_verdict(
        self, tmp_path, capsys, fig4_params, classify_forbidden
    ):
        cfg = _write_cfg(tmp_path, fig4_params)
        rc = main(["basin", "--config", str(cfg), "--out", str(tmp_path / "o"), "--resolution", "2"])
        assert rc == 0
        assert "toward E1, E4;" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_separatrix_writes_what_reproduce_fig4_writes(self, tmp_path, fig4_params):
        # Both run the one basin pipeline. On the fig4 parameters the
        # auto-detected attractors are fig4's pair, E1 and E4.
        cfg = _write_cfg(tmp_path, fig4_params)
        cli_out = tmp_path / "cli"
        rc = main([
            "separatrix", "--config", str(cfg), "--out", str(cli_out), "--resolution", "6",
        ])
        assert rc == 0
        fig4_out = tmp_path / "fig4"
        reproduce("fig4", fig4_out, resolution=6, n_probes=10)
        for name in ("labels.csv", "boundary_points.csv", "surface.obj", "surface_lattice.csv"):
            assert (cli_out / name).read_bytes() == (fig4_out / name).read_bytes(), name

    def test_reproduce_fig5(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "fig5", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "fig5: wrote" in stdout
        assert "max deviation from E3" in stdout
        summary = (out / "summary.txt").read_text()
        assert "expected attractor E3: (0.2, 0.8, 0, 0)" in summary
        assert "PASS" in summary
        assert "E3 classification: stable_node" in summary

    def test_reproduce_fig2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "fig2", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "expected attractor E1: (1.5, 0, 0, 0)" in summary
        assert "PASS" in summary

    def test_fig4_verdict(self, fig4_pipeline):
        summary, outdir = fig4_pipeline
        assert summary["tolerance_met"] is True
        lines = (outdir / "summary.txt").read_text().splitlines()
        assert lines[-1] == (
            "verdict (saddle gap <= 0.01, side probes >= 95%, no skipped segment): PASS"
        )

    def test_missed_tolerance_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(PRESETS, "fig5", replace(PRESETS["fig5"], tolerance=0.0))
        out = tmp_path / "out"
        assert main(["reproduce", "fig5", "--out", str(out)]) == 5
        assert "  FAIL" in capsys.readouterr().out.splitlines()
        assert "(tolerance 0): FAIL" in (out / "summary.txt").read_text()

    def test_reproduce_all_writes_every_summary_before_failing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setitem(PRESETS, "fig5", replace(PRESETS["fig5"], tolerance=0.0))
        monkeypatch.setattr(cli, "FIGURE_NAMES", ("fig5", "fig2"))
        out = tmp_path / "out"
        assert main(["reproduce", "all", "--out", str(out)]) == 5
        assert "FAIL" in (out / "fig5" / "summary.txt").read_text()
        assert "PASS" in (out / "fig2" / "summary.txt").read_text()
        assert "1/2 scenarios within tolerance" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_reproduce_nonpositive_tol_is_a_config_error(self, tmp_path, capsys, tol):
        out = tmp_path / "out"
        assert main(["reproduce", "fig5", "--tol", tol, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--tol must be positive" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--dump-config"], ["--config", "missing.ini"], ["--dump-config", "--config", "missing.ini"]]
    )
    def test_reproduce_rejects_the_config_options(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "fig5", *flags, "--out", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, options, message",
        [
            (command, options, message)
            for command in ("basin", "separatrix")
            for options, message in (
                (["--resolution", "1"], "resolution must be an int >= 2"),
                (["--bounds", "0:2,0:3,-1:2.5"], "outside the nonnegative orthant"),
                (["--bounds", "0:inf,0:3,0:2.5"], "slice box (0.0, inf) is not finite"),
                (["--attractors", "E1,E1"], "attractors E1 and E1 are separated by 0"),
                (["--match-radius", "5"], "2 * match_radius"),
                (["--match-radius", "-0.1"], "match_radius must be positive"),
            )
        ]
        + [
            ("separatrix", ["--resolution", "6", "--bisect-tol", "-1"], "bisect_tol must be positive"),
            ("separatrix", ["--resolution", "6", "--bisect-tol", "inf"], "bisect_tol must be positive and finite, got inf"),
        ],
    )
    def test_basin_input_out_of_range_is_a_config_error_before_any_run(
        self, tmp_path, capsys, monkeypatch, fig4_params, command, options, message
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("integrated before checking the inputs")

        monkeypatch.setattr(basin, "run_to_attractor_batch", no_runs)
        cfg = _write_cfg(tmp_path, fig4_params)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *options]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_module_entry_point_from_a_checkout(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "twostrain.cli", "reproduce", "fig5", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in (tmp_path / "summary.txt").read_text()
