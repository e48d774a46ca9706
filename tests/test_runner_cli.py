import json
from pathlib import Path

import numpy as np
import pytest

from gch import ConfigError, Grid, config_hash, parse_config, run_experiment, sample, simulate
from gch.cli import main

FAST = """
[grid]
n = 1024
L = 30
[time]
T = 0.12
snapshot_stride = 1
[initial]
kind = sech2
amplitude = 0.05
[diagnostics]
run = persistence,asymptotics,analyticity
[output]
seed = 3
"""


@pytest.fixture(scope="module")
def fast_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(FAST)
    summary = run_experiment(cfg, out_dir=out)
    return out, summary


class TestRunExperiment:
    def test_exit_code_and_flags(self, fast_summary):
        out, summary = fast_summary
        assert summary.flags == {
            "boundary_clean": True,
            "no_blow_up": True,
            "diagnostics_ok": True,
        }
        assert summary.exit_code == 0

    def test_headline_numbers(self, fast_summary):
        _, summary = fast_summary
        head = summary.headline
        assert np.isfinite(head["M"])
        assert np.isfinite(head["C_fit"])
        assert head["Phi"] > 0
        assert head["sigma0"] > 0
        assert head["max_form_residual"] <= 1e-8

    def test_artifacts_written(self, fast_summary):
        out, summary = fast_summary
        for name in (
            "summary.json",
            "snapshots.csv",
            "state_final.bin",
            "persistence.csv",
            "persistence.json",
            "tail_ratio.csv",
            "asymptotics.json",
            "analyticity.csv",
            "analyticity.json",
        ):
            assert (out / name).exists(), name

    def test_csv_provenance(self, fast_summary):
        out, summary = fast_summary
        headers = {
            "persistence.csv": "t,W,bound",
            "tail_ratio.csv": "x,r,Phi,deviation",
            "analyticity.csv": "t,sigma,residual,argmax_k",
        }
        for name, expected in headers.items():
            first, header = (out / name).read_text().splitlines()[:2]
            assert first == f"# config-hash: {summary.config_hash}"
            assert header == expected

    def test_summary_is_flat_json(self, fast_summary):
        out, _ = fast_summary
        payload = json.loads((out / "summary.json").read_text())
        assert all(not isinstance(v, (dict, list)) for v in payload.values())
        assert "wall" not in " ".join(payload)  # byte-stability: no timing

    def test_persistence_csv_bound_column(self, fast_summary):
        out, _ = fast_summary
        rows = (out / "persistence.csv").read_text().splitlines()[2:]
        t, W, bound = np.array([list(map(float, r.split(","))) for r in rows]).T
        assert np.all(W <= bound * (1 + 1e-12))

    def test_zero_data_degenerate_but_clean(self, tmp_path):
        cfg = parse_config(FAST.replace("kind = sech2", "kind = zero"))
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary.exit_code == 0
        payload = json.loads((tmp_path / "asymptotics.json").read_text())
        assert payload["degenerate"] is True

    def test_thm43_always_degenerate_on_simulated_runs(self, tmp_path):
        # the RMS source decays only like |u|: e^{L} h(+-L) stays far above
        # the boundary-integrand tolerance, so the profile is refused, cleanly
        cfg = parse_config(FAST.replace("[output]", "variant = thm43\n[output]"))
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary.exit_code == 0
        payload = json.loads((tmp_path / "asymptotics.json").read_text())
        assert payload["degenerate"] is True
        assert "boundary integrand" in payload["reason"]

    def test_asymptotics_stage_builds_its_source_once(self, tmp_path, fft_calls):
        from gch.runner import _run_asymptotics

        cfg = parse_config(FAST)
        u0 = sample(Grid(cfg.n, cfg.L), lambda x: cfg.amplitude / np.cosh(x) ** 2)
        traj = simulate(u0, cfg.T, snapshot_stride=cfg.snapshot_stride)
        fft_calls.clear()
        headline = {}
        _run_asymptotics(traj, cfg, tmp_path, config_hash(cfg), headline)
        assert headline["Phi"] > 0
        # the MEAN source costs one FFT pair per snapshot, for the whole stage
        assert len(fft_calls) <= 2 * len(traj)

    def test_sqrt3_rejected_before_simulation(self):
        with pytest.raises(ConfigError, match="diagnostic-only"):
            parse_config(FAST + "\n[dynamics]\nform = sqrt3\n")

    def test_boundary_violation_aborts_diagnostics(self, tmp_path):
        bad = FAST.replace("kind = sech2", "kind = gaussian").replace(
            "amplitude = 0.05", "amplitude = 0.05\nwidth = 30\n"
        )
        cfg = parse_config(bad)
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert not summary.flags["boundary_clean"]
        assert summary.exit_code == 3

    def test_byte_stable_across_runs(self, tmp_path):
        cfg = parse_config(FAST)
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=a)
        run_experiment(cfg, out_dir=b)
        for name in (
            "summary.json",
            "snapshots.csv",
            "persistence.csv",
            "persistence.json",
            "tail_ratio.csv",
            "asymptotics.json",
            "analyticity.csv",
            "analyticity.json",
            "state_final.bin",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestCli:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        code = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "snapshots.csv").exists()
        assert "wall time" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(FAST.replace("n = 1024", "n = 1000"))
        code = main(["simulate", "--config", str(cfg_file)])
        assert code == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("L = 30", "L = nan"),
            ("T = 0.12", "T = inf"),
            ("amplitude = 0.05", "amplitude = 0.05\nwidth = 0"),
            ("[output]", "window = 2,20\n[output]"),
            ("[output]", "[dynamics]\nform = sqrt3\n[output]"),
        ],
        ids=["L_nan", "T_inf", "width_zero", "window_outside", "form_sqrt3"],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, old, new):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(FAST.replace(old, new))
        code = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize(
        "case",
        [
            "phi_not_numbers",
            "phi_not_finite",
            "p_not_a_number",
            "p_below_one",
            "samples_zero",
            "bound_negative",
            "config_is_a_directory",
            "initial_file_not_numeric",
        ],
    )
    def test_bad_cli_input_exit_two(self, tmp_path, capsys, case):
        weights = ["verify-weights", "--phi", "0,0,1,0"]
        ic_file = tmp_path / "ic.txt"
        ic_file.write_text("x value\n-40 0\n40 0\n")
        cfg_file = tmp_path / "file.cfg"
        cfg_file.write_text(FAST.replace("kind = sech2", f"kind = file\npath = {ic_file}"))
        argv = {
            "phi_not_numbers": ["verify-weights", "--phi", "a,b,c,d"],
            "phi_not_finite": ["verify-weights", "--phi", "nan,0,1,0"],
            "p_not_a_number": weights + ["--p", "foo"],
            "p_below_one": weights + ["--p", "0.5"],
            "samples_zero": weights + ["--samples", "0"],
            "bound_negative": weights + ["--bound", "-1"],
            "config_is_a_directory": ["simulate", "--config", str(tmp_path)],
            "initial_file_not_numeric": ["simulate", "--config", str(cfg_file),
                                         "--out", str(tmp_path / "o")],
        }[case]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_asymptotics_subcommand(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        out = tmp_path / "asym"
        code = main(
            [
                "asymptotics",
                "--config",
                str(cfg_file),
                "--out",
                str(out),
                "--variant",
                "thm41",
            ]
        )
        assert code == 0
        payload = json.loads((out / "asymptotics.json").read_text())
        assert payload["variant"] == "thm41"
        assert payload["Phi"] > 0

    def test_verify_weights_json(self, capsys):
        code = main(
            ["verify-weights", "--phi", "0,0,1,0", "--v", "0,0,1,0", "--p", "inf",
             "--bound", "20", "--samples", "2048"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is True
        assert abs(payload["kernel_integral"] - 4.0) < 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_weights_strict_json_when_weights_underflow(self, tmp_path, capsys):
        # e^{-x^2} underflows to 0 on [-40, 40], so C0 and A are 0/0
        out = tmp_path / "weights"
        assert main(["verify-weights", "--phi=-1,2,0,0", "--bound", "40", "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        for text in (capsys.readouterr().out, (out / "admissibility.json").read_text()):
            payload = json.loads(text, parse_constant=reject)
            assert payload["C0"] is None and payload["A"] is None
            assert payload["admissible"] is False
            assert payload["submult_max_violation"] == "inf"
            assert payload["passes"]["submultiplicative"] is False

    def test_persistence_subcommand(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        out = tmp_path / "pers"
        assert main(["persistence", "--config", str(cfg_file), "--out", str(out)]) == 0
        payload = json.loads((out / "persistence.json").read_text())
        assert "C_fit" in payload and "M" in payload and "N_used" in payload

    def test_analyticity_subcommand(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        out = tmp_path / "ana"
        assert main(["analyticity", "--config", str(cfg_file), "--out", str(out)]) == 0
        header = (out / "analyticity.csv").read_text().splitlines()[1]
        assert header == "t,sigma,residual,argmax_k"


class TestShowcaseConfig:
    def test_shipped_showcase_runs_clean(self, tmp_path):
        cfg_path = Path(__file__).parent.parent / "configs" / "showcase.cfg"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["boundary_clean"] is True

    def test_showcase_headline_numbers(self, tmp_path):
        from gch import parse_config_file

        cfg_path = Path(__file__).parent.parent / "configs" / "showcase.cfg"
        cfg = parse_config_file(cfg_path)
        summary = run_experiment(cfg, out_dir=tmp_path)
        head = summary.headline
        assert np.isfinite(head["M"]) and np.isfinite(head["C_fit"])
        assert head["Phi"] > 0
        assert summary.exit_code == 0


class TestCrossProcessStability:
    def test_summaries_byte_stable_across_processes(self, tmp_path):
        import subprocess
        import sys

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "gch.cli", "simulate", "--config",
                 str(cfg_file), "--out", str(out)],
                check=True,
                capture_output=True,
            )
            outs.append(out)
        a, b = outs
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()


class TestSelftestFaultInjection:
    def test_corrupted_form_b_sign_is_caught(self, monkeypatch):
        # flip the sign of the u_x^2 term in FORM_B: the residual-matrix
        # check must fail, by name
        import gch.dynamics as dynamics_mod
        from gch.dynamics import RhsForm
        from gch.runner import _selftest_forms

        true_rhs = dynamics_mod.rhs

        def corrupted(u, form):
            out = true_rhs(u, form)
            if RhsForm(form) is RhsForm.FORM_B:
                from gch import Field, derivative

                ux = derivative(u, 1)
                out = out + Field(u.grid, 2.0 * ux.values**2)
            return out

        monkeypatch.setattr(dynamics_mod, "rhs", corrupted)
        entries = []
        _selftest_forms(entries)
        matrix_entry = [e for e in entries if "residual matrix" in e[0]]
        assert matrix_entry and matrix_entry[0][1] is False
