import json
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gch import (
    ConfigError,
    ExperimentConfig,
    Grid,
    WeightSpec,
    config_hash,
    emitted_tail_amplitudes,
    parse_config,
    run_experiment,
    sample,
    simulate,
    two_tier_persistence_check,
)
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
            "snapshots.bin",
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

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n": 100, "T": 0.01}, "power of two"),
            ({"kind": "blob"}, "unknown initial kind 'blob'"),
            ({"variant": "thm99"}, "unknown variant 'thm99'"),
            ({"run": ("persistence", "tails")}, "unknown diagnostic 'tails'"),
            ({"out_dir": "runs/#1"}, "cannot be read back"),
            ({"n": 1024.0}, "grid.n: invalid literal for int()"),
            ({"phi": (0.0, 0.0, 2.0)}, "expected 4 comma-separated numbers"),
        ],
        ids=["n_not_power_of_two", "kind", "variant", "run", "out_dir_comment", "n_float",
             "phi_short"],
    )
    def test_config_built_in_code_is_validated(self, tmp_path, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(ExperimentConfig(**changes), out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

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
            "snapshots.bin",
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
        assert (tmp_path / "o" / "snapshots.bin").exists()
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
        assert (a / "snapshots.bin").read_bytes() == (b / "snapshots.bin").read_bytes()


# the history benchmark workload's run: every step kept at n = 4096 to T = 1, 104 snapshots
HISTORY = """
[grid]
n = 4096
L = 40
[time]
T = 1
snapshot_stride = 1
[initial]
kind = sech2
amplitude = 0.05
[weights]
phi = 0.5,1,0.5,1
p = inf
[diagnostics]
run = persistence,asymptotics,analyticity
window = 10,20
"""


def _trajectory(cfg, T=None):
    u0 = sample(Grid(cfg.n, cfg.L), lambda x: cfg.amplitude / np.cosh(x) ** 2)
    return simulate(u0, cfg.T if T is None else T, snapshot_stride=cfg.snapshot_stride)


def _run_stages(traj, cfg, out):
    """The three diagnostic stages of ``run_experiment`` on one trajectory; the headline."""
    from gch.runner import _run_analyticity, _run_asymptotics, _run_persistence

    out.mkdir(parents=True)
    headline = {}
    for stage in (_run_persistence, _run_asymptotics, _run_analyticity):
        stage(traj, cfg, out, config_hash(cfg), headline)
    return headline


class TestOneSpectrum:
    """The stages share the trajectory's one spectrum and take temporaries a row block at a time."""

    def test_fft_calls_do_not_grow_with_the_snapshots(self, tmp_path, fft_calls):
        cfg = parse_config(FAST)
        counts = []
        for T, K in ((0.08, 9), (0.29, 30)):
            traj = _trajectory(cfg, T)
            assert len(traj) == K
            fft_calls.clear()
            headline = _run_stages(traj, cfg, tmp_path / str(K))
            assert not any(key.endswith("_error") for key in headline)
            counts.append(Counter(fft_calls))
            # u_x and u_xx for the ledger, u_x for the source: per row block, not per snapshot
            assert counts[-1]["irfft"] == 3 * len(traj.row_blocks())
        assert counts[0] == counts[1]
        assert counts[0]["rfft"] == 1

    def test_traced_peak_on_a_history_run(self, tmp_path):
        cfg = parse_config(HISTORY)
        traj = _trajectory(cfg)
        K, n = traj.values.shape
        assert K == 104
        tracemalloc.start()
        try:
            headline = _run_stages(traj, cfg, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(key.endswith("_error") for key in headline)
        # values, spectrum and two K x n temporaries, with 10 % to spare
        assert peak <= 1.1 * 4 * K * n * 8

    def test_row_blocks_change_no_number(self, tmp_path, monkeypatch):
        import gch.integrate as integrate_mod

        cfg = parse_config(FAST)
        phi = WeightSpec(1, 1, 0, 0)
        results = []
        for name, budget in (("whole", integrate_mod.ROW_BLOCK_BYTES), ("rows", 1)):
            monkeypatch.setattr(integrate_mod, "ROW_BLOCK_BYTES", budget)
            traj = _trajectory(cfg, 0.29)
            _run_stages(traj, cfg, tmp_path / name)
            rep = two_tier_persistence_check(traj, phi, np.inf)
            results.append((
                len(traj.row_blocks()),
                {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()},
                (rep.source_plain, rep.source_differentiated, rep.ledger_root.W),
                emitted_tail_amplitudes(traj, -1),
            ))
        (blocks_whole, files_whole, *rest_whole), (blocks_rows, files_rows, *rest_rows) = results
        assert (blocks_whole, blocks_rows) == (1, 30)
        assert files_whole == files_rows and len(files_whole) == 6
        assert all(np.array_equal(a, b) for a, b in zip(rest_whole[0], rest_rows[0]))
        assert rest_whole[1] == rest_rows[1]


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
