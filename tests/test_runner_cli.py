import itertools
import json
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gch import (
    ConfigError,
    ExperimentConfig,
    Field,
    Grid,
    Trajectory,
    WeightSpec,
    amplitude_series,
    config_hash,
    emitted_tail_amplitudes,
    max_form_residual,
    parse_config,
    read_snapshots,
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
        from gch.runner import _run_stages

        cfg = parse_config(FAST)
        u0 = sample(Grid(cfg.n, cfg.L), lambda x: cfg.amplitude / np.cosh(x) ** 2)
        traj = simulate(u0, cfg.T, snapshot_stride=cfg.snapshot_stride)
        fft_calls.clear()
        headline = {}
        _run_stages(("asymptotics",), traj, cfg, tmp_path, config_hash(cfg), headline, {})
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

    def test_a_default_run_past_max_steps_exits_three(self, tmp_path, monkeypatch):
        # MAX_STEPS caps a default run's kept steps too: at 0 it ends before the first
        import gch.integrate as integrate_mod

        monkeypatch.setattr(integrate_mod, "MAX_STEPS", 0)
        summary = run_experiment(parse_config(FAST), out_dir=tmp_path)
        assert summary.exit_code == 3
        assert summary.flags["no_blow_up"] is False
        assert summary.headline["abort"] == "MAX_STEPS = 0 steps end short of T at t = 0.0 (step 1)"
        assert not (tmp_path / "snapshots.bin").exists()

    def test_blow_up_aborts_before_any_artifact_but_the_summary(self, tmp_path, monkeypatch):
        # forced exponential growth through simulate's spectral-stage hook, as in
        # test_integrate's blow-up guard, with an explicit step
        import gch.integrate as integrate_mod

        monkeypatch.setattr(
            integrate_mod, "_spectral_stage", lambda uh, grid, pre, post: 100.0 * uh
        )
        cfg = parse_config(FAST.replace("snapshot_stride = 1", "snapshot_stride = 1\ndt = 0.01"))
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary.exit_code == 3
        assert summary.flags["no_blow_up"] is False
        assert "possible blow-up" in summary.headline["abort"]
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["no_blow_up"] is False
        assert not (tmp_path / "snapshots.bin").exists()

    @pytest.mark.parametrize(
        "n, T, m", [(1024, 0.12, 1024), (4096, 0.05, 1024), (4096, 0.12, 1280)],
        ids=["m_is_n", "m_below_n", "m_not_dividing_n"],
    )
    def test_form_residual_on_the_stepped_grid(self, tmp_path, n, T, m):
        cfg = parse_config(
            FAST.replace("n = 1024", f"n = {n}").replace("T = 0.12", f"T = {T}")
            .replace("run = persistence,asymptotics,analyticity", "run =")
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        u0 = sample(Grid(cfg.n, cfg.L), lambda x: cfg.amplitude / np.cosh(x) ** 2)
        traj = simulate(u0, cfg.T, snapshot_stride=cfg.snapshot_stride)
        assert traj.compute_n[-1] == m
        # the final state on Grid(m, L): its n-grid spectrum cut to the m band
        coarse = Grid(m, cfg.L)
        cut = traj.grid.rfft(traj.values[-1])[: m // 2 + 1] * (m / n)
        final = Field(coarse, coarse.irfft(cut))
        assert summary.headline["max_form_residual"] == max_form_residual(final)
        # at the nodes both grids share, the cut state is the stepped one to roundoff:
        # the modes cut off are under BAND_FLOOR
        shared = math.gcd(m, n)
        assert coarse.x[:: m // shared].tobytes() == traj.grid.x[:: n // shared].tobytes()
        gap = np.abs(final.values[:: m // shared] - traj.values[-1][:: n // shared])
        assert np.max(gap) <= 1e-15 * np.max(np.abs(traj.values[-1]))
        if m == n:
            # one rfft and irfft from the stepped state: the residual, itself roundoff, moves
            # by roundoff only (measured 3.0e-18 on 6.9e-18; 2.2e-19 under the RK4 default)
            direct = max_form_residual(traj.final)
            assert abs(summary.headline["max_form_residual"] - direct) <= 4e-18

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

    def test_retired_d_changes_no_artifact(self, fast_summary, tmp_path):
        out, _ = fast_summary
        run_experiment(parse_config(FAST.replace("[output]", "d = 7.5\n[output]")), tmp_path)
        names = sorted(path.name for path in out.iterdir())
        assert names == sorted(path.name for path in tmp_path.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


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
        "old, new, message",
        [
            ("L = 30", "L = nan", "L must be finite"),
            ("T = 0.12", "T = inf", "T must be finite"),
            ("amplitude = 0.05", "amplitude = 0.05\nwidth = 0", "width must be positive"),
            ("[output]", "window = 2,20\n[output]", "window must satisfy"),
            ("[output]", "[dynamics]\nform = sqrt3\n[output]", "diagnostic-only"),
            # the retired d is still checked
            ("[output]", "d = 0.5\n[output]", "diagnostics.d: d must exceed 1/2, got 0.5"),
            ("[output]", "d = nan\n[output]", "diagnostics.d: d must be finite, got nan"),
            ("[output]", "d = inf\n[output]", "diagnostics.d: d must be finite, got inf"),
        ],
        ids=["L_nan", "T_inf", "width_zero", "window_outside", "form_sqrt3",
             "d_half", "d_nan", "d_inf"],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, old, new, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(FAST.replace(old, new))
        code = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    def test_non_finite_stage_exit_three(self, tmp_path, capsys):
        # the square of a 1e200 pulse overflows in the first stage
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(
            "[grid]\nn = 256\nL = 40\n[time]\nT = 0.1\ndt = 0.01\n"
            "[initial]\nkind = sech2\namplitude = 1e200\n"
        )
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(cfg_file), "--out", str(out)])
        assert code == 3
        assert "non-finite RK4 stage 1" in capsys.readouterr().out
        payload = json.loads((out / "summary.json").read_text())
        assert payload["no_blow_up"] is False and payload["diagnostics_ok"] is False
        assert payload["abort"] == "non-finite RK4 stage 1 at t = 0.0 (step 1)"
        assert sorted(path.name for path in out.iterdir()) == ["summary.json"]

    def test_selftest_prints_the_golden_table(self, capsys):
        golden = Path(__file__).parent / "golden" / "selftest.txt"
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_failed_selftest_exit_one(self, capsys, monkeypatch):
        import gch.runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "_selftest_convolution", lambda entries: entries.append(("x", False, ""))
        )
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.endswith("SELFTEST FAILED\n")

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

    @pytest.mark.parametrize(
        "command, out",
        [
            ("simulate", "taken"),
            ("simulate", "taken/sub"),
            ("verify-weights", "taken"),
        ],
        ids=["simulate_out_is_a_file", "simulate_out_under_a_file", "verify_weights_out_is_a_file"],
    )
    def test_output_path_not_a_directory_exit_two(self, tmp_path, capsys, monkeypatch, command, out):
        import gch.runner as runner_mod

        def never(*args, **kwargs):
            raise AssertionError("simulated before the output directory was made")

        monkeypatch.setattr(runner_mod, "simulate", never)
        (tmp_path / "taken").write_text("a file\n")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        argv = {
            "simulate": ["simulate", "--config", str(cfg_file)],
            "verify-weights": ["verify-weights", "--phi", "0,0,1,0"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert f"output directory {str(tmp_path / out)!r}" in captured.err
        assert captured.out == ""
        assert (tmp_path / "taken").read_text() == "a file\n"

    @pytest.mark.parametrize(
        "command, artifact",
        [
            ("simulate", "summary.json"),
            ("simulate", "snapshots.bin"),
            ("persistence", "persistence.csv"),
            ("verify-weights", "admissibility.json"),
        ],
    )
    def test_artifact_that_cannot_be_written_exit_two(self, tmp_path, capsys, command, artifact):
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST)
        argv = {
            "simulate": ["simulate", "--config", str(cfg_file)],
            "persistence": ["persistence", "--config", str(cfg_file)],
            "verify-weights": ["verify-weights", "--phi", "0,0,1,0"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"cannot write {str(out / artifact)!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "case, limit",
        [
            ("n_huge", "MAX_N = 4194304"),
            ("T_huge", "SNAPSHOT_BYTES = 1073741824"),
            ("amplitude_huge", "SNAPSHOT_BYTES = 1073741824"),  # a clock of ~1e-203
            ("samples_huge", "MAX_SAMPLES = 1048576"),
            ("dt_tiny", "MAX_STEPS = 1048576"),  # an infinite clock: 3 rows, 1e12 steps
        ],
    )
    def test_oversized_input_exit_two_before_allocating(self, tmp_path, capsys, case, limit):
        cfg_file = tmp_path / "big.cfg"
        cfg_file.write_text({
            "n_huge": FAST.replace("n = 1024", "n = 1125899906842624"),
            "T_huge": FAST.replace("T = 0.12", "T = 10000"),
            "amplitude_huge": FAST.replace("amplitude = 0.05", "amplitude = 1e200"),
            "dt_tiny": FAST.replace("T = 0.12", "T = 1\ndt = 1e-12").replace(
                "snapshot_stride = 1\n", "snapshot_stride = 1000000000000\n"
            ),
        }.get(case, FAST))
        argv = {
            "samples_huge": ["verify-weights", "--phi", "0,0,1,0", "--samples", "1000000000000"],
        }.get(case, ["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert limit in capsys.readouterr().err
        assert peak < 2**20  # nothing near the size of the guarded array was allocated

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_non_finite_bound_exit_two(self, capsys, bound):
        assert main(["verify-weights", "--phi", "0,0,1,0", f"--bound={bound}"]) == 2
        assert "domain_bound must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["1e28", "1e40"])
    def test_bound_past_the_kernel_rule_exit_two(self, capsys, bound):
        assert main(["verify-weights", "--phi", "0,0,1,0", "--bound", bound]) == 2
        captured = capsys.readouterr()
        assert f"domain_bound {float(bound):g} exceeds MAX_BOUND = 1e+17" in captured.err
        assert captured.out == ""

    def test_zero_a_weight_is_one(self, capsys):
        # 0 |x|^{1e308} overflowed to NaN; RuntimeWarnings are errors in this suite
        assert main(["verify-weights", "--phi", "0,1e308,0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["kernel_lp_norm"] == 1.0

    def test_window_without_a_node_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(FAST.replace("[output]", "window = 10.001,10.002\n[output]"))
        code = main(["asymptotics", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "window (10.001, 10.002) holds no grid node (dx = 0.0585938)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--t", "0.1"], ["--variant", "thm41"], ["--psi-literal"]])
    def test_asymptotics_options_live_in_the_config(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["asymptotics", "--config", str(tmp_path / "run.cfg"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    @pytest.mark.parametrize("bound", ["20", "1e6", "1e17"])
    def test_verify_weights_finds_the_kernel_sup_at_any_bound(self, capsys, bound):
        # (1 + |x|)^3 e^{-|x|} peaks at |x| = 2 with 27 e^{-2}; 20001 even nodes over
        # a bound of 1e6 or 1e17 step over it and read 1.0, the node x = 0
        assert main(["verify-weights", "--phi", "0,0,3,0", "--p", "inf", "--bound", bound]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("kernel_lp_norm", "kernel_lp_norm_doubled"):
            assert payload[key] == pytest.approx(27.0 * math.exp(-2.0), rel=1e-12, abs=0.0)

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

    def test_headline_obeys_the_scaling_symmetry(self, tmp_path):
        # u -> 2 u(2 t) maps solutions to solutions and scales every float exactly, so the
        # amplitude doubling as T halves doubles the sup norms, quadruples the quadratic
        # moments and residual, and leaves the fitted constant as it was; a compute grid
        # chosen differently at one amplitude would break these bit-for-bit laws.  sigma is
        # left out: its fit reads an absolute spectrum floor
        cfg_path = Path(__file__).parent.parent / "configs" / "showcase.cfg"
        text = cfg_path.read_text(encoding="utf-8")
        heads = []
        for amplitude, T in ((0.25, 0.2), (0.5, 0.1), (1.0, 0.05)):
            cfg = parse_config(
                text.replace("amplitude = 0.05", f"amplitude = {amplitude}")
                .replace("T = 0.25", f"T = {T}")
            )
            summary = run_experiment(cfg, out_dir=tmp_path / str(amplitude))
            assert summary.exit_code == 0
            heads.append(summary.headline)
        for small, large in itertools.pairwise(heads):
            for key in ("M", "boundary_max"):
                assert large[key] == 2.0 * small[key], key
            for key in ("Phi", "Psi", "max_form_residual"):
                assert large[key] == 4.0 * small[key], key
            assert large["C_fit"] == small["C_fit"]


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
SHOWCASE = (Path(__file__).parents[1] / "configs" / "showcase.cfg").read_text(encoding="utf-8")
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


STAGES = ("persistence", "asymptotics", "analyticity")


def _run_stages(traj, cfg, out, names=STAGES, flags=None):
    """The stages ``names`` of ``run_experiment``, in one pass over one trajectory; the headline."""
    from gch.runner import _run_stages as run_stages

    out.mkdir(parents=True)
    headline = {}
    run_stages(names, traj, cfg, out, config_hash(cfg), headline, {} if flags is None else flags)
    return headline


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestOneSpectrum:
    """The stages share one pass: each row block's rfft and derivatives are taken once."""

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
            # one rfft per row block, and u_x and u_xx once each for the ledger and the source
            assert counts[-1]["rfft"] == len(traj.row_blocks()) == 1
            assert counts[-1]["irfft"] == 2 * len(traj.row_blocks())
        assert counts[0] == counts[1]

    def test_fft_calls_per_row_block_on_a_history_run(self, fft_calls, tmp_path):
        cfg = parse_config(HISTORY)
        traj = _trajectory(cfg)
        for names, derivatives in ((STAGES, 2), (("asymptotics", "analyticity"), 1)):
            fft_calls.clear()
            _run_stages(traj, cfg, tmp_path / str(len(names)), names)
            blocks = len(traj.row_blocks())
            assert blocks == 15
            # u_xx only when the ledger is run
            assert Counter(fft_calls) == {"rfft": blocks, "irfft": derivatives * blocks}

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
        # 0.452 K x n x 8: one row block's spectrum, u_x and u_xx and the stages'
        # temporaries (values predate the trace); 1.30 with the whole spectrum cached
        assert peak <= 0.5 * K * n * 8

    def test_tail_pass_holds_one_row_block_at_a_time(self, tmp_path):
        cfg = parse_config(HISTORY)
        traj = _trajectory(cfg)
        K, n = traj.values.shape
        tracemalloc.start()
        try:
            headline = _run_stages(traj, cfg, tmp_path / "out", ("asymptotics",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert headline["Phi"] is not None
        # 0.368 K x n x 8, of which one row block's spectrum is 0.067
        assert peak <= 0.39 * K * n * 8

    @pytest.mark.parametrize(
        "config",
        [FAST, HISTORY, HISTORY + "t_star = 0.25\n", SHOWCASE],
        ids=["golden", "history", "history_t_star", "showcase"],
    )
    def test_each_stage_writes_what_it_writes_alone(self, tmp_path, config):
        # the golden config is FAST; a t_star profile stops inside a row block
        cfg = parse_config(config)
        traj = _trajectory(cfg)
        _run_stages(traj, cfg, tmp_path / "all")
        together = _files(tmp_path / "all")
        assert len(together) == 6
        for name in STAGES:
            _run_stages(traj, cfg, tmp_path / name, (name,))
            alone = _files(tmp_path / name)
            assert len(alone) == 2
            assert alone == {key: together[key] for key in alone}

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


class TestStages:
    """A stage either measures in full (CSV and JSON) or is degenerate (JSON with its reason)."""

    def test_decay_failure_after_the_profile_time_keeps_the_profile(self, tmp_path):
        # a snapshot after t_star fails the boundary-decay check; the profile at t_star
        # and its amplitude series, which stops there, never read it
        cfg = parse_config(
            HISTORY.replace("amplitude = 0.05", "amplitude = 0.12")
            .replace("run = persistence,asymptotics,analyticity", "run = asymptotics")
            + "t_star = 0.25\n"
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary.exit_code == 0
        assert "asymptotics_error" not in summary.headline
        payload = json.loads((tmp_path / "asymptotics.json").read_text())
        assert payload["degenerate"] is False and "reason" not in payload
        assert summary.headline["Phi"] == payload["Phi"] == pytest.approx(0.08412, abs=1e-5)
        assert summary.headline["Psi"] == payload["Psi"]
        assert (tmp_path / "tail_ratio.csv").exists()
        assert summary.artifacts["tail_ratio_csv"] == "tail_ratio.csv"
        _, traj = read_snapshots(tmp_path / "snapshots.bin")
        idx = int(np.argmin(np.abs(traj.times - 0.25)))
        assert payload["t"] == traj.times[idx] < traj.times[-1]
        assert payload["variant"] == "thm41" and "d" not in payload
        # c1/c2 span the snapshots up to t_star; the whole run's series fails the check
        head = Trajectory(traj.grid, traj.times[: idx + 1], traj.values[: idx + 1])
        _, plus, _ = amplitude_series(head)
        assert (payload["c1"], payload["c2"]) == (float(np.min(plus)), float(np.max(plus)))
        with pytest.raises(ValueError, match="boundary integrand"):
            amplitude_series(traj)

    def test_underflowing_truncation_level_is_degenerate(self, tmp_path):
        # e^{-10 x^2} underflows, and with it the default truncation level
        phi = "[weights]\nphi = -10,2,0,0\n[diagnostics]"
        cfg = parse_config(FAST.replace("[diagnostics]", phi))
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary.exit_code == 0
        assert summary.headline["M"] is None and summary.headline["C_fit"] is None
        payload = json.loads((tmp_path / "persistence.json").read_text())
        assert payload == {
            "degenerate": True,
            "reason": "truncation level must be positive, got 0.0",
        }
        assert not (tmp_path / "persistence.csv").exists()

    def test_other_exceptions_fail_the_stage(self, tmp_path, monkeypatch):
        import gch.analyticity as analyticity_mod

        true_terms, calls = analyticity_mod._majorant_terms, []

        def overflow_on_the_third_block(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OverflowError("forced")
            return true_terms(*args)

        monkeypatch.setattr(analyticity_mod, "_majorant_terms", overflow_on_the_third_block)
        summary = run_experiment(parse_config(HISTORY), out_dir=tmp_path / "run")
        assert len(calls) == 3  # mid-pass: the pass went on without the stage
        assert summary.headline["analyticity_error"] == "stage 'analyticity' failed: forced"
        assert summary.flags["diagnostics_ok"] is False
        assert summary.exit_code == 1
        assert not (tmp_path / "run" / "analyticity.json").exists()
        self._assert_others_as_alone(tmp_path, ("persistence", "asymptotics"))

    def test_a_degenerate_stage_leaves_the_pass_to_the_others(self, tmp_path):
        # the profile at T fails the boundary-decay check at a snapshot after the first
        # row block, mid-pass
        cfg = parse_config(HISTORY.replace("amplitude = 0.05", "amplitude = 0.12"))
        summary = run_experiment(cfg, out_dir=tmp_path / "run")
        assert summary.exit_code == 0 and summary.headline["Phi"] is None
        payload = json.loads((tmp_path / "run" / "asymptotics.json").read_text())
        assert payload["degenerate"] is True and "boundary integrand" in payload["reason"]
        self._assert_others_as_alone(tmp_path, ("persistence", "analyticity"))

    @staticmethod
    def _assert_others_as_alone(tmp_path, names):
        """Each stage's files from the run in ``tmp_path / "run"`` are those it writes alone."""
        from gch.runner import _run_stages

        chash, traj = read_snapshots(tmp_path / "run" / "snapshots.bin")
        cfg = parse_config(HISTORY)
        run = _files(tmp_path / "run")
        for name in names:
            out = tmp_path / name
            out.mkdir()
            _run_stages((name,), traj, cfg, out, chash, {}, {})
            alone = _files(out)
            assert len(alone) == 2
            assert alone == {key: run[key] for key in alone}, name

    def test_profile_index_keeps_eight_snapshots(self):
        from gch.asymptotics import MIN_SNAPSHOTS
        from gch.runner import _profile_index

        grid = Grid(64, 10.0)
        times = 0.1 * np.arange(12)
        traj = Trajectory.from_snapshots(times, [Field(grid, np.zeros(grid.n))] * len(times))
        assert _profile_index(traj, 0.2) == MIN_SNAPSHOTS - 1 == 7
        assert _profile_index(traj, 0.9) == 9
        assert _profile_index(traj, None) == 11

    def test_too_narrow_final_spectrum_has_no_sigma_t(self, tmp_path):
        from gch.runner import _run_stages

        cfg = parse_config(FAST)
        grid = Grid(cfg.n, cfg.L)
        pulse = sample(grid, lambda x: cfg.amplitude / np.cosh(x) ** 2)
        traj = Trajectory.from_snapshots([0.0, 0.1], [pulse, Field(grid, np.zeros(grid.n))])
        headline = {}
        artifacts = _run_stages(
            ("analyticity",), traj, cfg, tmp_path, config_hash(cfg), headline, {}
        )
        assert artifacts == {
            "analyticity_csv": "analyticity.csv",
            "analyticity_json": "analyticity.json",
        }
        assert headline["sigma0"] > 0 and headline["sigmaT"] is None
        payload = json.loads((tmp_path / "analyticity.json").read_text())
        assert payload["degenerate"] is False and payload["sigmaT"] is None

    def test_stage_names_agree(self):
        import functools

        from gch.cli import _cmd_forced_run, build_parser
        from gch.config import DIAGNOSTIC_NAMES
        from gch.runner import _STAGES

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        forced = [p.get_default("fn") for p in sub.choices.values()]
        cli_stages = {
            name
            for fn in forced
            if isinstance(fn, functools.partial) and fn.func is _cmd_forced_run
            for name in fn.args[0]
        }
        assert set(DIAGNOSTIC_NAMES) == set(_STAGES) == cli_stages
        assert cli_stages <= set(sub.choices)


class TestSelftestFaultInjection:
    def test_corrupted_form_b_sign_is_caught(self, monkeypatch):
        # flip the sign of the u_x^2 term in FORM_B: the residual-matrix
        # check must fail, by name
        import gch.dynamics as dynamics_mod
        from gch.dynamics import RhsForm
        from gch.runner import _selftest_forms

        true_rows = dynamics_mod._rhs_rows

        def corrupted(grid, v, form):
            out = true_rows(grid, v, form)
            if RhsForm(form) is RhsForm.FORM_B:
                out = out + 2.0 * grid.diff(v) ** 2
            return out

        monkeypatch.setattr(dynamics_mod, "_rhs_rows", corrupted)
        entries = []
        _selftest_forms(entries)
        matrix_entry = [e for e in entries if "residual matrix" in e[0]]
        assert matrix_entry and matrix_entry[0][1] is False

    def test_nan_young_slack_fails(self, monkeypatch):
        # Python's min drops a NaN that does not come first; the check must not
        import gch.runner as runner_mod

        true_slacks = runner_mod._young_slacks

        def nan_on_second_pair(*args):
            out = true_slacks(*args)
            out[0, 1] = np.nan
            return out

        monkeypatch.setattr(runner_mod, "_young_slacks", nan_on_second_pair)
        entries = []
        runner_mod._selftest_young(entries)
        assert entries[0][1] is False and "nan" in entries[0][2]

    @staticmethod
    def _sweep_with_one_nan(monkeypatch, field, pair, norm):
        """The operator-bound entry, and the table shapes, with one majorant norm set to NaN."""
        import gch.runner as runner_mod

        true_maxima = runner_mod._operator_maxima
        tables = []

        def nan_in_one_report(ladders, pairs):
            table = true_maxima(ladders, pairs)
            tables.append(table.shape)
            table[field, pair, norm] = np.nan
            return table

        monkeypatch.setattr(runner_mod, "_operator_maxima", nan_in_one_report)
        entries = []
        runner_mod._selftest_operator_bounds(entries)
        return entries[0], tables

    def test_nan_algebra_constant_fails(self, monkeypatch):
        # |||f^2|||_s at 2K of the third report
        entry, tables = self._sweep_with_one_nan(monkeypatch, 0, 2, 5)
        assert tables == [(8, 6, 6)]  # 48 reports from one table
        assert entry[1] is False and "nan" in entry[2]

    @pytest.mark.parametrize("field, pair, norm", [(0, 0, 0), (3, 1, 2), (7, 5, 1), (5, 4, 3)])
    def test_nan_in_any_report_fails(self, monkeypatch, field, pair, norm):
        entry, _ = self._sweep_with_one_nan(monkeypatch, field, pair, norm)
        assert entry[1] is False and "nan" in entry[2]


class TestSelftestWork:
    def test_operator_bounds_take_one_fft_pass_per_field(self, fft_calls):
        from gch.runner import _selftest_operator_bounds

        entries = []
        _selftest_operator_bounds(entries)
        assert entries[0][1] is True
        assert len(fft_calls) == 3

    def test_residual_matrix_takes_one_block_pass(self, fft_calls, monkeypatch):
        import gch.runner as runner_mod

        true_residuals, passes = runner_mod.max_form_residuals, []

        def counted(grid, v):
            start = len(fft_calls)
            out = true_residuals(grid, v)
            passes.append((v.shape, len(fft_calls) - start))
            return out

        monkeypatch.setattr(runner_mod, "max_form_residuals", counted)
        entries = []
        runner_mod._selftest_forms(entries)
        assert entries[0][1] is True
        assert passes == [((5, 1024), 70)]  # 11 + 17 + 15 + 27 per form, once for all rows

    def test_young_sweep_takes_one_fft_pass(self, fft_calls):
        from gch.runner import _selftest_young

        entries = []
        _selftest_young(entries)
        assert entries[0][1] is True
        assert len(fft_calls) == 3
