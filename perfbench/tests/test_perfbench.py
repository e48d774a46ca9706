"""Tests of the benchmark's own code: output checks, failure accounting, spans, names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gch  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture()
def small_run(tmp_path):
    """A ConfigRun on a coarse, short version of the showcase config (seed 1)."""
    cfg = workloads.write_config("showcase", 1, tmp_path)
    text = cfg.read_text().replace("n = 4096", "n = 1024").replace("T = 0.25", "T = 0.1")
    cfg.write_text(text)
    return workloads.ConfigRun(gch, "showcase", 1, cfg)


def finished(small_run, tmp_path, corrupt):
    """Run once, then let ``corrupt(out_dir)`` damage the outputs before the check."""
    execute = small_run.execute

    def damaged(out_dir):
        summary = execute(out_dir)
        corrupt(out_dir)
        return summary

    small_run.execute = damaged
    return run.attempt(small_run, tmp_path / "out")


def test_clean_run_passes(small_run, tmp_path):
    a = run.attempt(small_run, tmp_path / "out")
    assert a.problems == []
    assert a.headline["Phi"] is not None and a.csv_mb > 0
    assert not (tmp_path / "out").exists()


def test_final_state_perturbed_above_tolerance_fails(small_run, tmp_path):
    def perturb(out_dir):
        path = out_dir / "state_final.bin"
        raw = bytearray(path.read_bytes())
        values = np.frombuffer(bytes(raw[24:]), dtype="<f8") * (1.0 + 1e-6)
        path.write_bytes(bytes(raw[:24]) + values.astype("<f8").tobytes())

    a = finished(small_run, tmp_path, perturb)
    assert any("H1 drift" in p for p in a.problems)


def test_false_summary_flag_fails(small_run, tmp_path):
    def clear_flag(out_dir):
        path = out_dir / "summary.json"
        summary = json.loads(path.read_text())
        summary["diagnostics_ok"] = False
        path.write_text(json.dumps(summary))

    a = finished(small_run, tmp_path, clear_flag)
    assert any("diagnostics_ok" in p for p in a.problems)


def test_failures_count_against_pass_frac(small_run, tmp_path):
    class Raises:
        def execute(self, out_dir):
            raise FloatingPointError("non-finite RK4 stage 2")

    tally = run.Tally()
    tally.attempts.append(run.attempt(small_run, tmp_path / "a"))
    tally.attempts.append(run.attempt(Raises(), tmp_path / "b"))
    assert tally.failed == 1 and tally.pass_frac == 0.5 and not tally.correct
    assert "FloatingPointError" in tally.attempts[1].problems[0]


def test_partner_mismatch_is_reported():
    problems = workloads.compare(
        {"Phi": 0.0140, "Psi": 0.0177, "sigmaT": 0.536},
        {"Phi": 0.0139, "Psi": 0.0177, "sigmaT": None},
        workloads.PARTNER_KEYS, workloads.PARTNER_REL_TOL, "history",
    )
    assert [p.split()[0] for p in problems] == ["Phi", "sigmaT"]


def test_child_spans_stay_inside_their_parent(small_run, tmp_path):
    with Tracer() as tracer:
        layers.install(tracer, gch)
        a = run.attempt(small_run, tmp_path / "out")
    assert a.problems == []
    assert gch.run_experiment.__name__ == "run_experiment"  # wrappers undone
    kids = tracer.children()
    for i, span in enumerate(tracer.spans):
        assert span.start <= span.end
        children = [tracer.spans[c] for c in kids.get(i, ())]
        assert all(span.start <= c.start and c.end <= span.end for c in children)
        assert sum(c.end - c.start for c in children) <= span.end - span.start
        assert 0.0 <= tracer.self_time(i, kids) <= span.end - span.start
    m = layers.span_metrics(tracer)
    assert m["integrate.rhs_calls"] == 4 * m["integrate.n_steps"] > 0
    assert m["integrate.fft_calls"] > 24 * m["integrate.rhs_calls"] - 1


def test_self_time_subtracts_covered_interval():
    tracer = Tracer()
    tracer.spans = [
        Span("root", 0.0, 10.0, -1, 0, 0.0),
        Span("a", 1.0, 4.0, 0, 0, 0.0),
        Span("b", 5.0, 6.0, 0, 0, 0.0),
    ]
    assert tracer.self_time(0) == pytest.approx(6.0)
    assert tracer.total("a") == 3.0


def test_operation_counts_repeat_exactly():
    u = gch.Field(gch.Grid(4096, 40.0), layers.PULSE.sample(4096, 40.0))
    counts = [
        [layers.fft_calls(lambda: gch.rhs(u, form)) for form in layers.FORMS] for _ in range(2)
    ]
    assert counts[0] == counts[1] == [14, 26, 24, 44]


def test_setup_probe_times_only_the_imports_gch_makes(tmp_path):
    """A gch that never imports scipy: its set-up probe must not import scipy either."""
    package = tmp_path / "src" / "gch"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def parse_config_file(path):\n    return open(path).read()\n"
    )
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[grid]\n")
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(tmp_path), "gch", str(cfg)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout)
    assert sample["gch_file"] == str(package / "__init__.py")
    assert sample["scipy_loaded"] is False
    assert sample["seconds"] == pytest.approx(sample["import_s"] + sample["parse_s"])


def test_seed_fixes_the_pulse():
    assert workloads.pulse_for_seed(0) == workloads.Pulse(0.05, 1.0, 0.0)
    assert workloads.pulse_for_seed(7) == workloads.pulse_for_seed(7)
    assert workloads.pulse_for_seed(7) != workloads.pulse_for_seed(8)
    for seed in range(1, 50):
        p = workloads.pulse_for_seed(seed)
        for key, (lo, hi) in workloads.RANGES.items():
            assert lo <= getattr(p, key) <= hi


def test_every_layer_metric_has_a_target():
    targets = json.loads((HERE / "targets.json").read_text())
    targets.pop("_comment")
    assert set(targets) == PER_LAYER
    names = {w["name"] for w in SPEC["workloads"]}
    for target in targets.values():
        assert set(target["moves"]) <= E2E and set(target["on"]) <= names


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,declared", [("0", E2E), ("1", PER_LAYER)])
def test_printed_metric_names_are_declared(trace, declared):
    proc = bench("--workload", "showcase", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared
    for line in proc.stdout.splitlines()[:-1]:
        words = line.split()
        if words[0] == "showcase":
            assert words[1] in declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "showcase", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
