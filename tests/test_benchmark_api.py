"""The names and inputs the benchmark in ``perfbench/`` relies on, checked in well under a second.

The benchmark's own tests sit outside ``testpaths`` and take about a
minute, so without these checks a refactor that renames or drops something
the benchmark calls would only show up as failed benchmark runs.
"""

import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gch

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.CONFIG_WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_configs_parse(tmp_path, workload, seed):
    cfg = gch.parse_config_file(workloads.write_config(workload, seed, tmp_path))
    assert cfg.kind == "sech2"


def test_runner_names_exist():
    runner = importlib.import_module("gch.runner")
    for name in layers.RUNNER_CALLS + ("simulate",):
        assert callable(getattr(runner, name, None)), name


def test_patched_module_functions_exist():
    assert callable(importlib.import_module("gch.integrate").rhs)
    assert callable(importlib.import_module("gch.asymptotics").averaged_source)


def test_every_gch_attribute_the_benchmark_names_exists():
    source = "".join(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))
    names = set(re.findall(r"\bgch\.([A-Za-z_]\w*)", source))
    assert names
    assert [name for name in sorted(names) if not hasattr(gch, name)] == []


@pytest.mark.parametrize("form", layers.FORMS)
def test_rhs_accepts_benchmark_forms(form):
    u = gch.Field(gch.Grid(64, 8.0), layers.PULSE.sample(64, 8.0))
    out = gch.rhs(u, form)
    assert out.values.shape == (64,)
    assert np.all(np.isfinite(out.values))
