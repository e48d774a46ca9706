"""The names and inputs the benchmark in ``perfbench/`` relies on, checked in well under a second.

The benchmark's own tests sit outside ``testpaths`` and take about a
minute, so without these checks a refactor that renames or drops something
the benchmark calls would only show up as failed benchmark runs.
"""

import importlib
import re
import string
import sys
from pathlib import Path

import numpy as np
import pytest

import gch
from gch.cli import main

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


TEMPLATES = sorted((PERFBENCH / "configs").glob("*.cfg"))


def _nominal(template: Path) -> str:
    return string.Template(template.read_text(encoding="utf-8")).substitute(
        {key: repr(value) for key, value in workloads.NOMINAL.items()}
    )


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda p: p.stem)
def test_every_config_template_parses(template):
    cfg = gch.parse_config(_nominal(template))
    assert cfg.amplitude == workloads.NOMINAL["amplitude"]


def test_aliased_products_exit_two(tmp_path, capsys):
    text = _nominal(PERFBENCH / "configs" / "showcase.cfg")
    assert "dealias = true" in text
    cfg_file = tmp_path / "aliased.cfg"
    cfg_file.write_text(text.replace("dealias = true", "dealias = false"), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
    assert "no longer optional" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_runner_names_exist():
    runner = importlib.import_module("gch.runner")
    for name in layers.RUNNER_CALLS + ("simulate",):
        assert callable(getattr(runner, name, None)), name


def test_patched_module_functions_exist():
    assert callable(importlib.import_module("gch.integrate").rhs)
    assert callable(importlib.import_module("gch.asymptotics").averaged_source)


class _RecordingTracer:
    """Stands in for perfbench's Tracer: records what ``layers.install`` wraps."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, **_):
        self.wrapped.append((module, attr))

    def count_ffts(self, module, attr):
        pass


def test_every_name_the_tracer_wraps_resolves():
    # spans.Tracer.wrap looks each name up with getattr, so a missing one
    # makes every traced run (--trace 1) raise AttributeError
    tracer = _RecordingTracer()
    layers.install(tracer, gch)
    wrapped = {
        f"{module.__name__}.{attr}": getattr(module, attr, None) for module, attr in tracer.wrapped
    }
    runner_calls = {f"gch.runner.{name}" for name in layers.RUNNER_CALLS + ("simulate",)}
    assert set(wrapped) == runner_calls | {
        "gch.integrate.rhs",
        "gch.asymptotics.averaged_source",
        "gch.run_experiment",
        "gch.selftest",
    }
    assert [name for name, fn in sorted(wrapped.items()) if not callable(fn)] == []


def test_every_unused_import_is_one_the_tracer_wraps():
    # a `# noqa: F401` import is kept only so that layers.install can wrap the name in
    # that module; one the tracer no longer wraps is dead surface
    tracer = _RecordingTracer()
    layers.install(tracer, gch)
    wrapped = {(module.__name__, attr) for module, attr in tracer.wrapped}
    kept = set()
    for path in sorted((ROOT / "src" / "gch").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.endswith("# noqa: F401"):
                names = line.split(" import ", 1)[1].split("#")[0]
                kept |= {(f"gch.{path.stem}", name.strip()) for name in names.split(",")}
    assert ("gch.integrate", "rhs") in kept  # the scan reads the import lines
    assert sorted(kept - wrapped) == []


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
