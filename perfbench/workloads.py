"""Workload inputs drawn from a seed, one gch run per workload, and its output check.

The seed only chooses the initial pulse.  Seed 0 is the nominal pulse of
``configs/showcase.cfg`` (amplitude 0.05, width 1, centre 0); any other
seed draws each parameter uniformly from a narrow range around it:

    amplitude in [0.045, 0.055], width in [0.95, 1.05], centre in [-0.25, 0.25]

Over these ranges every run stays boundary-clean, keeps its tail window
decaying and has a non-degenerate profile, so no run is expected to fail.
gch receives only the generated config file; its own ``[output] seed``
perturbs nothing but the config hash.
"""

from __future__ import annotations

import json
import math
import random
import string
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

CONFIG_WORKLOADS = ("showcase", "long", "history")
WORKLOADS = CONFIG_WORKLOADS + ("selftest",)

NOMINAL = {"amplitude": 0.05, "width": 1.0, "center": 0.0}
RANGES = {"amplitude": (0.045, 0.055), "width": (0.95, 1.05), "center": (-0.25, 0.25)}

#: ||u||_{H^1} is conserved by the flow and by its 2/3-dealiased
#: semi-discretisation; RK4 at the default step keeps the relative drift at
#: 1e-15..4e-13 on these workloads.
H1_DRIFT_TOL = 1e-9
#: history (n = 4096, every step) and long (n = 16384, every 32nd step) reach
#: T = 1 from the same datum.  At the corners of the seed ranges Phi and Psi
#: differ by at most 3.9e-5 (relative) and sigmaT by 2e-7.
PARTNER_REL_TOL = 2e-4
PARTNER_KEYS = ("Phi", "Psi", "sigmaT")
#: Seed-0 headline values must match reference.json to this relative error.
REFERENCE_REL_TOL = 1e-6
REFERENCE_KEYS = ("M", "C_fit", "Phi", "Psi", "sigma0", "sigmaT")


@dataclass(frozen=True)
class Pulse:
    amplitude: float
    width: float
    center: float

    def sample(self, n: int, L: float) -> np.ndarray:
        x = -L + (2.0 * L / n) * np.arange(n)
        return self.amplitude / np.cosh((x - self.center) / self.width) ** 2


def pulse_for_seed(seed: int) -> Pulse:
    if seed == 0:
        return Pulse(**NOMINAL)
    rng = random.Random(seed)
    return Pulse(**{key: rng.uniform(lo, hi) for key, (lo, hi) in RANGES.items()})


def write_config(workload: str, seed: int, dest: Path) -> Path:
    """Fill the workload's template with the seed's pulse; return the file written.

    ``selftest`` reads no config; its set-up probe parses the showcase one.
    """
    template = "showcase" if workload == "selftest" else workload
    text = (HERE / "configs" / f"{template}.cfg").read_text(encoding="utf-8")
    pulse = pulse_for_seed(seed)
    text = string.Template(text).substitute(
        amplitude=repr(pulse.amplitude), width=repr(pulse.width), center=repr(pulse.center)
    )
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / f"{workload}-seed{seed}.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def h1_norm(values: np.ndarray, L: float) -> float:
    """||u||_{H^1} on [-L, L) by Parseval on the one-sided spectrum."""
    n = values.size
    c = np.fft.rfft(values)
    k = (np.pi / L) * np.arange(c.size)
    mult = np.full(c.size, 2.0)
    mult[0] = mult[-1] = 1.0
    return math.sqrt(float(np.sum(mult * (1.0 + k**2) * np.abs(c) ** 2)) * 2.0 * L / n**2)


def read_state(path: Path) -> tuple[float, np.ndarray, float]:
    """Read a ``GCH1`` checkpoint: (L, samples, t)."""
    header = struct.Struct("<4sIdd")
    raw = Path(path).read_bytes()
    magic, n, L, t = header.unpack_from(raw)
    if magic != b"GCH1":
        raise ValueError(f"bad checkpoint magic {magic!r}")
    values = np.frombuffer(raw, dtype="<f8", offset=header.size)
    if values.size != n:
        raise ValueError(f"checkpoint holds {values.size} samples, header says {n}")
    return L, values, t


def rel_diff(a, b) -> float:
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def compare(headline: dict, expected: dict, keys, tol: float, label: str) -> list[str]:
    return [
        f"{key} = {headline.get(key)!r} differs from {label} {expected.get(key)!r}"
        for key in keys
        if not rel_diff(headline.get(key), expected.get(key)) <= tol
    ]


class ConfigRun:
    """``run_experiment`` on one generated config, writing every artifact."""

    def __init__(self, gch, workload: str, seed: int, cfg_path: Path):
        self.gch = gch
        self.cfg = gch.parse_config_file(cfg_path)
        self.pulse = pulse_for_seed(seed)
        self.reference = None
        if seed == 0:
            refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
            self.reference = refs[workload]

    def execute(self, out_dir: Path):
        return self.gch.run_experiment(self.cfg, out_dir)

    def check(self, summary, out_dir: Path) -> list[str]:
        """Problems with one finished run; empty when the outputs are right."""
        problems = []
        if summary.exit_code != 0:
            problems.append(f"exit code {summary.exit_code}")
        written = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        for flag in ("boundary_clean", "no_blow_up", "diagnostics_ok"):
            if written.get(flag) is not True:
                problems.append(f"summary flag {flag} is {written.get(flag)!r}")
        problems += [f"summary has {key}" for key in written if key.endswith("_error")]
        L, final, t = read_state(out_dir / "state_final.bin")
        if abs(t - self.cfg.T) > 1e-12 * self.cfg.T:
            problems.append(f"final state at t = {t}, expected {self.cfg.T}")
        h1_0 = h1_norm(self.pulse.sample(final.size, L), L)
        drift = abs(h1_norm(final, L) - h1_0) / h1_0
        if not drift <= H1_DRIFT_TOL:
            problems.append(f"H1 drift {drift:.3e} exceeds {H1_DRIFT_TOL:g}")
        if self.reference is not None:
            problems += compare(written, self.reference, REFERENCE_KEYS, REFERENCE_REL_TOL, "reference")
        return problems

    @staticmethod
    def headline(out_dir: Path) -> dict:
        return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))


class SelftestRun:
    """``gch.selftest()``: the only caller of the weights and helmholtz oracles."""

    def __init__(self, gch):
        self.gch = gch

    def execute(self, out_dir: Path):
        return self.gch.selftest()

    def check(self, report, out_dir: Path) -> list[str]:
        return [] if report.passed else ["selftest failed:\n" + report.table()]


def make_run(gch, workload: str, seed: int, cfg_path: Path):
    if workload == "selftest":
        return SelftestRun(gch)
    return ConfigRun(gch, workload, seed, cfg_path)
