"""Benchmark gch on one workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload showcase --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each is there): ``showcase``,
``long`` and ``history`` run ``gch.run_experiment`` on a config generated
from the seed, writing every artifact to a fresh directory; ``selftest``
runs ``gch.selftest()``.  The load is a closed loop with one client: one
warm-up run, then runs back to back, each waiting for the previous one,
until ``--seconds`` have passed.  Every run's outputs are checked
(see workloads.py); a run that raises or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics:

    setup_s      median over fresh interpreters of the processor time of
                 ``import gch`` + config parse, timed inside them (probe.py)
                 and rescaled by a calibration loop each runs afterwards
    wall_s       median wall time of one run after the warm-up
    peak_rss_mb  peak resident memory of this process, which ran the workload
    pass_frac    runs that passed their check / runs attempted

wall_s is rescaled to a reference host speed by a calibration loop timed
just before and after each run, and every 0.5 s inside it (speed.py).  The
unscaled medians of both are printed beside them.  The process and its
probes are pinned to one CPU, so the calibration times the CPU the run used.

``--trace 1`` prints the per-layer metrics instead: the set-up split, the
microbenchmarks of layers.py, and the spans of traced runs, alternated
with untraced ones to give the tracing overhead.  Spans are written to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

Everything runs on one compute thread.  The program is imported from
``src/`` of the checkout this file sits in; without it the benchmark exits
with code 2 and prints no result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from probe import peak_rss_mb  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import (  # noqa: E402
    PARTNER_KEYS,
    PARTNER_REL_TOL,
    WORKLOADS,
    ConfigRun,
    compare,
    make_run,
    write_config,
)


def declared_units() -> dict:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Attempt:
    wall: float
    scaled: float  # wall at the reference speed
    problems: list = field(default_factory=list)
    headline: dict | None = None
    csv_mb: float = 0.0
    artifact_mb: float = 0.0


@dataclass
class Tally:
    attempts: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # not tied to a single run

    @property
    def failed(self) -> int:
        return sum(1 for a in self.attempts if a.problems)

    @property
    def pass_frac(self) -> float:
        return 1.0 - self.failed / len(self.attempts)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def attempt(run, out_dir: Path) -> Attempt:
    """One run in a fresh output directory: timed, then checked, then removed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    error = None
    with Speed() as speed:
        t0 = time.perf_counter()
        try:
            result = run.execute(out_dir)
        except Exception as exc:  # a run that raises is a failed run, not a crash
            error = f"run raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    wall -= speed.inside
    out = Attempt(wall, speed.rescale(wall))
    if error is not None:
        out.problems = [error]
    else:
        try:
            out.problems = run.check(result, out_dir)
        except Exception as exc:
            out.problems = [f"check raised {type(exc).__name__}: {exc}"]
        if isinstance(run, ConfigRun) and (out_dir / "summary.json").exists():
            out.headline = run.headline(out_dir)
            sizes = {p.name: p.stat().st_size for p in out_dir.iterdir()}
            out.csv_mb = sizes.get("snapshots.csv", 0) / 1e6
            out.artifact_mb = sum(sizes.values()) / 1e6
    shutil.rmtree(out_dir, ignore_errors=True)
    return out


def setup_probes(tally: Tally, stage: str, cfg_path: Path | None = None,
                 count: int = SETUP_PROBES) -> list:
    """One set-up stage timed in ``count`` fresh interpreters (probe.py)."""
    args = [sys.executable, str(HERE / "probe.py"), str(ROOT), stage]
    if cfg_path is not None:
        args.append(str(cfg_path))
    samples = []
    for _ in range(count):
        proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            tally.problems.append(f"{stage} set-up probe failed: {proc.stderr.strip()}")
            continue
        sample = json.loads(proc.stdout.splitlines()[-1])
        gch_file = sample.get("gch_file")
        if gch_file is not None and not Path(gch_file).resolve().is_relative_to(ROOT / "src"):
            tally.problems.append(f"probe imported gch from {sample['gch_file']}")
        samples.append(sample)
    return samples


def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples) if samples else 0.0


def median_scaled(samples: list, key: str) -> float:
    """Median of a probe time at the reference host speed."""
    return statistics.median(s[key] * s["scale"] for s in samples) if samples else 0.0


def check_partner(gch, seed: int, tally: Tally, work: Path) -> None:
    """long and history reach T = 1 from the same datum: compare every long run."""
    partner = make_run(gch, "history", seed, write_config("history", seed, work))
    ref = attempt(partner, work / "partner")
    if ref.problems or ref.headline is None:
        tally.problems.append(f"history partner run failed: {ref.problems}")
        return
    for a in tally.attempts:
        if a.headline is not None:
            a.problems += compare(a.headline, ref.headline, PARTNER_KEYS, PARTNER_REL_TOL, "history")


def end_to_end(gch, workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    cfg_path = write_config(workload, seed, work)
    run = make_run(gch, workload, seed, cfg_path)
    tally.attempts.append(attempt(run, work / "run"))  # warm-up, checked but not timed
    # The set-up probes are spread over the timed window, one after a run
    # every seconds / SETUP_PROBES of run time, so that their median does not
    # come from a single speed phase of the host (speed.py).  Time spent in
    # probes does not count towards the window.
    probes: list = []
    start = time.perf_counter()
    while len(tally.attempts) < 2 or time.perf_counter() - start < seconds:
        tally.attempts.append(attempt(run, work / "run"))
        due = len(probes) * seconds / SETUP_PROBES
        if len(probes) < SETUP_PROBES and time.perf_counter() - start >= due:
            t0 = time.perf_counter()
            probes += setup_probes(tally, "gch", cfg_path, count=1)
            start += time.perf_counter() - t0
    probes += setup_probes(tally, "gch", cfg_path, count=SETUP_PROBES - len(probes))
    rss_mb = peak_rss_mb()
    if workload == "long":
        check_partner(gch, seed, tally, work)
    timed = tally.attempts[1:]
    print(f"setup_s      median of {len(probes)} fresh interpreters; unscaled processor time "
          f"{median_of(probes, 'seconds'):.4f} s, wall {median_of(probes, 'wall_s'):.4f} s")
    print(f"wall_s       median of {len(timed)} runs after 1 warm-up run; "
          f"unscaled {statistics.median(a.wall for a in timed):.4f} s")
    return {
        "setup_s": median_scaled(probes, "seconds"),
        "wall_s": statistics.median(a.scaled for a in timed),
        "peak_rss_mb": rss_mb,
        "pass_frac": tally.pass_frac,
    }


def per_layer(gch, workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    cfg_path = write_config(workload, seed, work)
    numpy_only = setup_probes(tally, "numpy")
    with_scipy = setup_probes(tally, "scipy")
    probes = setup_probes(tally, "gch", cfg_path)
    m = {
        "cli.import_numpy_s": median_scaled(numpy_only, "seconds"),
        "cli.import_scipy_s": median_scaled(with_scipy, "seconds"),
        "cli.import_gch_s": median_scaled(probes, "import_s"),
        "cli.import_numpy_rss_mb": median_of(numpy_only, "rss_mb"),
        "cli.import_scipy_rss_mb": median_of(with_scipy, "rss_mb"),
        "cli.import_gch_rss_mb": median_of(probes, "rss_mb"),
        "config.parse_ms": 1e3 * median_scaled(probes, "parse_s"),
    }
    m.update(layers.microbenchmarks(gch))

    run = make_run(gch, workload, seed, cfg_path)
    tally.attempts.append(attempt(run, work / "run"))  # warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(attempt(run, work / "run"))
        with Tracer() as tracer:
            layers.install(tracer, gch)
            a = attempt(run, work / "run")
        spans = layers.span_metrics(tracer)
        spans["integrate.csv_mb"] = a.csv_mb
        spans["runner.artifact_mb"] = a.artifact_mb
        traced.append((a, spans))
    tally.attempts += plain + [a for a, _ in traced]
    tracer.dump(WORK / f"spans-{workload}-seed{seed}.json")

    for key in traced[0][1]:
        m[key] = statistics.median(s[key] for _, s in traced)
    traced_s = statistics.median(a.scaled for a, _ in traced)
    m["trace.overhead_frac"] = traced_s / statistics.median(a.scaled for a in plain) - 1.0
    print(f"traced runs  {len(traced)}, alternated with {len(plain)} untraced runs")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gch" / "__init__.py").is_file():
        print(f"perfbench: no gch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import gch

    units = declared_units()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(gch, args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems + [p for a in tally.attempts for p in a.problems]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:<9} {name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": len(tally.attempts),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
