"""Every workload in its own fresh process over several seeds, then one traced run each.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/baseline/results.json

For each workload and seed, runs ``run.py --trace 0`` in a new process, one
after another, and reports for each end-to-end metric the median and
quartiles over the seeds and their spread, (q3 - q1) / median, against the
metric's bound in BENCHMARK.json.  Then runs ``run.py --trace 1`` once per
workload, with seed 0, for the per-layer metrics.  Every metric line a run
prints (workload, name, value, unit) is echoed as it comes.  The workloads
and the seconds per run are those of BENCHMARK.json; ``--seeds LO-HI``
chooses the seeds.  Exits with 1 when a run is incorrect or a spread
reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    *lines, result = proc.stdout.splitlines()
    for line in lines:
        print(f"seed {seed:<3} {line}", flush=True)
    return json.loads(result)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="LO-HI, both included")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:  # seeds outermost, so a slow spell of the machine hits every workload
        for w in workloads:
            result = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, **result})
            print(f"seed {seed:<3} {w:<9} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    ok = True
    report: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    print(f"\n{'workload':<9} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        ok &= all(r["correct"] for r in runs[w])
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            s = stats[name] = spread(values) if len(values) > 1 else {"median": values[0]}
            if len(values) > 1:
                if s["spread"] >= bound:
                    ok = False
                print(f"{w:<9} {name:<12} {s['median']:>10.4g} {s['q1']:>10.4g} {s['q3']:>10.4g} "
                      f"{s['spread']:>7.2%} {bound:>6.0%}")
        report["workloads"][w] = {"end_to_end": stats, "runs": runs[w]}

    for w in workloads:
        result = run_once(w, 0, seconds, 1)
        ok &= result["correct"]
        report["workloads"][w]["per_layer"] = {
            "seed": 0, **{k: v["value"] for k, v in result["metrics"].items()}
        }
        print(f"seed 0   {w:<9} traced: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
