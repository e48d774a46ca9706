"""Command-line interface.

Subcommands: simulate, persistence, asymptotics, analyticity,
verify-weights, selftest.  Exit codes: 0 success, 1 diagnostics failed,
2 configuration error, 3 numerical abort (blow-up guard, a non-finite series
order or RK4 stage, a default step below ``STEP_FLOOR * T``, a default run
that has kept ``MAX_STEPS`` steps short of T, or boundary violation).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .config import _parse_float, _parse_float_tuple, parse_config_file
from .errors import ConfigError
from .runner import _json_text, _output_dir, _write_json, run_experiment, selftest
from .weights import WeightSpec, admissibility_report

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _cmd_forced_run(run, args) -> int:
    """A subcommand that runs the configuration with its diagnostics set to ``run``."""
    cfg = parse_config_file(args.config)
    cfg.run = run
    summary = run_experiment(cfg, out_dir=args.out)
    for key, value in sorted(summary.headline.items()):
        print(f"{key} = {value}")
    print(f"wall time: {summary.wall_time:.2f} s")
    print(f"artifacts in: {Path(args.out if args.out is not None else cfg.out_dir).resolve()}")
    return summary.exit_code


def _cmd_verify_weights(args) -> int:
    # every ValueError here comes from the flags: parsing them, or the
    # report's own checks of --samples and --bound
    try:
        phi = _parse_float_tuple(4)(args.phi)
        v = _parse_float_tuple(4)(args.v) if args.v is not None else phi
        if not all(map(math.isfinite, phi + v)):
            raise ValueError("--phi and --v must be finite")
        p = _parse_float(args.p)
        if not p >= 1:
            raise ValueError(f"p must lie in [1, inf], got {args.p}")
        report = admissibility_report(
            WeightSpec(*phi), WeightSpec(*v), sample_count=args.samples,
            domain_bound=args.bound, p=p,
        )
    except ValueError as exc:
        raise ConfigError([f"verify-weights: {exc}"]) from None
    # strict JSON, as in the run summaries: a weight that underflows to 0 makes
    # C0 and A NaN (0/0), written as null
    payload = report.as_dict()
    if args.out is not None:
        _write_json(_output_dir(args.out) / "admissibility.json", payload)
    print(_json_text(payload), end="")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    report = selftest()
    print(report.table())
    return EXIT_OK if report.passed else EXIT_DIAGNOSTICS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gch",
        description="Pseudospectral solver and diagnostics for a generalized "
        "Camassa-Holm equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, run, doc in (
        ("simulate", (), "run the simulation and dump snapshots"),
        ("persistence", ("persistence",), "weighted-norm growth ledger"),
        ("asymptotics", ("asymptotics",), "tail-profile extraction"),
        ("analyticity", ("analyticity",), "analyticity-radius tracking"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.set_defaults(fn=functools.partial(_cmd_forced_run, run))

    p = sub.add_parser("verify-weights", help="admissibility report for a weight pair")
    p.add_argument("--phi", required=True, help="a,b,c,d")
    p.add_argument("--v", default=None, help="a,b,c,d (default: same as phi)")
    p.add_argument("--p", default="inf")
    p.add_argument("--bound", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify_weights)

    p = sub.add_parser("selftest", help="deterministic checks of the numerical core")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        code = EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
