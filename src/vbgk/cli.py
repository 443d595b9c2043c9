"""Command-line driver.

    vbgk validate  --config PATH
    vbgk run       --config PATH [--out DIR]
    vbgk sweep     --config PATH [--epsilons 0.2,0.1,0.05,0.025] [--out DIR]
    vbgk reference --config PATH [--out DIR]

Exit codes: 0 ok, 1 bad config (parse error, invalid value, unreadable
initial-data file) or an output that cannot be written, 2 constraint
violation, 3 blow-up.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import driver
from .config import parse_config
from .errors import (
    BlowupDetected,
    ConfigError,
    ConstraintViolation,
    NonPositiveDensity,
    NonPositiveInput,
    NotDivergenceFree,
    VbgkError,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONSTRAINT = 2
EXIT_BLOWUP = 3

_CONSTRAINT_ERRORS = (ConstraintViolation, NonPositiveInput, NotDivergenceFree,
                      NonPositiveDensity)


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    report = driver.validate(cfg)
    for line in report.lines():
        print(line)
    if not report.passed:
        print("validation FAILED")
        return EXIT_CONSTRAINT
    print("validation OK")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    output = driver.run_to_files(cfg, args.out)
    print(f"wrote {args.out / 'records.csv'} ({len(output.records)} records)")
    if output.error is not None:
        print(f"run aborted: {output.error}")
        return EXIT_BLOWUP
    return EXIT_OK


def _parse_epsilons(raw: str) -> list[float]:
    try:
        eps = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--epsilons expects comma-separated numbers, got {raw!r}")
    return eps


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    epsilons = _parse_epsilons(args.epsilons)
    sweep = driver.run_sweep(cfg, epsilons, args.out)
    for name, fit in sweep.fits.items():
        print(f"{name}: slope {fit.slope:.4f} residual {fit.residual:.3e}")
    print(f"wrote {args.out / 'study.csv'} and {args.out / 'rates.txt'}")
    if sweep.failures:
        for eps, msg in sweep.failures.items():
            print(f"member run eps={eps:g} failed: {msg}")
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_reference(args) -> int:
    cfg = parse_config(args.config)
    times = driver.reference_to_files(cfg, args.out)
    print(f"wrote {len(times)} reference snapshots to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbgk",
        description="five-velocity vector kinetic relaxation solver for 2D "
                    "incompressible Navier-Stokes under diffusive scaling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("run", cmd_run),
                     ("sweep", cmd_sweep), ("reference", cmd_reference)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", type=Path, default=".")
        if name == "sweep":
            p.add_argument("--epsilons", default="0.2,0.1,0.05,0.025")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _CONSTRAINT_ERRORS as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except BlowupDetected as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except VbgkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
