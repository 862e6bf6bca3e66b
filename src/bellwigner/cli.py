"""Command-line entry point.

Commands: check-data, simulate, analytic, sweep, convergence. Exit codes:
0 = success / inequality satisfied, 1 = violation found, 2 = input error.
All randomness is seeded (default seed 42) so default runs reproduce.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Sequence

DEFAULT_SEED = 42


def __getattr__(name):
    # perfbench/tracing.py still imports these two from here; the benchmark
    # should trace read_pattern_counts and TriplesWriter instead
    if name in ("read_outcome_csv", "write_triples_csv"):
        from . import datafile

        return getattr(datafile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_angles(text: str, degrees: bool) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--angles needs three comma-separated values, got {text!r}")
    try:
        a, b, bp = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--angles values must be numbers, got {text!r}") from None
    if degrees:
        a, b, bp = math.radians(a), math.radians(b), math.radians(bp)
    return a, b, bp


def _config_from_args(args):
    from .core import AngleConfig, AngleConvention

    a, b, bp = _parse_angles(args.angles, args.degrees)
    return AngleConfig(a, b, bp, AngleConvention(args.convention))


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_check_data(args) -> int:
    from .data_inequality import data_bell_margin_3, data_bell_margin_4
    from .datafile import read_pattern_counts

    counts = read_pattern_counts(args.path)
    report = {3: data_bell_margin_3, 4: data_bell_margin_4}[counts.width](counts)
    payload = {"command": "check-data", "path": args.path, "n": counts.n, **report.as_dict()}
    if args.format == "json":
        _print_json(payload)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
    return 0 if report.satisfied else 1


def cmd_simulate(args) -> int:
    from .analytic import bell_correlation, third_correlation
    from .data_inequality import _triple_sums, data_bell_margin_3
    from .datafile import TriplesWriter
    from .sampler import make_rng, stream_dataset

    cfg = _config_from_args(args)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    # a bad seed is refused before --out is opened, so it leaves the file as it was
    rng = make_rng(args.seed)
    # each slice is written as soon as it is drawn, so --n costs time and disk, not memory
    with open(args.out, "wb") as fh:
        rows = TriplesWriter(fh)
        stream_dataset(cfg, args.n, rng, rows.write)
    counts = rows.counts
    report = data_bell_margin_3(counts)
    c_ab, c_abp, c_bbp = (s / args.n for s in _triple_sums(counts))
    summary = {
        "command": "simulate",
        "n": args.n,
        "seed": args.seed,
        "angles": {"a": cfg.a, "b": cfg.b, "bp": cfg.bp},
        "convention": cfg.convention.name,
        "out": args.out,
        "estimates": {
            "c_ab": c_ab,
            "c_abp": c_abp,
            "c_bbp": c_bbp,
        },
        "analytic": {
            "c_ab": bell_correlation(cfg.a, cfg.b, cfg.convention),
            "c_abp": bell_correlation(cfg.a, cfg.bp, cfg.convention),
            "c3": third_correlation(cfg),
        },
        "data_inequality": report.as_dict(),
    }
    _print_json(summary)
    return 0 if report.satisfied else 1


def cmd_analytic(args) -> int:
    from .analytic import (
        bell_correlation,
        bell_margin,
        joint_probability,
        third_correlation,
        third_pair_probabilities,
        wigner_margin,
        wigner_slack,
    )
    from .core import Mode

    cfg = _config_from_args(args)
    mode = Mode(args.mode)
    bell = bell_margin(cfg, mode)
    wigner = wigner_margin(cfg, mode)
    ppp, ppm = third_pair_probabilities(cfg)
    summary = {
        "command": "analytic",
        "angles": {"a": cfg.a, "b": cfg.b, "bp": cfg.bp},
        "convention": cfg.convention.name,
        "mode": mode.name,
        "joint_ab": joint_probability(cfg.a, cfg.b, cfg.convention).as_dict(),
        "joint_abp": joint_probability(cfg.a, cfg.bp, cfg.convention).as_dict(),
        "third_pair": {"ppp": ppp, "ppm": ppm},
        "correlations": {
            "c_ab": bell_correlation(cfg.a, cfg.b, cfg.convention),
            "c_abp": bell_correlation(cfg.a, cfg.bp, cfg.convention),
            "c3": third_correlation(cfg),
        },
        "bell": bell.as_dict(),
        "wigner": wigner.as_dict(),
        "wigner_slack": wigner_slack(cfg),
    }
    _print_json(summary)
    return 0 if bell.satisfied and wigner.satisfied else 1


def cmd_sweep(args) -> int:
    from .core import AngleConvention, InequalityKind, Mode
    from .sweep import VIOLATION_THRESHOLD, grid_sweep, write_records_csv

    convention = AngleConvention(args.convention)
    kind = {"bell": InequalityKind.CORR_BELL, "wigner": InequalityKind.WIGNER}[args.kind]
    mode = Mode(args.mode)
    result = grid_sweep(args.resolution, convention, kind, mode)
    rows_written = None
    if args.out == "-":
        try:
            rows_written = write_records_csv(sys.stdout, args.resolution, convention, kind, mode)
        except BrokenPipeError:
            # the reader is gone: point stdout at the null device, so that its
            # flush at exit cannot fail again and print "Exception ignored"
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise
    elif args.out is not None:
        with open(args.out, "w", newline="") as fh:
            rows_written = write_records_csv(fh, args.resolution, convention, kind, mode)
    summary = {
        "command": "sweep",
        "kind": kind.name,
        "mode": mode.name,
        "convention": convention.name,
        "resolution": args.resolution,
        "n_points": result.n_points,
        "min_margin": result.min_margin,
        "argmin": {"a": result.argmin.a, "b": result.argmin.b, "bp": result.argmin.bp},
        "violations": result.violations,
        "violation_threshold": VIOLATION_THRESHOLD,
        "records_written": rows_written,
        "out": args.out,
    }
    # keep the record stream clean when it goes to stdout
    out_stream = sys.stderr if args.out == "-" else sys.stdout
    print(json.dumps(summary, indent=2), file=out_stream)
    return 0 if result.violations == 0 else 1


def cmd_convergence(args) -> int:
    from .sampler import convergence_study

    cfg = _config_from_args(args)
    try:
        n_list = [int(p) for p in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    records = convergence_study(cfg, n_list, args.seed)
    rows = [r.as_dict() for r in records]
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        if args.format == "json":
            out.write(json.dumps(rows, indent=2) + "\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows(row.values() for row in rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


_WITNESS_ANGLES = "0,2.0943951023931953,1.0471975511965976"  # (0, 2pi/3, pi/3)


def _add_angle_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--angles",
        default=_WITNESS_ANGLES,
        metavar="A,B,BP",
        help="three detector settings, radians unless --degrees "
        "(default: 0, 2pi/3, pi/3)",
    )
    sub.add_argument(
        "--degrees", action="store_true", help="interpret --angles in degrees"
    )


def _add_convention_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--convention",
        choices=("spin", "optical"),
        default="spin",
        help="half-angle (spin) or full-angle (optical) trig arguments",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellwigner",
        description="Bell/Wigner inequality verification lab: exact data-set "
        "identities, closed-form entangled-pair predictions, Monte Carlo "
        "sampling, and angle-grid sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-data",
        help="evaluate the exact data inequality on a +-1 CSV file",
    )
    p.add_argument("path", help="CSV with header a,b,bp (triples) or a,ap,b,bp (quads)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_check_data)

    p = sub.add_parser("simulate", help="sample entangled-pair triples to CSV")
    _add_angle_options(p)
    _add_convention_option(p)
    p.add_argument("--n", type=int, default=1000, help="number of trials (default 1000)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default 42)")
    p.add_argument("--out", required=True, help="output CSV path for the sampled triples")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form probabilities, correlations, margins")
    _add_angle_options(p)
    _add_convention_option(p)
    p.add_argument("--mode", choices=("paper", "naive"), default="paper")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("sweep", help="evaluate one margin over the [0,2pi)^3 grid")
    _add_convention_option(p)
    p.add_argument("--kind", choices=("bell", "wigner"), default="wigner")
    p.add_argument("--mode", choices=("paper", "naive"), default="paper")
    p.add_argument("--resolution", type=int, default=60, help="grid points per axis")
    p.add_argument(
        "--out",
        help="stream all grid records as CSV to this path ('-' for stdout; "
        "summary then goes to stderr)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convergence", help="Monte Carlo error vs sample count")
    _add_angle_options(p)
    _add_convention_option(p)
    p.add_argument(
        "--n-list",
        default="100,10000,1000000",
        help="comma-separated ascending sample counts",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write records here instead of stdout")
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        # no command calls BLAS, and OpenBLAS's thread pool adds ~50 ms to the numpy import
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # DataParseError, EmptyDataError and LengthMismatchError are ValueErrors
    except (csv.Error, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
