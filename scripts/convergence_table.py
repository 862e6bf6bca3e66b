#!/usr/bin/env python3
"""Monte Carlo convergence of the (b,b') correlation to its conditional target.

Samples ever larger data sets at fixed angles and tabulates the estimate,
the closed-form target, the error, and the estimated standard error. The
distance to the naive -cos(b-b') value is printed alongside to show that
the estimate converges to the conditional form and not to the substituted
one.
"""

import argparse
import math
import os

# no step calls BLAS: keep numpy's OpenBLAS from starting its worker threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from bellwigner import AngleConfig, bell_correlation, convergence_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--angles", default="0,1.0471975511965976,2.0943951023931953",
                        help="a,b,bp in radians (default 0, pi/3, 2pi/3)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--n-list", default="100,1000,10000,100000,1000000",
        help="comma-separated ascending sample counts",
    )
    args = parser.parse_args()

    a, b, bp = (float(p) for p in args.angles.split(","))
    cfg = AngleConfig(a, b, bp)
    n_list = [int(p) for p in args.n_list.split(",")]
    naive = bell_correlation(cfg.b, cfg.bp)

    records = convergence_study(cfg, n_list, seed=args.seed)
    print(f"target C3 = {records[0].analytic:+.6f}; naive -cos form = {naive:+.6f}")
    print(f"{'n':>9} {'estimate':>10} {'abs_error':>10} {'std_error':>10} {'sigmas_from_naive':>18}")
    for r in records:
        from_naive = abs(r.estimate - naive) / r.std_error if r.std_error else math.inf
        print(
            f"{r.n_samples:>9} {r.estimate:>+10.5f} {r.abs_error:>10.5f} "
            f"{r.std_error:>10.5f} {from_naive:>18.1f}"
        )


if __name__ == "__main__":
    main()
