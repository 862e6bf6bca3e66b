#!/usr/bin/env python3
"""Contrast report at the canonical witness angles (a, b, b') = (0, 2pi/3, pi/3).

Prints the closed-form joint probabilities and correlations, then the Bell
and Wigner margins under both third-pair evaluations: the conditional
construction (PAPER, never violated) and the cosine substitution (NAIVE,
violated at these angles). A seeded Monte Carlo run and a coarse grid
census confirm both claims numerically.
"""

import argparse
import math

from bellwigner import (
    AngleConfig,
    AngleConvention,
    InequalityKind,
    Mode,
    bell_correlation,
    bell_margin,
    data_bell_margin_3,
    make_rng,
    matched_pairs_estimate,
    sample_dataset,
    third_correlation,
    third_pair_probabilities,
    violation_census,
    wigner_margin,
    wigner_slack,
)

WITNESS = AngleConfig(0.0, 2 * math.pi / 3, math.pi / 3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200_000, help="Monte Carlo trials")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--resolution", type=int, default=60, help="census grid")
    args = parser.parse_args()

    cfg = WITNESS
    print(f"settings: a={cfg.a:.6f}  b={cfg.b:.6f}  b'={cfg.bp:.6f}  (spin convention)")
    print()

    ppp, ppm = third_pair_probabilities(cfg)
    print("closed forms")
    print(f"  C(a,b)   = {bell_correlation(cfg.a, cfg.b):+.6f}")
    print(f"  C(a,b')  = {bell_correlation(cfg.a, cfg.bp):+.6f}")
    print(f"  C3(b,b') = {third_correlation(cfg):+.6f}   (conditional construction)")
    print(f"  naive substitution would claim C(b,b') = {bell_correlation(cfg.b, cfg.bp):+.6f}")
    print(f"  third-pair P(+,+) = {ppp:.6f}   P(+,-) = {ppm:.6f}")
    print()

    print(f"{'inequality':<10} {'mode':<7} {'lhs':>9} {'rhs':>9} {'margin':>9}  verdict")
    for label, fn in (("bell", bell_margin), ("wigner", wigner_margin)):
        for mode in (Mode.PAPER, Mode.NAIVE):
            r = fn(cfg, mode)
            verdict = "satisfied" if r.satisfied else "VIOLATED"
            print(
                f"{label:<10} {mode.name:<7} {r.lhs:>9.6f} {r.rhs:>9.6f} "
                f"{r.margin:>+9.6f}  {verdict}"
            )
    print(f"wigner slack identity: 2*margin = {wigner_slack(cfg):.6f}")
    print()

    data = sample_dataset(cfg, args.n, make_rng(args.seed))
    matched = matched_pairs_estimate(cfg, args.n, make_rng(args.seed, stream=1))
    print(f"monte carlo at n={args.n}, seed={args.seed}")
    for label, x, y in (("C(a,b) ", data.a, data.b), ("C(a,b')", data.a, data.bp),
                        ("C(b,b')", data.b, data.bp)):
        # the exact correlation of two +-1 columns: their integer product sum over n
        print(f"  {label} estimate  {int((x * y).sum(dtype='int64')) / args.n:+.4f}")
    print(f"  matched-pairs     {matched:+.4f}")
    print(f"  exact data margin {data_bell_margin_3(data).margin:+.6f} (always >= 0)")
    print()

    census = violation_census(args.resolution, AngleConvention.SPIN)
    points = args.resolution**3
    print(f"violation census over {args.resolution}^3 = {points} grid points")
    for (kind, mode), count in census.items():
        tag = "bell" if kind is InequalityKind.CORR_BELL else "wigner"
        print(f"  {tag:<7} {mode.name:<6} violations: {count}")


if __name__ == "__main__":
    main()
