"""Self-tests of the oracles and the input generator, run by --smoke.

Each oracle must accept a known-good output and reject a tampered one, so
that a benchmark run with zero failures means the checks were live.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles
from inputs import MINUS_SPELLINGS, PLUS_SPELLINGS, outcomes, render_rows
from workloads import CENSUS


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except oracles.OracleError:
        return True
    return False


def _census_pins_match_closed_forms() -> bool:
    keys = set(CENSUS) | {(k, "paper", r) for k in ("bell", "wigner") for r in (12, 60, 200)}
    return all(
        oracles.census_from_plane(kind, mode, r)[0] == oracles.pinned_violations(kind, mode, r)
        for kind, mode, r in keys
    )


def _census_rejects_tampering() -> bool:
    count, low = oracles.census_from_plane("wigner", "naive", 12)
    step = 2 * math.pi / 12
    plane = oracles.plane_margins("wigner", "naive", 12)
    ib, ibp = np.unravel_index(int(np.argmin(plane)), plane.shape)
    argmin = (3 * step, (ib + 3) % 12 * step, (ibp + 3) % 12 * step)  # a translated copy
    good = ("wigner", "naive", 12, count, low, argmin)
    oracles.check_census(*good)
    return (
        _rejects(oracles.check_census, *good[:3], count + 1, low, argmin)
        and _rejects(oracles.check_census, *good[:4], low + 1e-9, argmin)
        and _rejects(oracles.check_census, *good[:5], (argmin[0] + step / 2, *argmin[1:]))
        and _rejects(oracles.check_census, *good[:5], (0.0, 0.0, 0.0))
    )


def _simulate_reader() -> bool:
    values, _ = outcomes(7, 0, 50, 3)
    text = "a,b,bp\n" + "".join(
        ",".join("+1" if v == 1 else "-1" for v in row) + "\n" for row in values
    )
    data = text.encode()
    if not np.array_equal(oracles.read_simulate_file(data, 50), values):
        return False
    broken = data.replace(b"+1", b"+0", 1)
    return _rejects(oracles.read_simulate_file, broken, 50) and _rejects(
        oracles.read_simulate_file, data, 49
    )


def _exact_report() -> bool:
    values, _ = outcomes(7, 0, 101, 3)
    lhs, rhs, n = oracles.triple_sums(values)
    report = {
        "kind": "DATA_BELL_3",
        "mode": "EXACT_DATA",
        "lhs": lhs / n,
        "rhs": rhs / n,
        "margin": (rhs - lhs) / n,
        "satisfied": True,
        "tolerance": 0.0,
    }
    oracles.check_exact_report(report, "DATA_BELL_3", (lhs, rhs, n))
    nudged = dict(report, lhs=math.nextafter(report["lhs"], 2.0))
    return _rejects(oracles.check_exact_report, nudged, "DATA_BELL_3", (lhs, rhs, n))


def _convergence() -> bool:
    target = oracles.third_correlation()
    se = math.sqrt((1 - target**2) / 1000)
    good = [(1000, target + 5 * se, target, se, 3)]
    oracles.check_convergence_rows(good, (1000,), 3)
    far = [(1000, target + 7 * se, target, se, 3)]
    return _rejects(oracles.check_convergence_rows, far, (1000,), 3) and _rejects(
        oracles.check_convergence_rows, good, (1000, 2000), 3
    )


def _generator() -> bool:
    values, rng = outcomes(5, 0, 2000, 3)
    body = render_rows(values, rng)
    cells = [line.split(b",") for line in body.splitlines()]
    parsed = np.array([[1 if c.strip() in (b"+1", b"1") else -1 for c in row] for row in cells])
    if not np.array_equal(parsed, values):
        return False
    flat = [c for row in cells for c in row]
    for spellings, sign in ((PLUS_SPELLINGS, 1), (MINUS_SPELLINGS, -1)):
        total = int((values == sign).sum())
        for spelling, share in spellings[1:]:
            if flat.count(spelling) != int(total * share):
                return False
    again, rng2 = outcomes(5, 0, 2000, 3)
    other, rng3 = outcomes(6, 0, 2000, 3)
    return render_rows(again, rng2) == body and render_rows(other, rng3) != body


def run_all() -> int:
    """Run every self-test; return the number that failed."""
    failures = 0
    for test in (
        _census_pins_match_closed_forms,
        _census_rejects_tampering,
        _simulate_reader,
        _exact_report,
        _convergence,
        _generator,
    ):
        if not test():
            failures += 1
            print(f"FAILED self-test {test.__name__}", file=sys.stderr)
    return failures
