"""Output checks that do not depend on the code under test.

Sweep margins are recomputed here from closed forms written independently
of ``bellwigner.analytic`` (cosines only, spin convention), data-file
margins from integer sums over the arrays the benchmark generated, and the
simulate file is re-read with numpy. Every check raises ``OracleError`` on
a mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from workloads import WITNESS, pinned_violations

MARGIN_TOL = 1e-12
GRID_TOL = 1e-9
SIGMA_LIMIT = 6.0
CONVERGENCE_COLUMNS = ["n_samples", "estimate", "analytic", "abs_error", "std_error", "seed"]
_KIND_NAMES = {"bell": "CORR_BELL", "wigner": "WIGNER"}


class OracleError(AssertionError):
    """A program output disagreed with the benchmark's expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def margin(kind: str, mode: str, a, b, bp):
    """rhs - lhs with x = cos(b-a), y = cos(b'-a); broadcasts over arrays.

    Bell: |y - x| <= 1 - xy (PAPER) or 1 - cos(b-b') (NAIVE). Wigner, via
    sin^2(t/2) = (1 - cos t)/2: (y - x)/4 <= (1 - xy)/4 or (1 - cos(b-b'))/4.
    """
    x = np.cos(b - a)
    y = np.cos(bp - a)
    third = 1.0 - x * y if mode == "paper" else 1.0 - np.cos(b - bp)
    if kind == "bell":
        return third - np.abs(y - x)
    return (third - (y - x)) / 4.0


def plane_margins(kind: str, mode: str, resolution: int) -> np.ndarray:
    """Margins of the a = 0 plane. Every margin depends on (b-a, b'-a) only,
    so on the periodic grid each a-plane is this plane rolled."""
    angles = np.arange(resolution) * (2.0 * math.pi / resolution)
    b, bp = np.meshgrid(angles, angles, indexing="ij")
    return margin(kind, mode, 0.0, b, bp)


def census_from_plane(kind: str, mode: str, resolution: int) -> tuple[int, float]:
    plane = plane_margins(kind, mode, resolution)
    return resolution * int((plane < -1e-9).sum()), float(plane.min())


def check_census(kind, mode, resolution, violations, min_margin, argmin) -> None:
    """Pinned violation count; min margin and argmin against the closed forms."""
    expected = pinned_violations(kind, mode, resolution)
    expect(violations == expected, f"violations {violations} != pinned {expected}")
    oracle_min = float(plane_margins(kind, mode, resolution).min())
    expect(
        abs(min_margin - oracle_min) <= MARGIN_TOL,
        f"min_margin {min_margin!r} != closed form {oracle_min!r}",
    )
    step = 2.0 * math.pi / resolution
    for name, value in zip(("a", "b", "bp"), argmin):
        index = round(value / step)
        expect(
            0 <= index < resolution and abs(value - index * step) <= GRID_TOL,
            f"argmin {name}={value!r} is not a grid point",
        )
    at_argmin = float(margin(kind, mode, *argmin))
    expect(
        abs(at_argmin - min_margin) <= MARGIN_TOL,
        f"margin at argmin {at_argmin!r} != min_margin {min_margin!r}",
    )


def check_sweep_summary(call, returncode, summary, rows_written) -> None:
    """A `sweep` JSON summary: exit code, identity fields and census."""
    violations = pinned_violations(call.kind, call.mode, call.resolution)
    expect(returncode == (1 if violations else 0), f"exit code {returncode}")
    expect(summary["command"] == "sweep", "command field")
    expect(summary["kind"] == _KIND_NAMES[call.kind], f"kind {summary['kind']}")
    expect(summary["mode"] == call.mode.upper(), f"mode {summary['mode']}")
    expect(summary["resolution"] == call.resolution, "resolution field")
    expect(summary["n_points"] == call.resolution**3, f"n_points {summary['n_points']}")
    expect(summary["records_written"] == rows_written, f"records_written {summary['records_written']}")
    argmin = summary["argmin"]
    check_census(
        call.kind,
        call.mode,
        call.resolution,
        summary["violations"],
        summary["min_margin"],
        (argmin["a"], argmin["b"], argmin["bp"]),
    )


def triple_sums(values: np.ndarray) -> tuple[int, int, int]:
    """(lhs, rhs, N) of the three-set inequality, lhs and rhs scaled by N."""
    v = values.astype(np.int64)
    sab = int((v[:, 0] * v[:, 1]).sum())
    sabp = int((v[:, 0] * v[:, 2]).sum())
    sbbp = int((v[:, 1] * v[:, 2]).sum())
    n = values.shape[0]
    return abs(sab - sabp), n - sbbp, n


def quad_sums(values: np.ndarray) -> tuple[int, int, int]:
    """(lhs, rhs, N) of the four-set inequality for columns a, ap, b, bp, scaled by N."""
    a, ap, b, bp = values.astype(np.int64).T
    total = int((a * b + a * bp + ap * b - ap * bp).sum())
    n = values.shape[0]
    return abs(total), 2 * n, n


def check_exact_report(report: dict, kind: str, sums: tuple[int, int, int]) -> None:
    """lhs/rhs/margin equal, exactly, the single-rounded integer quotients."""
    lhs, rhs, n = sums
    expect(report["kind"] == kind, f"kind {report['kind']}")
    expect(report["mode"] == "EXACT_DATA", f"mode {report['mode']}")
    expect(report["lhs"] == lhs / n, f"lhs {report['lhs']!r} != {lhs}/{n}")
    expect(report["rhs"] == rhs / n, f"rhs {report['rhs']!r} != {rhs}/{n}")
    expect(report["margin"] == (rhs - lhs) / n, f"margin {report['margin']!r} != {rhs - lhs}/{n}")
    expect(report["satisfied"] is True and report["tolerance"] == 0.0, "satisfied/tolerance")


def check_data_payload(returncode, payload, shape, values) -> None:
    expect(returncode == 0, f"exit code {returncode}")
    expect(payload["command"] == "check-data", "command field")
    expect(payload["n"] == values.shape[0], f"n {payload['n']} != {values.shape[0]}")
    if shape == "triples":
        check_exact_report(payload, "DATA_BELL_3", triple_sums(values))
    else:
        check_exact_report(payload, "DATA_BELL_4", quad_sums(values))


def read_simulate_file(data: bytes, n: int) -> np.ndarray:
    """Re-read a simulate CSV with numpy: header, then n rows of +1/-1 cells."""
    header = b"a,b,bp\n"
    expect(data.startswith(header), "simulate file header")
    body = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    expect(body.size == 9 * n, f"simulate file has {body.size} body bytes, expected {9 * n}")
    rows = body.reshape(n, 9)
    signs = rows[:, [0, 3, 6]]
    expect(bool((rows[:, [1, 4, 7]] == ord("1")).all()), "simulate cells are not +-1")
    expect(bool(np.isin(signs, (ord("+"), ord("-"))).all()), "simulate cells are not +-1")
    expect(bool((rows[:, [2, 5]] == ord(",")).all()), "simulate separators")
    expect(bool((rows[:, 8] == ord("\n")).all()), "simulate line ends")
    return np.where(signs == ord("+"), 1, -1).astype(np.int8)


def check_simulate(returncode, summary, data: bytes, n: int, seed: int) -> None:
    expect(returncode == 0, f"exit code {returncode}")
    expect(summary["command"] == "simulate", "command field")
    expect(summary["n"] == n and summary["seed"] == seed, "n/seed fields")
    values = read_simulate_file(data, n)
    check_exact_report(summary["data_inequality"], "DATA_BELL_3", triple_sums(values))
    v = values.astype(np.int64)
    expect(summary["estimates"]["c_ab"] == int((v[:, 0] * v[:, 1]).sum()) / n, "c_ab estimate")


def third_correlation() -> float:
    a, b, bp = WITNESS
    return math.cos(b - a) * math.cos(bp - a)


def check_convergence_rows(rows, n_list, seed) -> None:
    """Rows of (n_samples, estimate, analytic, std_error, seed)."""
    expect(len(rows) == len(n_list), f"{len(rows)} records, expected {len(n_list)}")
    target = third_correlation()
    for (n, estimate, analytic, std_error, row_seed), expected_n in zip(rows, n_list):
        expect(n == expected_n and row_seed == seed, f"record n={n} seed={row_seed}")
        expect(abs(analytic - target) <= MARGIN_TOL, f"analytic {analytic!r} != {target!r}")
        expect(
            abs(estimate - analytic) <= SIGMA_LIMIT * std_error,
            f"n={n}: |{estimate!r} - {analytic!r}| > {SIGMA_LIMIT} x {std_error!r}",
        )


def check_convergence_csv(returncode, text: str, n_list, seed) -> None:
    expect(returncode == 0, f"exit code {returncode}")
    reader = csv.reader(io.StringIO(text))
    expect(next(reader) == CONVERGENCE_COLUMNS, "convergence header")
    rows = [
        (int(r[0]), float(r[1]), float(r[2]), float(r[4]), int(r[5])) for r in reader if r
    ]
    check_convergence_rows(rows, n_list, seed)
