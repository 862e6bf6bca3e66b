"""Angle-grid evaluation of the inequality margins in both modes.

The grid is the half-open cube [0, 2pi)^3 at uniform spacing (a closed grid
would double-count the periodic boundary). Every margin depends on the
settings only through b - a and b' - a, so on this periodic grid the a-plane
at index ia is the a = 0 plane rolled by ia along both axes. The census is
an O(1) closed form (`violation_census`). Its min and argmin are those of
the float a = 0 plane, found from O(R) candidate points that the factorised
margins single out (`grid_sweep`). Record streams walk every plane row by
row: the per-setting terms once per plane, the NAIVE third-pair terms once
per row, each point's sides from those (`_record_rows`). Both compose the
steps that `analytic._margin_steps` gives for a kind and mode, in plain
floats: they hold O(R) floats at any resolution and load no numpy.

The margins are functions of grid differences, so a record stream repeats
its values heavily (an R=60 stream holds 3k-13k distinct floats in 648,000
cells). The CSV writer formats each distinct value once, through a cache
bounded at a fixed entry count; the bytes are those of one repr per cell.
Zeros are never cached, because 0.0 == -0.0 would give both the same text.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat, takewhile
from typing import IO, TYPE_CHECKING, Iterator

from .analytic import _margin_steps, half_angle_factor, sin2_cos2
from .core import AngleConfig, AngleConvention, InequalityKind, Mode, _value_type

if TYPE_CHECKING:
    import numpy as np

# Reported as the sweep summary's `violation_threshold` for compatibility;
# the census is exact and compares no margin with it.
VIOLATION_THRESHOLD = 1e-9

SWEEP_CSV_COLUMNS = ("a", "b", "bp", "kind", "mode", "lhs", "rhs", "margin")

# Entries kept by the record writer's float-to-text cache before it is
# cleared whole. 2^13 holds most of an R=60 stream's distinct values for
# about 1 MB; at larger resolutions the cache thrashes but stays bounded.
_TEXT_CACHE_LIMIT = 1 << 13

# Rounding allowance delta of grid_sweep's candidate set; its docstring
# derives it.
_ALLOWANCE = 1e-13


@_value_type
class SweepResult:
    """One grid sweep: its size, the minimum margin and where it lies, and the violation count."""

    kind: InequalityKind
    mode: Mode
    convention: AngleConvention
    resolution: int
    n_points: int
    min_margin: float
    argmin: AngleConfig
    violations: int


def grid_angles(resolution: int) -> np.ndarray:
    """Uniform half-open grid over [0, 2pi) with `resolution` points: i * (2pi / R)."""
    import numpy as np

    return np.array(_grid_floats(resolution))


def _floats(resolution: int) -> array:
    """`resolution` zero floats in one array('d'); MemoryError at once if too many."""
    try:
        return array("d", [0.0]) * resolution
    except MemoryError:
        raise MemoryError(f"resolution {resolution} needs {8 * resolution:,} bytes") from None


def _grid_floats(resolution: int) -> array:
    """The grid angles i * (2pi / R) as plain floats, without numpy."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    angles = _floats(resolution)
    step = 2.0 * math.pi / resolution
    for i in range(resolution):
        angles[i] = i * step
    return angles


def grid_sweep(
    resolution: int,
    convention: AngleConvention,
    kind: InequalityKind,
    mode: Mode,
) -> SweepResult:
    """Evaluate one margin over the grid; returns min, argmin and violation count.

    Each margin is a function of (b - a, b' - a), so every a-plane holds the
    margins of the a = 0 plane, rolled; the minimum is the a = 0 minimum
    and the count is `violation_census`'s exact one. `argmin` is the a = 0
    representative of the minimizing configurations, which are defined up
    to a common translation of (a, b, b'): the first minimum of the float
    a = 0 plane in (b, b') order, as np.argmin gives it.

    Only O(R) candidate points of that plane are evaluated, through the
    kernel's steps (`_margin_steps`) in plain floats and without numpy.
    With u = kx, v = ky the grid angles of b and b' scaled by k, the exact
    margins factorise:

    - NAIVE Wigner W(u, v) = -cos u sin(u - v) sin v
      = (1/2) cos^2 u - (1/2) cos u cos(u - 2v), so every point of row u
      is at least L(u) = (1/2)|cos u|(|cos u| - 1). Rows are visited in
      increasing L, and the visit stops at the first row whose L exceeds
      the least margin found so far plus the allowance delta.
    - PAPER Wigner W(u, v) = cos^2 u sin^2 v >= 0, while the point (0, 0)
      evaluates to 0.0 exactly. So only points with cos^2 u sin^2 v at
      or below delta can round to the minimum: in each row, a prefix of
      the columns sorted by sin^2 v.
    - Bell is 4 min(W(u, v), W(v, u)) in both modes, so it takes the
      Wigner candidates and their transposes: every NAIVE row whose 4 L
      passes, with the column of the same index, and the transposed
      PAPER points.

    Rounding. Let e = 2^-53 and let every sine and cosine lie within t of
    its true value at its float argument (b - b' rounds by at most
    2 pi e; scaling by k or 2k is exact). To first order a computed margin
    is then within 6t + 21e of the exact margin at the same float angles,
    4 L within 2t + 3e of its value and cos^2 u sin^2 v within 4t + 3e.
    A point left out is therefore strictly above the minimum as long as
    delta >= 10t + 24e (PAPER Wigner needs the most: the product's error
    plus the margin's), and delta = 1e-13 holds that for any t up to
    2^-47, 32 units in the last place of 1; a correctly rounded sine is
    within 2^-53. Ties are kept in (b, b') order, so the first minimum
    wins wherever it is visited.

    The row bounds, or sin^2 v by column, fill one array of R floats that
    is allocated before any loop, so a resolution too large for memory
    raises MemoryError at once.
    """
    term, third, sides = _margin_steps(kind, mode)
    violations = violation_census(resolution, convention)[(kind, mode)]
    k = half_angle_factor(convention)
    step = 2.0 * math.pi / resolution
    bell = kind is InequalityKind.CORR_BELL
    work = _floats(resolution)
    best, at = math.inf, 0

    def visit(points):
        nonlocal best, at
        for ib, ibp in points:
            b, bp = ib * step, ibp * step
            lhs, rhs = sides(term(math, k, b), term(math, k, bp), third and third(math, k, b - bp))
            margin = rhs - lhs
            if margin <= best:
                flat = ib * resolution + ibp
                if margin < best or flat < at:
                    best, at = margin, flat

    lines = range(resolution)
    if mode is Mode.NAIVE:
        scale = 4.0 if bell else 1.0
        for i in lines:
            c = abs(math.cos(k * (i * step)))
            work[i] = scale * (0.5 * c * (c - 1.0))
        for i in sorted(lines, key=work.__getitem__):
            if work[i] > best + _ALLOWANCE:
                break
            visit((i, j) for j in lines)
            if bell:
                visit((j, i) for j in lines)
    else:
        for j in lines:
            work[j] = sin2_cos2(k, j * step)[0]
        columns = sorted(lines, key=work.__getitem__)
        for i in lines:
            c2 = sin2_cos2(k, i * step)[1]
            prefix = list(takewhile(lambda j: c2 * work[j] <= _ALLOWANCE, columns))
            visit((i, j) for j in prefix)
            if bell:
                visit((j, i) for j in prefix)
    ib, ibp = divmod(at, resolution)
    return SweepResult(
        kind=kind,
        mode=mode,
        convention=convention,
        resolution=resolution,
        n_points=resolution**3,
        min_margin=float(best),
        argmin=AngleConfig(0.0, ib * step, ibp * step, convention),
        violations=violations,
    )


def _record_rows(
    resolution: int,
    convention: AngleConvention,
    kind: InequalityKind,
    mode: Mode,
) -> tuple[array, Iterator[tuple[int, int, list[tuple[float, float]]]]]:
    """(angles, rows), checked and allocated first; a row is (ia, ib, (lhs, rhs) of each bp).

    The rows compose `_margin_steps` in plain floats: once per a-plane the
    term of each grid angle x at x - a, which serves as the term of b and of
    bp; in NAIVE mode once per b-row the third-pair term of each b - bp;
    then each point's (lhs, rhs). Only O(R) floats are alive.
    """
    angles = _grid_floats(resolution)
    k = half_angle_factor(convention)
    term, third, sides = _margin_steps(kind, mode)

    def rows():
        for ia, a in enumerate(angles):
            terms = [term(math, k, x - a) for x in angles]
            for ib, b in enumerate(angles):
                thirds = [third(math, k, b - bp) for bp in angles] if third else repeat(None)
                yield ia, ib, list(map(sides, repeat(terms[ib]), terms, thirds))

    return angles, rows()


def iter_records(
    resolution: int,
    convention: AngleConvention,
    kind: InequalityKind,
    mode: Mode,
) -> Iterator[tuple[float, float, float, float, float, float]]:
    """Stream every grid point as (a, b, bp, lhs, rhs, margin), in (a, b, bp) index order."""
    angles, rows = _record_rows(resolution, convention, kind, mode)
    for ia, ib, row in rows:
        a, b = angles[ia], angles[ib]
        for bp, (lhs, rhs) in zip(angles, row):
            yield a, b, bp, lhs, rhs, rhs - lhs


def _float_text():
    """(get, miss) such that `get(x) or miss(x)` is repr(x).

    miss formats x and stores it, clearing the cache whole once it holds
    _TEXT_CACHE_LIMIT entries. Zeros are never stored: 0.0 == -0.0, so one
    key would give both the same text.
    """
    cache: dict[float, str] = {}
    limit = _TEXT_CACHE_LIMIT

    def miss(x: float) -> str:
        text = repr(x)
        if x:
            if len(cache) >= limit:
                cache.clear()
            cache[x] = text
        return text

    return cache.get, miss


def write_records_csv(
    out: IO[str],
    resolution: int,
    convention: AngleConvention,
    kind: InequalityKind,
    mode: Mode,
) -> int:
    """Stream all grid records to `out` as CSV; returns the row count.

    Floats are written by repr, as the csv module writes them, so every
    value round-trips. Each distinct value is formatted once, through a
    cache of at most _TEXT_CACHE_LIMIT entries that is cleared whole when
    full (`_float_text`); the bytes are those of one repr per cell. Zeros
    are never cached, since 0.0 == -0.0 would give -0.0 the text of 0.0.
    The arguments are checked, and the angle table allocated, before
    anything is written. `out` is flushed at the end; if its reader closes
    it first, the BrokenPipeError says how many records were written.
    """
    grid, rows = _record_rows(resolution, convention, kind, mode)
    angles = [repr(x) for x in grid]
    tails = [f"{bp},{kind.name},{mode.name}," for bp in angles]
    get, miss = _float_text()
    written = 0
    try:
        out.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
        for ia, ib, row in rows:
            pre = f"{angles[ia]},{angles[ib]},"
            out.write("".join([
                f"{pre}{tail}{get(left) or miss(left)},{get(right) or miss(right)},"
                f"{get(gap) or miss(gap)}\n"
                for tail, (left, right) in zip(tails, row)
                for gap in (right - left,)
            ]))
            written += resolution
        out.flush()
    except BrokenPipeError:
        raise BrokenPipeError(f"output closed after {written} records") from None
    return resolution**3


def violation_census(
    resolution: int, convention: AngleConvention
) -> dict[tuple[InequalityKind, Mode], int]:
    """Violation counts over the R^3 grid for each inequality kind and mode, exactly.

    No margin is evaluated. With x = b - a and y = b' - a, the NAIVE Wigner
    margin is -sin(k(x - y)) cos(kx) sin(ky), so a point violates exactly
    when the three factor signs multiply to +1. On the grid x = 2 pi i / R,
    y = 2 pi j / R, each sign depends only on the indices (i, j):

    - SPIN (k = 1/2): the factors are sin(pi (i - j) / R), cos(pi i / R) and
      sin(pi j / R). The last is positive for every j > 0, and the first is
      positive for j < i and negative for j > i. So row i > 0 holds i - 1
      violations (j = 1..i-1) when 2i < R, R - 1 - i (j = i+1..R-1) when
      2i > R, and none when 2i = R; row 0 holds none. The rows sum to
      m(m - 1) with m = (R - 1) // 2.
    - OPTICAL (k = 1) at odd R: the point (i, j) has the signs of the SPIN
      point (2i mod R, 2j mod R) with an even number of them flipped, and
      that relabelling is one-to-one, so the count is the same.
    - OPTICAL at even R: moving i or j by R/2 flips two factor signs, so the
      plane is four copies of the SPIN plane at R/2.

    Every a-plane is the a = 0 plane rolled, so the Wigner count is R times
    the plane's. The NAIVE Bell margin is 4 min(W(x, y), W(y, x)), so the
    Bell violations are the Wigner set V joined with its transpose. In the
    SPIN plane V lies in j < i < R/2 and R/2 < i < j, its transpose in
    i < j < R/2 and R/2 < j < i; both relabellings treat i and j alike. So
    the two are disjoint and Bell counts twice Wigner.
    The PAPER Wigner margin is cos^2(kx) sin^2(ky), and the PAPER Bell
    margin 4 min(W(x, y), W(y, x)), so PAPER never violates.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    half_angle_factor(convention)  # raises on a bad convention
    copies = 2 if convention is AngleConvention.OPTICAL and resolution % 2 == 0 else 1
    m = (resolution // copies - 1) // 2
    wigner = resolution * copies**2 * m * (m - 1)
    return {
        (InequalityKind.CORR_BELL, Mode.PAPER): 0,
        (InequalityKind.CORR_BELL, Mode.NAIVE): 2 * wigner,
        (InequalityKind.WIGNER, Mode.PAPER): 0,
        (InequalityKind.WIGNER, Mode.NAIVE): wigner,
    }
