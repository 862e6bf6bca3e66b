"""Workload definitions and the expectations pinned at the seed commit.

Every workload runs all five command shapes (census sweep or records
sweep, simulate, convergence, check-data on triples, check-data on quads)
so that each reports every metric; the workload decides which of them is
heavy. Sizes were chosen so that one pass takes 6-9 s on a 2-CPU machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Witness angles (0, 2pi/3, pi/3): the CLI default for simulate and convergence.
WITNESS = (0.0, 2.0943951023931953, 1.0471975511965976)


@dataclass(frozen=True)
class SweepCall:
    kind: str  # "bell" or "wigner"
    mode: str  # "paper" or "naive"
    resolution: int
    out: str | None = None  # None: census only; "file": --out FILE; "stdout": --out -


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[SweepCall, ...]
    simulate_n: int
    triples_rows: int
    quads_rows: int
    n_list: tuple[int, ...]


_CENSUS_200 = tuple(
    SweepCall(kind, mode, 200) for kind in ("bell", "wigner") for mode in ("paper", "naive")
)
_SMALL_RECORDS = SweepCall("wigner", "naive", 12, "file")

WORKLOADS = {
    # Kernel and sampler: four R=200 census sweeps and a 10^7 convergence;
    # the file commands run at small sizes.
    "compute": Workload(
        name="compute",
        sweeps=_CENSUS_200 + (_SMALL_RECORDS,),
        simulate_n=10_000,
        triples_rows=10_000,
        quads_rows=2_000,
        n_list=(10_000, 100_000, 1_000_000, 10_000_000),
    ),
    # Record building and CSV writing: two R=60 record streams (216,000 rows
    # each), one to a file and one to stdout read by the benchmark.
    "records": Workload(
        name="records",
        sweeps=(
            SweepCall("wigner", "naive", 60, "file"),
            SweepCall("bell", "paper", 60, "stdout"),
        ),
        simulate_n=10_000,
        triples_rows=10_000,
        quads_rows=2_000,
        n_list=(1_000, 10_000, 100_000),
    ),
    # CSV write (simulate 10^6) and read (check-data on 10^6 triples and
    # 2x10^5 quads) side by side; the sweeps are small.
    "datafile": Workload(
        name="datafile",
        sweeps=(SweepCall("wigner", "naive", 60), _SMALL_RECORDS),
        simulate_n=1_000_000,
        triples_rows=1_000_000,
        quads_rows=200_000,
        n_list=(1_000, 10_000, 100_000),
    ),
}


def smoke(workload: Workload) -> Workload:
    """The same workload at tiny sizes: every sweep at R=12."""
    return replace(
        workload,
        sweeps=tuple(replace(call, resolution=12) for call in workload.sweeps),
        simulate_n=1_000,
        triples_rows=1_000,
        quads_rows=500,
        n_list=(100, 1_000),
    )


# Violations (margin < -1e-9, spin convention) per (kind, mode, resolution),
# as the seed commit counts them. PAPER mode never violates.
CENSUS = {
    ("bell", "naive", 12): 480,
    ("wigner", "naive", 12): 240,
    ("bell", "naive", 60): 97_440,
    ("wigner", "naive", 60): 48_720,
    ("bell", "naive", 200): 3_880_800,
    ("wigner", "naive", 200): 1_940_400,
}


def pinned_violations(kind: str, mode: str, resolution: int) -> int:
    if mode == "paper":
        return 0
    return CENSUS[(kind, mode, resolution)]


# sha256 of the full record CSV (header included) of `sweep --out`, spin
# convention, as the seed commit writes it. File and stdout variants match.
RECORDS_SHA256 = {
    ("bell", "paper", 12): "cf5da3f76b576dc3b5b6aa332f8c79ee5b4ad083dc406b96335500b86f6af0e6",
    ("wigner", "naive", 12): "f74cd6ea5050202a6e9b92d623b312764b4f33dfbe39a1bf7bad69edc245d37a",
    ("bell", "paper", 60): "fb4f2cc5a0aa4e16438ff0b671f277314ff909d8e7187ddac3e451ca17fb45bd",
    ("wigner", "naive", 60): "c88f6c5b6a7766cb8d514ce1aa1edc7fd6504893435289d0d13fd6f321fd6038",
}
