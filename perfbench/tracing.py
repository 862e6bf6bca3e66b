"""Traced run: each module's public functions called in-process on the
workload's inputs, with a span around every call.

Spans are recorded from the benchmark's side of each call; the program
itself is not instrumented. A command span (``cmd.<command>``) wraps the
layer calls that the CLI command makes, so its self time is the in-process
glue. Probe spans time a layer on its own where no command exposes it:
one analytic plane per sweep call, ``iter_records`` without the writer,
and the validating ``DataSetTriple`` construction.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from bellwigner.analytic import bell_margin_parts, half_angle_factor, wigner_margin_parts
from bellwigner.cli import read_outcome_csv, write_triples_csv
from bellwigner.core import AngleConfig, AngleConvention, DataSetTriple, InequalityKind, Mode
from bellwigner.data_inequality import data_bell_margin_3, data_bell_margin_4
from bellwigner.sampler import convergence_study, make_rng, sample_dataset
from bellwigner.sweep import grid_angles, grid_sweep, iter_records, write_records_csv

import oracles
from workloads import RECORDS_SHA256, WITNESS, Workload

SPIN = AngleConvention.SPIN
_KINDS = {"bell": InequalityKind.CORR_BELL, "wigner": InequalityKind.WIGNER}
_PARTS = {"bell": bell_margin_parts, "wigner": wigner_margin_parts}
# Each probe plane is evaluated this many times and its median kept: one
# cold evaluation is slower than the warm ones inside a sweep.
PLANE_REPEATS = 5

# Per-layer metric -> span name whose durations it sums over a pass.
SPAN_SUMS = {
    "sweep.grid_sweep_s": "sweep.grid_sweep",
    "sweep.iter_records_s": "sweep.iter_records",
    "sweep.write_records_s": "sweep.write_records_csv",
    "sampler.sample_dataset_s": "sampler.sample_dataset",
    "sampler.convergence_study_s": "sampler.convergence_study",
    "data_inequality.margin3_s": "data_inequality.data_bell_margin_3",
    "data_inequality.margin4_s": "data_inequality.data_bell_margin_4",
    "core.dataset_triple_s": "core.DataSetTriple",
    "cli.read_triples_s": "cli.read_outcome_csv:triples",
    "cli.read_quads_s": "cli.read_outcome_csv:quads",
    "cli.write_triples_s": "cli.write_triples_csv",
}


class Tracer:
    """Spans kept in memory: id, name, start, end, parent, workload, pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.pass_no: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "pass": self.pass_no,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead."""

    pass_no = None

    def span(self, name: str):
        return contextlib.nullcontext()


def inprocess_pass(run, wl: Workload, inputs: dict, tracer) -> dict:
    """One pass of the workload's calls; returns the work counts of the pass."""
    counts = defaultdict(int)
    span = tracer.span
    records_path = run.workdir / "records_inprocess.csv"
    for call in wl.sweeps:
        kind, mode = _KINDS[call.kind], Mode(call.mode)
        with span("cmd.sweep"):
            with span("sweep.grid_sweep"):
                result = grid_sweep(call.resolution, SPIN, kind, mode)
            if call.out:
                records_path.unlink(missing_ok=True)
                with open(records_path, "w", newline="") as fh:
                    with span("sweep.write_records_csv"):
                        rows = write_records_csv(fh, call.resolution, SPIN, kind, mode)
        counts["sweep.points"] += result.n_points
        run.verify(
            f"in-process grid_sweep {call}",
            oracles.check_census,
            call.kind,
            call.mode,
            call.resolution,
            result.violations,
            result.min_margin,
            (result.argmin.a, result.argmin.b, result.argmin.bp),
        )
        if call.out:
            counts["sweep.records"] += rows
            counts["sweep.bytes_out"] += records_path.stat().st_size
            pinned = RECORDS_SHA256[(call.kind, call.mode, call.resolution)]
            run.verify(
                f"in-process write_records_csv {call}",
                lambda: oracles.expect(oracles.sha256_file(records_path) == pinned, "records sha256"),
            )

    cfg = AngleConfig(*WITNESS)
    simulated = run.workdir / "simulated_inprocess.csv"
    simulated.unlink(missing_ok=True)
    with span("cmd.simulate"):
        rng = make_rng(run.seed)
        with span("sampler.sample_dataset"):
            data = sample_dataset(cfg, wl.simulate_n, rng)
        with span("cli.write_triples_csv"):
            write_triples_csv(str(simulated), data)
        with span("data_inequality.data_bell_margin_3"):
            report = data_bell_margin_3(data)
    counts["sampler.trials"] += wl.simulate_n

    def check_simulate():
        values = np.column_stack((data.a, data.b, data.bp))
        oracles.check_exact_report(report.as_dict(), "DATA_BELL_3", oracles.triple_sums(values))
        oracles.expect(oracles.sha256_file(simulated) == run.simulate_sha, "differs from the CLI's file")

    run.verify("in-process simulate", check_simulate)

    with span("cmd.convergence"):
        with span("sampler.convergence_study"):
            records = convergence_study(cfg, list(wl.n_list), run.seed)
    counts["sampler.trials"] += sum(wl.n_list)
    rows = [(r.n_samples, r.estimate, r.analytic, r.std_error, r.seed) for r in records]
    run.verify("in-process convergence", oracles.check_convergence_rows, rows, wl.n_list, run.seed)

    with span("cmd.check_triples"):
        with span("cli.read_outcome_csv:triples"):
            triples = read_outcome_csv(str(inputs["triples_path"]))
        with span("data_inequality.data_bell_margin_3"):
            report3 = data_bell_margin_3(triples)
    run.verify(
        "in-process check triples",
        oracles.check_exact_report,
        report3.as_dict(),
        "DATA_BELL_3",
        oracles.triple_sums(inputs["triples"]),
    )
    with span("cmd.check_quads"):
        with span("cli.read_outcome_csv:quads"):
            quads = read_outcome_csv(str(inputs["quads_path"]))
        with span("data_inequality.data_bell_margin_4"):
            report4 = data_bell_margin_4(quads)
    run.verify(
        "in-process check quads",
        oracles.check_exact_report,
        report4.as_dict(),
        "DATA_BELL_4",
        oracles.quad_sums(inputs["quads"]),
    )
    counts["cli.bytes_in"] += inputs["triples_path"].stat().st_size
    counts["cli.bytes_in"] += inputs["quads_path"].stat().st_size
    del triples, quads

    # Probes: one layer on its own, outside any command.
    k = half_angle_factor(SPIN)
    for call in wl.sweeps:
        angles = grid_angles(call.resolution)
        b, bp = np.meshgrid(angles, angles, indexing="ij")
        for _ in range(PLANE_REPEATS):
            with span(f"analytic.{call.kind}_margin_parts"):
                lhs, rhs = _PARTS[call.kind](angles[0], b, bp, k, Mode(call.mode))
        counts["analytic.points"] += lhs.size
        counts["analytic.bytes_computed"] += lhs.nbytes + rhs.nbytes
    for call in wl.sweeps:
        if call.out:
            kind, mode = _KINDS[call.kind], Mode(call.mode)
            with span("sweep.iter_records"):
                n = sum(1 for _ in iter_records(call.resolution, SPIN, kind, mode))
            run.verify(
                f"in-process iter_records {call}",
                lambda: oracles.expect(n == call.resolution**3, f"{n} records"),
            )
    columns = [np.ascontiguousarray(inputs["triples"][:, i]) for i in range(3)]
    with span("core.DataSetTriple"):
        dataset = DataSetTriple(*columns)
    run.verify(
        "in-process DataSetTriple",
        lambda: oracles.expect(dataset.n == wl.triples_rows, f"n={dataset.n}"),
    )
    return counts


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the time its child spans cover."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _duration(s)
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += _duration(s) - children[s["id"]]
    return dict(totals)


def pass_layer_metrics(spans: list[dict], wl: Workload) -> dict[str, float]:
    """Per-layer times of one traced pass, plus the layer time inside each command.

    `analytic.plane_s` sums, over the sweep calls, the median time of one
    plane; `sweep.self_s` is what the sweep spends beyond R such planes.
    """
    by_name = defaultdict(float)
    for s in spans:
        by_name[s["name"]] += _duration(s)
    metrics = {metric: by_name[name] for metric, name in SPAN_SUMS.items()}
    evaluations = [_duration(s) for s in spans if s["name"].startswith("analytic.")]
    planes = [
        statistics.median(evaluations[i : i + PLANE_REPEATS])
        for i in range(0, len(evaluations), PLANE_REPEATS)
    ]
    metrics["analytic.plane_s"] = sum(planes)
    metrics["sweep.self_s"] = metrics["sweep.grid_sweep_s"] - sum(
        call.resolution * plane for call, plane in zip(wl.sweeps, planes)
    )
    commands = {s["id"]: s["name"][len("cmd.") :] for s in spans if s["name"].startswith("cmd.")}
    for command in set(commands.values()):
        metrics[f"layers.{command}_s"] = 0.0
    for s in spans:
        if s["parent"] in commands:
            metrics[f"layers.{commands[s['parent']]}_s"] += _duration(s)
    return metrics


def read_peak_mb(path: Path) -> float:
    """Peak traced Python allocation of one read_outcome_csv call, in MB."""
    tracemalloc.start()
    try:
        read_outcome_csv(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
