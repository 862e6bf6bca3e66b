#!/usr/bin/env python3
"""Benchmark of the bellwigner command line.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is taken from ./src.
With --trace 0 the real CLI (`python -m bellwigner`) runs as a subprocess,
one child at a time: a closed loop with one client. Each command's wall
time, and its peak RSS from os.wait4, is recorded, and every output is
checked by an oracle that does not use the code under test. With --trace 1
the same subprocess passes run for a share of the time, then each module's
public functions are called in-process on the same inputs with a span
around every call (see tracing.py), and per-layer metrics are printed
instead. The last line of stdout is the result as one JSON object; the line
before it is the run manifest. --smoke runs every workload at tiny sizes,
every oracle and the traced run, and exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# The package and the modules that import it are loaded from the checkout.
sys.path.insert(0, str(SRC))
try:
    import bellwigner
    import numpy
    import oracles
    import selftest
    import tracing
    from inputs import write_inputs
    from workloads import RECORDS_SHA256, WORKLOADS, smoke
except ModuleNotFoundError as exc:
    if exc.name != "bellwigner":
        raise
    print(f"error: no bellwigner package under {SRC}", file=sys.stderr)
    sys.exit(2)

CHILD_TIMEOUT_S = 150
SETUP_LAUNCHES = 2  # before the first pass; each pass adds two more
MIN_PASSES = 3
TRACE_E2E_SHARE = 0.45  # share of --seconds the traced run spends on subprocess passes

COMMANDS = ("sweep", "simulate", "convergence", "check_triples", "check_quads")
E2E_UNITS = {"setup_s": "s"}
E2E_UNITS.update({f"{c}_s": "s" for c in COMMANDS})
E2E_UNITS.update({f"{c}_rss_mb": "MB" for c in COMMANDS})
LAYER_UNITS = {
    "analytic.plane_s": "s",
    "analytic.points": "count",
    "analytic.bytes_computed": "bytes",
    "sweep.grid_sweep_s": "s",
    "sweep.self_s": "s",
    "sweep.points": "count",
    "sweep.iter_records_s": "s",
    "sweep.write_records_s": "s",
    "sweep.records": "count",
    "sweep.bytes_out": "bytes",
    "sampler.sample_dataset_s": "s",
    "sampler.convergence_study_s": "s",
    "sampler.trials": "count",
    "data_inequality.margin3_s": "s",
    "data_inequality.margin4_s": "s",
    "core.dataset_triple_s": "s",
    "cli.import_s": "s",
    "cli.read_triples_s": "s",
    "cli.read_quads_s": "s",
    "cli.read_peak_mb": "MB",
    "cli.bytes_in": "bytes",
    "cli.write_triples_s": "s",
    **{f"unaccounted.{c}_s": "s" for c in COMMANDS},
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    stdout_sha256: str | None


def child_env() -> dict:
    env = dict(os.environ)
    # an inherited value would switch on the sweep process pool mid-measurement
    env.pop("BELLWIGNER_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], workdir: Path, env: dict, stream_stdout: bool = False) -> Child:
    """Run one child to completion through launch.py, which times it from
    spawn to reaping and reads its peak RSS from os.wait4.

    With `stream_stdout` the benchmark reads and hashes stdout as it comes,
    as a consumer of `--out -` would; otherwise stdout goes to a file.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    result_path = workdir / "child.result"
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(result_path)]
    digest = None
    t0 = time.perf_counter()
    with open(out_path, "wb") as out_f, open(err_path, "wb") as err_f:
        proc = subprocess.Popen(
            [*launcher, str(CHILD_TIMEOUT_S), *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if stream_stdout else out_f,
            stderr=err_f,
        )
        try:
            if stream_stdout:
                h = hashlib.sha256()
                while chunk := proc.stdout.read(1 << 20):
                    h.update(chunk)
                proc.stdout.close()
                digest = h.hexdigest()
            proc.wait(timeout=CHILD_TIMEOUT_S + 15)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    try:
        code, wall, maxrss_kib = result_path.read_text().split()
    except (OSError, ValueError):
        # the launcher itself failed: keep the benchmark's own timing
        code, wall, maxrss_kib = -1, time.perf_counter() - t0, 0
    return Child(
        returncode=int(code),
        wall_s=float(wall),
        maxrss_mb=int(maxrss_kib) / 1024.0,
        stdout=b"" if stream_stdout else out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        stdout_sha256=digest,
    )


def flush_to_disk(path: Path) -> None:
    """fsync a file outside any timed region, so that its writeback does not
    land on a later timed call."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Run:
    """State of one benchmark run: operation counts, RSS maxima, work files."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.rss_mb = defaultdict(float)
        self.simulate_sha = None
        self.simulate_bytes = 0

    def verify(self, label: str, check, *args) -> None:
        """Count one operation; it fails if `check` raises. Nothing is retried."""
        self.attempted += 1
        try:
            check(*args)
        except (oracles.OracleError, KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            self.failed += 1
            print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def cli(self, args: list[str], command: str | None, stream_stdout: bool = False) -> Child:
        child = run_child(
            [sys.executable, "-m", "bellwigner", *args], self.workdir, self.env, stream_stdout
        )
        if command is not None:
            self.rss_mb[command] = max(self.rss_mb[command], child.maxrss_mb)
        return child


def setup_launch(run: Run) -> float:
    child = run.cli(["--help"], None)
    run.verify(
        "setup --help",
        lambda: oracles.expect(
            child.returncode == 0 and child.stdout.startswith(b"usage: bellwigner"),
            f"--help exited {child.returncode}",
        ),
    )
    return child.wall_s


def sweep_call(run: Run, call) -> float:
    args = ["sweep", "--kind", call.kind, "--mode", call.mode, "--resolution", str(call.resolution)]
    path = run.workdir / "records.csv"
    if call.out == "file":
        args += ["--out", str(path)]
    elif call.out == "stdout":
        args += ["--out", "-"]
    path.unlink(missing_ok=True)  # truncating a file under writeback would block
    child = run.cli(args, "sweep", stream_stdout=call.out == "stdout")
    if call.out == "file" and path.exists():
        flush_to_disk(path)

    def check():
        summary = json.loads(child.stderr if call.out == "stdout" else child.stdout)
        rows = call.resolution**3 if call.out else None
        oracles.check_sweep_summary(call, child.returncode, summary, rows)
        if call.out:
            digest = child.stdout_sha256 if call.out == "stdout" else oracles.sha256_file(path)
            pinned = RECORDS_SHA256[(call.kind, call.mode, call.resolution)]
            oracles.expect(digest == pinned, f"records sha256 {digest} != pinned {pinned}")

    run.verify(f"sweep {call}", check)
    return child.wall_s


def simulate_call(run: Run) -> float:
    n = run.workload.simulate_n
    path = run.workdir / "simulated.csv"
    path.unlink(missing_ok=True)
    child = run.cli(
        ["simulate", "--n", str(n), "--seed", str(run.seed), "--out", str(path)], "simulate"
    )
    if path.exists():
        flush_to_disk(path)

    def check():
        data = path.read_bytes()
        oracles.check_simulate(child.returncode, json.loads(child.stdout), data, n, run.seed)
        digest = hashlib.sha256(data).hexdigest()
        if run.simulate_sha is None:
            run.simulate_sha, run.simulate_bytes = digest, len(data)
        oracles.expect(digest == run.simulate_sha, "simulate output differs between passes")

    run.verify("simulate", check)
    return child.wall_s


def convergence_call(run: Run) -> float:
    n_list = run.workload.n_list
    child = run.cli(
        ["convergence", "--n-list", ",".join(map(str, n_list)), "--seed", str(run.seed)],
        "convergence",
    )
    run.verify(
        "convergence",
        lambda: oracles.check_convergence_csv(
            child.returncode, child.stdout.decode(), n_list, run.seed
        ),
    )
    return child.wall_s


def check_call(run: Run, shape: str, inputs: dict) -> float:
    child = run.cli(["check-data", str(inputs[f"{shape}_path"])], f"check_{shape}")
    run.verify(
        f"check-data {shape}",
        lambda: oracles.check_data_payload(
            child.returncode, json.loads(child.stdout), shape, inputs[shape]
        ),
    )
    return child.wall_s


def e2e_pass(run: Run, inputs: dict, setup_times: list[float]) -> dict[str, list[float]]:
    """Every CLI call of the workload once; wall seconds of each call, by command.

    Two set-up launches per pass spread the set-up samples over the run,
    so that slow and fast spells of a shared machine weigh alike.
    """
    times = {}
    setup_times.append(setup_launch(run))
    times["sweep"] = [sweep_call(run, call) for call in run.workload.sweeps]
    times["simulate"] = [simulate_call(run)]
    times["convergence"] = [convergence_call(run)]
    setup_times.append(setup_launch(run))
    times["check_triples"] = [check_call(run, "triples", inputs)]
    times["check_quads"] = [check_call(run, "quads", inputs)]
    return times


def repeat_until(deadline: float, min_count: int, body) -> list:
    """Run body(i) at least `min_count` times, then while the next call is
    expected to end before `deadline` (judged by the mean call so far)."""
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        durations.append(time.perf_counter() - t0)
        expected_end = time.perf_counter() + statistics.fmean(durations)
        if len(results) >= min_count and expected_end > deadline:
            return results


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(run: Run, inputs: dict, trace: int, seconds: int, passes: int) -> dict:
    wl = run.workload
    return {
        "workload": wl.name,
        "seed": run.seed,
        "trace": trace,
        "seconds": seconds,
        "passes": passes,
        "loop": "closed, one client, one child process at a time",
        "bellwigner": bellwigner.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "inputs": {
            "sweeps": [vars(call) for call in wl.sweeps],
            "simulate_n": wl.simulate_n,
            "simulate_bytes": run.simulate_bytes,
            "triples_rows": wl.triples_rows,
            "triples_bytes": inputs["triples_path"].stat().st_size,
            "quads_rows": wl.quads_rows,
            "quads_bytes": inputs["quads_path"].stat().st_size,
            "n_list": list(wl.n_list),
        },
        "failed_share": run.failed / max(run.attempted, 1),
    }


def median_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(wl, seed: int, seconds: float, trace: int, smoke: bool = False):
    """Measure one workload; returns (run, e2e metrics, layer metrics or None, report)."""
    workdir = WORK / f"{wl.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(wl, seed, workdir)
    report = []
    try:
        inputs = write_inputs(workdir, seed, wl.triples_rows, wl.quads_rows)
        flush_to_disk(inputs["triples_path"])
        flush_to_disk(inputs["quads_path"])
        start = time.perf_counter()
        setup_launch(run)  # warm-up, not timed: bytecode compile, page cache
        setup_times = [setup_launch(run) for _ in range(1 if smoke else SETUP_LAUNCHES)]
        if trace:
            import_s = import_probe(run, 1 if smoke else 5)
        e2e_deadline = start + (TRACE_E2E_SHARE * seconds if trace else seconds)
        passes = repeat_until(
            e2e_deadline, 1 if smoke or trace else MIN_PASSES, lambda i: e2e_pass(run, inputs, setup_times)
        )
        e2e = {"setup_s": statistics.median(setup_times)}
        e2e_medians = dict(e2e)
        report.append(f"setup_s: median of {len(setup_times)} launches of --help over the run")
        report.append(
            f"<command>_s: each call's slowest time over {len(passes)} passes, summed over "
            "the command's calls (median of the per-pass sums in brackets)"
        )
        for command in COMMANDS:
            calls = list(zip(*(p[command] for p in passes)))  # one tuple of passes per call
            # On a shared host calls only speed up from a steady contended
            # level, so a call's slowest pass repeats between runs; its
            # median follows the neighbours' load (see README.md).
            e2e[f"{command}_s"] = sum(max(call) for call in calls)
            per_pass = [sum(p[command]) for p in passes]
            e2e_medians[f"{command}_s"] = statistics.median(per_pass)
            e2e[f"{command}_rss_mb"] = run.rss_mb[command]
            for i, call in enumerate(calls):
                values = ", ".join(f"{t:.4f}" for t in call)
                report.append(f"  {command:<11} call {i} per pass: {values}")
            report.append(f"  {command:<11} (median sum {e2e_medians[command + '_s']:.4f})")
        layers = None
        if trace:
            layers = traced(run, wl, inputs, e2e_medians, import_s, start + seconds, report)
        info = manifest(run, inputs, trace, seconds, len(passes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, e2e, layers, report, info


def import_probe(run: Run, pairs: int) -> float:
    """Median `import bellwigner.cli` launch minus median bare interpreter launch."""
    bare, full = [], []
    for _ in range(pairs):
        for code, times in (("pass", bare), ("import bellwigner.cli", full)):
            child = run_child([sys.executable, "-c", code], run.workdir, run.env)
            run.verify("import probe", oracles.expect, child.returncode == 0, "probe exit code")
            times.append(child.wall_s)
    return statistics.median(full) - statistics.median(bare)


def traced(run: Run, wl, inputs, e2e, import_s, deadline, report) -> dict:
    """In-process passes, untraced and traced alternately; per-layer metrics."""
    tracer = tracing.Tracer(wl.name)
    untraced_s, traced_s, traced_counts = [], [], []
    # tracemalloc slows the parse about tenfold, so only the larger input
    # (triples, in every workload) is read under it
    read_peak_mb = tracing.read_peak_mb(inputs["triples_path"])

    def one_pair(i):
        order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        for side in order:
            t0 = time.perf_counter()
            if side == "traced":
                tracer.pass_no = i
                traced_counts.append(tracing.inprocess_pass(run, wl, inputs, tracer))
                traced_s.append(time.perf_counter() - t0)
            else:
                tracing.inprocess_pass(run, wl, inputs, tracing.NullTracer())
                untraced_s.append(time.perf_counter() - t0)

    repeat_until(deadline, 1, one_pair)
    per_pass = [
        tracing.pass_layer_metrics([s for s in tracer.spans if s["pass"] == i], wl)
        for i in range(len(traced_s))
    ]
    layer_medians = median_by_key(per_pass)
    metrics = {name: layer_medians[name] for name in LAYER_UNITS if name in layer_medians}
    metrics.update(traced_counts[0])
    metrics["cli.import_s"] = import_s
    metrics["cli.read_peak_mb"] = read_peak_mb
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)

    report.append(
        f"traced run: {len(traced_s)} traced and {len(untraced_s)} untraced in-process passes, "
        f"median {statistics.median(traced_s):.4f} s vs {statistics.median(untraced_s):.4f} s"
    )
    report.append("accounting: e2e median = calls x setup_s + layer spans + unaccounted")
    for command in COMMANDS:
        calls = len(wl.sweeps) if command == "sweep" else 1
        spans = layer_medians.get(f"layers.{command}_s", 0.0)
        left = e2e[f"{command}_s"] - calls * e2e["setup_s"] - spans
        metrics[f"unaccounted.{command}_s"] = left
        report.append(
            f"  {command:<14} {e2e[command + '_s']:.4f} s = {calls} x {e2e['setup_s']:.4f} "
            f"+ {spans:.4f} + {left:.4f} ({left / e2e[command + '_s']:.1%} unaccounted)"
        )
    report.append("self time per span name, summed over the traced passes:")
    for name, value in sorted(tracing.self_times(tracer.spans).items()):
        report.append(f"  {name:<38} {value:.4f} s")
    report.append("analytic.bytes_computed is computed from array sizes, not measured")
    spans_path = WORK / f"spans-{wl.name}-seed{run.seed}.json"
    spans_path.write_text(json.dumps({"workload": wl.name, "seed": run.seed, "spans": tracer.spans}))
    report.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def as_result(run: Run, metrics: dict, units: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def smoke_test() -> int:
    """Every workload at tiny sizes, with the traced run, plus oracle self-tests."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = selftest.run_all() == 0
    for metrics_key, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        names = {m["name"]: m["unit"] for m in declared[metrics_key]}
        if names != units:
            print(f"FAILED BENCHMARK.json {metrics_key} differs from run.py", file=sys.stderr)
            ok = False
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        print("FAILED BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        ok = False
    for wl in WORKLOADS.values():
        t0 = time.perf_counter()
        run, e2e, layers, _, _ = run_workload(smoke(wl), seed=1, seconds=0, trace=1, smoke=True)
        as_result(run, e2e, E2E_UNITS)
        as_result(run, layers, LAYER_UNITS)
        print(
            f"smoke {wl.name}: {run.attempted} checks, {run.failed} failed, "
            f"{time.perf_counter() - t0:.1f} s"
        )
        ok = ok and run.failed == 0
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; the benchmark's own test")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "bellwigner" / "__init__.py").is_file():
        print(f"error: no bellwigner package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke_test()
    run, e2e, layers, report, info = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace
    )
    metrics, units = (layers, LAYER_UNITS) if args.trace else (e2e, E2E_UNITS)
    for name, unit in units.items():
        report.append(f"{name:<32} {metrics[name]!r} {unit}")
    report.append(f"failed_share: {run.failed}/{run.attempted}")
    print("\n".join(report))
    print(json.dumps({"manifest": info}))
    print(json.dumps(as_result(run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
