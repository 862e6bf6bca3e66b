#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python scripts/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_N.json

PARENT and CHANGE are git revisions. Each is `git archive`d into its own
temporary directory, and `perfbench/run.py --trace 0` runs there, one run
at a time, with seeds 1..pairs for every workload of `BENCHMARK.json` and
its `run_seconds`. Seed 1 runs the parent first, seed 2 the change, and so
on alternately. To measure uncommitted work, stage it and pass
`$(git stash create)` as CHANGE; the file records the tree ids of each
side's `src` and `perfbench`, which name the measured code after that
commit is gone.

The file written holds, per workload, one entry per seed with both sides'
result objects (each metric given as its value) and a summary per
end-to-end metric: both medians, the parent's interquartile range
(`statistics.quantiles`, n = 4) and how many pairs the change read lower,
rounded to 4 places; `tests/test_bench_files.py` recomputes it. The script
also prints, per metric, whether the change is worse than the parent
median by more than its `BENCHMARK.json` bound and whether it meets the
rule for a claimed gain. It exits 1 if a run failed or a metric is worse
past its bound. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(rev: str, into: Path) -> str:
    """Extract the tree of ``rev`` into ``into``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` result in ``tree``, each metric given as its value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric: both medians, the parent's IQR and the pairs the change read lower."""
    summary = {}
    for metric in runs[0]["parent"]["metrics"]:
        parent = [run["parent"]["metrics"][metric] for run in runs]
        change = [run["change"]["metrics"][metric] for run in runs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        summary[metric] = {
            "parent_median": round(statistics.median(parent), 4),
            "parent_iqr": round(q3 - q1, 4),
            "change_median": round(statistics.median(change), 4),
            "change_lower": f"{sum(c < p for c, p in zip(change, parent))}/{len(runs)}",
        }
    return summary


def verdict(entry: dict, bound: float) -> str:
    """'worse' past the relative bound, 'gain' by the claim rule, else 'held'.

    A gain needs the change lower in at least 9 of 10 pairs and its median
    lower than the parent's by more than the parent's IQR.
    """
    parent, change = entry["parent_median"], entry["change_median"]
    lower, pairs = map(int, entry["change_lower"].split("/"))
    if change > parent * (1 + bound):
        return "worse"
    if lower * 10 >= pairs * 9 and parent - change > entry["parent_iqr"]:
        return "gain"
    return "held"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10, help="seeds 1..pairs")
    parser.add_argument("--out", type=Path, help="file for the pairs and summary")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    pairs = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        commits = {side: checkout(getattr(args, side), tree) for side, tree in trees.items()}
        for workload in workloads:
            pairs[workload] = []
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                entry = {"seed": seed, "parent": None, "change": None}
                for side in order:
                    entry[side] = run_once(trees[side], workload, seed, seconds)
                pairs[workload].append(entry)
                print(f"{workload} seed {seed}: {order[0]} first", file=sys.stderr, flush=True)

    summary = {workload: summarize(runs) for workload, runs in pairs.items()}
    failed = [
        f"{workload} seed {run['seed']}" for workload, runs in pairs.items() for run in runs
        if not (run["parent"]["correct"] and run["change"]["correct"])
    ]
    worse = 0
    for workload, metrics in summary.items():
        for metric, entry in metrics.items():
            word = verdict(entry, bounds[metric])
            worse += word == "worse"
            print(
                f"{workload:<9} {metric:<22} {entry['parent_median']:>9.4f} -> "
                f"{entry['change_median']:>9.4f}  IQR {entry['parent_iqr']:.4f}  "
                f"lower {entry['change_lower']:>5}  {word}"
            )
    for name in failed:
        print(f"FAILED run: {name}")
    if args.out:
        bench = {
            "command": f"python3 perfbench/run.py --workload <{'|'.join(workloads)}> "
                       f"--seed <1..{args.pairs}> --seconds {seconds} --trace 0",
            "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}",
            "parent": commits["parent"],
            "change": commits["change"],
            "trees": {side: {path: git("rev-parse", f"{commit}:{path}").decode().strip()
                             for path in ("src", "perfbench")}
                      for side, commit in commits.items()},
            "note": "Made by scripts/bench_pairs.py: git archive copies of parent and change, "
                    "one run at a time, seed 1 parent first, then alternating. Each entry of "
                    "pairs is one seed's run.py result objects, each metric given as its value "
                    "(units of BENCHMARK.json).",
            "summary": summary,
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
