"""Committed benchmark pairs: every `summary` recomputes from its `pairs`.

A `BENCH_*.json` in the summary/pairs schema holds, per workload, one
entry per seed with the parent's and the change's `perfbench/run.py`
results, and a summary per end-to-end metric: both medians, the parent's
interquartile range (`statistics.quantiles`, n = 4) and how many pairs the
change read lower, the numbers rounded to 4 places. A summary that does
not follow from the pairs it sits beside cannot back a claim.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRED = [
    path for path in sorted(ROOT.glob("BENCH_*.json")) if "summary" in json.loads(path.read_text())
]


def summarize(runs):
    """The summary of one workload's pairs, metric by metric."""
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


def test_paired_files_are_committed():
    assert {path.name for path in PAIRED} >= {"BENCH_24.json", "BENCH_25.json", "BENCH_26.json"}


@pytest.mark.parametrize("path", PAIRED, ids=[path.name for path in PAIRED])
def test_summary_recomputes_from_pairs(path):
    bench = json.loads(path.read_text())
    assert set(bench["summary"]) == set(bench["pairs"])
    for workload, runs in bench["pairs"].items():
        assert all(run["parent"]["correct"] and run["change"]["correct"] for run in runs), workload
        assert bench["summary"][workload] == summarize(runs), workload
