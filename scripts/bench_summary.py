#!/usr/bin/env python3
"""Summarise paired benchmark runs of a parent and a change into one BENCH_<n>.json.

    python3 scripts/bench_summary.py PARENT_DIR CHANGE_DIR --out BENCH_6.json

Each directory holds the `.perfbench_out/<workload>-seed<n>-trace0.json`
records of one side, copied there after each run of `perfbench/run.py`
under any name (the runner overwrites its own record on the next run).
Records are grouped by the workload named in their environment, and within
a workload the i-th parent record is paired with the i-th change record in
file-name order, so name the copies by run number. Every end-to-end metric
of BENCHMARK.json is summarised per workload: each side's runs, median and
quartiles, and how many pairs each side won (ties count for neither). The
environment of each workload's first parent record is written beside it,
and the failed operations of both sides are summed.

The script exits 1 without writing when a workload's two sides hold
different numbers of records, or when the two records of a pair differ in
any environment field: such pairs would compare unlike runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Trace-0 records of one side, by workload, in file-name order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["environment"]["trace"] == 0:
            runs[record["environment"]["workload"]].append(record)
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarise(parent: dict[str, list[dict]], change: dict[str, list[dict]], metrics: list[dict]) -> dict:
    workloads = {}
    for workload in sorted(parent.keys() & change.keys()):
        if len(parent[workload]) != len(change[workload]):
            raise ValueError(f"{workload}: the parent has {len(parent[workload])} records and the change "
                             f"{len(change[workload])}; every run must have a pair")
        pairs = list(zip(parent[workload], change[workload]))
        for i, (p, c) in enumerate(pairs):
            for key in sorted(p["environment"].keys() | c["environment"].keys()):
                if p["environment"].get(key) != c["environment"].get(key):
                    raise ValueError(f"{workload}: pair {i}: environment field {key!r} differs: "
                                     f"parent {p['environment'].get(key)!r}, change {c['environment'].get(key)!r}")
        if len(pairs) < 2:
            raise ValueError(f"{workload}: {len(pairs)} pair(s); quartiles need at least 2")
        summary = {
            "pairs": len(pairs),
            "environment": pairs[0][0]["environment"],
            "failed": {side: sum(r[k]["failed"] for r in pairs) for k, side in enumerate(("parent", "change"))},
            "attempted": {side: sum(r[k]["attempted"] for r in pairs) for k, side in enumerate(("parent", "change"))},
            "metrics": {},
        }
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            summary["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": spread(before),
                "change": spread(after),
                "change_wins": sum(sign * (a - b) < 0 for b, a in zip(before, after)),
                "parent_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
            }
        workloads[workload] = summary
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="directory of the parent's run records")
    parser.add_argument("change", type=Path, help="directory of the change's run records")
    parser.add_argument("--out", type=Path, required=True, help="output BENCH_<n>.json path")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    try:
        workloads = summarise(load_runs(args.parent), load_runs(args.change), metrics)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not workloads:
        print("error: no workload has records on both sides", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n", encoding="utf-8")
    for workload, summary in workloads.items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
                  f"{m['unit']}, change won {m['change_wins']}/{summary['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
