#!/usr/bin/env python3
"""Median in-process wall time and peak RSS of each ``verify-ops`` suite,
for one or more source trees.

Each of ``REPEATS`` rounds starts one fresh interpreter per tree, from
that tree's ``scripts/suite_times.py --once``: it imports slicereg, times
``run_suite(name, SEED)`` for every suite in ``SUITE_ORDER`` in that
order with ``time.perf_counter``, and reads the process's peak RSS
(``ru_maxrss``) after each, so a suite's peak is the process's peak so
far.  The trees and rounds are those of ``cold_start.py``: every tree's
``src/`` is byte-compiled first and the tree order is reversed every
other round, so a drift in the host's load falls on all trees alike.

Prints one JSON object with, per tree, the median seconds of each suite,
the median of the per-round totals, to 0.1 ms, and the median peak RSS
after each suite, in MB to 0.01; given two trees or more, also in how
many rounds each tree was the fastest, per suite and for the total.

Usage: python scripts/suite_times.py [[LABEL=]TREE ...] > times.json
With no TREE it times this checkout, labelled ``checkout``.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicereg.verify import SUITE_ORDER, run_suite

SEED = 1
REPEATS = 10


def suite_costs(names, seed: int = SEED) -> dict[str, dict[str, float]]:
    """Wall seconds of one ``run_suite(name, seed)`` per name, in order
    ("s"), and the process's peak RSS in MB after each ("peak_rss_mb")."""
    out = {"s": {}, "peak_rss_mb": {}}
    for name in names:
        start = time.perf_counter()
        run_suite(name, seed)
        out["s"][name] = time.perf_counter() - start
        out["peak_rss_mb"][name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return out


def once(tree: Path) -> dict:
    """``suite_costs`` of every suite in a fresh interpreter of the tree."""
    return json.loads(subprocess.run([sys.executable, str(tree / "scripts" / "suite_times.py"), "--once"],
                                     capture_output=True, text=True, check=True).stdout)


def medians(runs: list[dict]) -> dict:
    """The medians over runs of each suite's seconds, the total and each suite's peak RSS."""

    def per_suite(key, digits):
        return {name: round(statistics.median(run[key][name] for run in runs), digits) for name in SUITE_ORDER}

    total = round(statistics.median(sum(run["s"].values()) for run in runs), 4)
    return {"suites_s": per_suite("s", 4), "total_s": total, "peak_rss_mb": per_suite("peak_rss_mb", 2)}


def rounds_fastest(runs: dict[str, list[dict]]) -> dict[str, dict[str, int]]:
    """Per tree label, per suite and for the total, the rounds in which that tree was the fastest."""
    costs = {label: [{**run["s"], "total": sum(run["s"].values())} for run in rs] for label, rs in runs.items()}
    wins = {label: dict.fromkeys([*SUITE_ORDER, "total"], 0) for label in runs}
    for k in range(REPEATS):
        for key in (*SUITE_ORDER, "total"):
            wins[min(costs, key=lambda label: costs[label][k][key])][key] += 1
    return wins


def main() -> None:
    if sys.argv[1:] == ["--once"]:
        print(json.dumps(suite_costs(SUITE_ORDER)))
        return
    from cold_start import alternated, parse_trees  # here, so the timed interpreters do not load them

    trees = parse_trees(sys.argv[1:])
    runs = {label: [] for label in trees}
    for order in alternated(trees, REPEATS):
        for label, tree in order:
            runs[label].append(once(tree))
    result = {"seed": SEED, "repeats": REPEATS,
              "trees": {label: {"tree": str(tree), **medians(runs[label])} for label, tree in trees.items()}}
    if len(trees) > 1:
        result["rounds_fastest"] = rounds_fastest(runs)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
