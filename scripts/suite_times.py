#!/usr/bin/env python3
"""Median in-process wall time and peak RSS of each ``verify-ops`` suite.

Each of ``REPEATS`` repeats starts a fresh interpreter, which imports
slicereg and times ``run_suite(name, SEED)`` for every suite in
``SUITE_ORDER`` once, in that order, with ``time.perf_counter``, and
reads the process's peak RSS (``ru_maxrss``) after each; so every
repeat is one cold ``verify-ops --suite all`` without the CLI and the
report, and a suite's peak is the process's peak so far.  Prints one
JSON object: the median seconds of each suite over the repeats, the
median of the per-repeat totals, to 0.1 ms, and the median peak RSS
after each suite, in MB to 0.01.

Usage: python scripts/suite_times.py > times.json
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
REPEATS = 9


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


def main() -> None:
    if sys.argv[1:] == ["--once"]:
        print(json.dumps(suite_costs(SUITE_ORDER)))
        return
    runs = [json.loads(subprocess.run([sys.executable, __file__, "--once"], capture_output=True,
                                      text=True, check=True).stdout) for _ in range(REPEATS)]

    def medians(key, digits):
        return {name: round(statistics.median(run[key][name] for run in runs), digits) for name in SUITE_ORDER}

    total = round(statistics.median(sum(run["s"].values()) for run in runs), 4)
    print(json.dumps({"seed": SEED, "repeats": REPEATS, "suites_s": medians("s", 4), "total_s": total,
                      "peak_rss_mb": medians("peak_rss_mb", 2)}, indent=2))


if __name__ == "__main__":
    main()
