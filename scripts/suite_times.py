#!/usr/bin/env python3
"""Median in-process wall time of each ``verify-ops`` suite.

Each of ``REPEATS`` repeats starts a fresh interpreter, which imports
slicereg and times ``run_suite(name, SEED)`` for every suite in
``SUITE_ORDER`` once, in that order, with ``time.perf_counter``; so
every repeat is one cold ``verify-ops --suite all`` without the CLI and
the report.  Prints one JSON object: the median seconds of each suite
over the repeats, and the median of the per-repeat totals, to 0.1 ms.

Usage: python scripts/suite_times.py > times.json
"""

from __future__ import annotations

import json
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


def suite_seconds(names, seed: int = SEED) -> dict[str, float]:
    """Wall seconds of one ``run_suite(name, seed)`` per name, in order."""
    out = {}
    for name in names:
        start = time.perf_counter()
        run_suite(name, seed)
        out[name] = time.perf_counter() - start
    return out


def main() -> None:
    if sys.argv[1:] == ["--once"]:
        print(json.dumps(suite_seconds(SUITE_ORDER)))
        return
    runs = [json.loads(subprocess.run([sys.executable, __file__, "--once"], capture_output=True,
                                      text=True, check=True).stdout) for _ in range(REPEATS)]
    medians = {name: round(statistics.median(run[name] for run in runs), 4) for name in SUITE_ORDER}
    total = round(statistics.median(sum(run.values()) for run in runs), 4)
    print(json.dumps({"seed": SEED, "repeats": REPEATS, "suites_s": medians, "total_s": total}, indent=2))


if __name__ == "__main__":
    main()
