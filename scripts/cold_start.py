#!/usr/bin/env python3
"""Cold-process wall time of each CLI command, for one or more source trees.

A user runs one ``slicereg`` process; this times that whole process.
Every sample starts a fresh interpreter with ``subprocess.run`` in the
tree's root, with ``PYTHONPATH=<tree>/src``, and measures spawn to exit
with ``time.perf_counter``.  Each of ``--repeats`` rounds runs every
command once on every tree, alternating the tree order from round to
round, so a drift in the host's load falls on all trees alike.  Two
baselines bound what the repo controls: a bare ``python -c pass`` and
``import numpy``.

The bytecode of every tree's ``src/`` is compiled first (``compileall``):
where ``PYTHONDONTWRITEBYTECODE`` is set, the package would otherwise be
compiled again in every process.

Writes one JSON object: per command and tree, the median and the
interquartile range of the samples in seconds, and the samples.

Usage:
    python scripts/cold_start.py [--repeats 15] [--out BENCH_cold_start.json] [LABEL=]TREE ...

With no TREE it times this checkout, labelled ``checkout``; a TREE
without a label is labelled by its directory name.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEG8 = "corpus/poly_deg8_all_kinds.json"
# name -> interpreter arguments; every command writes its report to os.devnull
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "jensen --fn deg8": ["-m", "slicereg", "jensen", "--fn", DEG8, "--out", os.devnull],
    "jensen --fn deg8 --n 128": ["-m", "slicereg", "jensen", "--fn", DEG8, "--n", "128", "--out", os.devnull],
    "jensen --fn deg8 --no-diagnostics": ["-m", "slicereg", "jensen", "--fn", DEG8, "--no-diagnostics",
                                          "--out", os.devnull],
    "jensen --corpus polynomials": ["-m", "slicereg", "jensen", "--corpus", "corpus/polynomials.json",
                                    "--out", os.devnull],
    "zeros --fn deg8": ["-m", "slicereg", "zeros", "--fn", DEG8, "--out", os.devnull],
    "verify-ops": ["-m", "slicereg", "verify-ops", "--out", os.devnull],
}


def run_once(tree: Path, args: list[str]) -> float:
    """Seconds from spawn to exit of one interpreter; a failing command raises."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_s": round(statistics.median(samples), 4), "iqr_s": round(q3 - q1, 4),
            "samples_s": [round(s, 4) for s in samples]}


def alternated(trees: dict[str, Path], repeats: int):
    """Byte-compile every tree's ``src/``, then yield the (label, tree)
    order of each of repeats rounds, reversed every other round."""
    for tree in trees.values():
        compileall.compile_dir(tree / "src", quiet=1)
    for k in range(repeats):
        yield list(trees.items()) if k % 2 == 0 else list(trees.items())[::-1]


def measure(trees: dict[str, Path], commands: list[str], repeats: int) -> dict:
    """{command: {label: summary}} over repeats alternated rounds."""
    samples = {name: {label: [] for label in trees} for name in commands}
    for order in alternated(trees, repeats):
        for name in commands:
            for label, tree in order:
                samples[name][label].append(run_once(tree, COMMANDS[name]))
    return {name: {label: summary(s) for label, s in per_tree.items()} for name, per_tree in samples.items()}


def parse_trees(specs: list[str]) -> dict[str, Path]:
    trees = {}
    for spec in specs or [f"checkout={ROOT}"]:
        label, _, path = spec.rpartition("=")
        path = Path(path).resolve()
        trees[label or path.name] = path
    return trees


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="[LABEL=]PATH of a source tree (default: this checkout)")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default="BENCH_cold_start.json")
    args = parser.parse_args()
    trees = parse_trees(args.trees)
    result = {
        "what": "wall seconds from spawn to exit of fresh processes per CLI command, alternated between trees",
        "host": {"platform": platform.platform(), "usable_cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
        "repeats": args.repeats,
        "trees": list(trees),
        "commands": measure(trees, list(COMMANDS), args.repeats),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
