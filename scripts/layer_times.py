#!/usr/bin/env python3
"""Warm in-process seconds of each layer of slicereg, for two source trees
in one interpreter.

Loads the ``src/slicereg`` of the base tree and of the changed tree as
packages of their own, ``slicereg_base`` and ``slicereg_change``, and the
base tree once more as ``slicereg_base_again``, the A/A control: the three
share one interpreter, one numpy and one heap, and none of them is the
``slicereg`` package, so nothing in either tree is imported as it would
be by a user, nor patched.  A stage is one pass of one layer over its
inputs:

- over the 22 corpus cases of ``corpus/polynomials.json`` and
  ``corpus/rationals.json``: ``load_function``; ``analyze``;
  ``boundary_means`` at the default n; the oracle, ``build_rule`` at
  ``oracle_orders`` plus ``boundary_identity_residual``;
  ``sf_roundtrip_errors`` on 1000 points; and the whole ``jensen_check``
  with diagnostics on and off;
- each of the eight ``verify-ops`` suites at seed 1.

Each package first runs every stage once, unmeasured, so every sample is
a warm pass.  Then each of ``--rounds`` rounds times every stage once
per package with ``time.perf_counter``, after a ``gc.collect``, the
packages in turn and their order reversed every other round, so a drift
in the host's load falls on all of them alike.  The inputs of a stage
(functions, analyses, shadows) come from the package that is timed, and
are built outside the timed pass.

Writes one JSON object: per stage and package the median and quartiles
of the pass in seconds, the ratio of the change's median to the base's,
the rounds in which the change's pass was the faster one, and the same
two for the A/A control (base again against base).  An A/A ratio away
from 1 or an A/A win count away from half the rounds is the harness's
own bias at that stage.

Usage:
    python scripts/layer_times.py BASE_TREE CHANGED_TREE [--rounds 30] [--out BENCH_layer_times.json]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PACKAGES = ("base", "change", "base_again")


def load_tree(name: str, tree: Path) -> dict:
    """The modules of tree's ``src/slicereg``, imported as the package ``slicereg_<name>``."""
    package = f"slicereg_{name}"
    src = tree / "src" / "slicereg"
    spec = importlib.util.spec_from_file_location(package, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    modules = ("io", "zeros_poles", "quadrature", "jensen", "verify")
    return {m: importlib.import_module(f"{package}.{m}") for m in modules}


def corpus_cases() -> list[tuple[Path, float]]:
    return [(CORPUS / case["file"], float(case["r"]))
            for manifest in ("polynomials.json", "rationals.json")
            for case in json.loads((CORPUS / manifest).read_text())["cases"]]


def stages(pkg: dict, cases: list[tuple[Path, float]]) -> dict:
    """Stage name -> a function of no arguments that runs one pass of it in the package pkg."""
    io, zp, quad, jensen, verify = (pkg[m] for m in ("io", "zeros_poles", "quadrature", "jensen", "verify"))
    n = jensen.DEFAULT_N
    p, q = quad.oracle_orders(n)
    loaded = [(zp.as_semiregular(io.load_function(path)), r) for path, r in cases]
    analysed = [(fs, r, zp.analyze(fs, r).shadows) for fs, r in loaded]
    out = {
        "load_function": lambda: [io.load_function(path) for path, _ in cases],
        "analyze": lambda: [zp.analyze(fs, r) for fs, r in loaded],
        "boundary_means": lambda: [quad.boundary_means(fs, r, n, shadows) for fs, r, shadows in analysed],
        "oracle": lambda: [quad.boundary_identity_residual(fs, quad.build_rule(r, p, shadows, q))
                           for fs, r, shadows in analysed],
        "sf_roundtrip_errors": lambda: [quad.sf_roundtrip_errors(fs, r, 1000, 0) for fs, r in loaded
                                        if fs.num.degree > 0],
        "jensen_check": lambda: [jensen.jensen_check(fs, r) for fs, r in loaded],
        "jensen_check --no-diagnostics": lambda: [jensen.jensen_check(fs, r, diagnostics=False) for fs, r in loaded],
    }
    out.update({f"verify {name}": (lambda name=name: verify.run_suite(name, 1)) for name in verify.SUITE_ORDER})
    return out


def timed(run) -> float:
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5)}


def against(samples: dict, label: str) -> dict:
    """The ratio of label's median to the base's, and the rounds in which label was faster."""
    ratio = statistics.median(samples[label]) / statistics.median(samples["base"])
    wins = sum(a < b for a, b in zip(samples[label], samples["base"]))
    return {"over_base": round(ratio, 4), "wins": wins}


def measure(trees: dict[str, Path], rounds: int) -> dict:
    cases = corpus_cases()
    runs = {label: stages(load_tree(label, tree), cases) for label, tree in trees.items()}
    names = list(runs["base"])
    for label in PACKAGES:  # the unmeasured warm pass
        for name in names:
            runs[label][name]()
    samples = {name: {label: [] for label in PACKAGES} for name in names}
    for k in range(rounds):
        order = PACKAGES if k % 2 == 0 else PACKAGES[::-1]
        for name in names:
            for label in order:
                samples[name][label].append(timed(runs[label][name]))
    return {name: {"base": quartiles(s["base"]),
                   "change": {**quartiles(s["change"]), **against(s, "change")},
                   "aa": {**quartiles(s["base_again"]), **against(s, "base_again")}}
            for name, s in samples.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the base source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--out", default="BENCH_layer_times.json")
    args = parser.parse_args()
    trees = {"base": args.base.resolve(), "change": args.change.resolve(), "base_again": args.base.resolve()}
    result = {
        "what": "warm in-process seconds of one pass per stage, base and change loaded side by side, "
                "with the base loaded twice as the A/A control",
        "command": "python scripts/layer_times.py BASE_TREE CHANGED_TREE",
        "host": {"platform": platform.platform(), "usable_cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rounds": args.rounds,
        "stages": measure(trees, args.rounds),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
