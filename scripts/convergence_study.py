#!/usr/bin/env python3
"""Quadrature-order convergence of the Jensen residual over the corpus.

Prints one row per corpus entry and quadrature order, plus the
per-entry reduction factors.  Useful for picking n when adding corpus
cases: residuals decay exponentially in n until they hit the 1e-14
assembly floor, with the rate set by the gap between the outermost
zero/pole sphere and the integration sphere.

Usage: python scripts/convergence_study.py [--orders 12 24 48 96 192 384 768]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicereg.io import load_function
from slicereg.jensen import jensen_check
from slicereg.zeros_poles import analyze

CORPUS = ROOT / "corpus"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--orders", type=int, nargs="+", default=[12, 24, 48, 96, 192, 384, 768])
    parser.add_argument(
        "--manifest", nargs="+", default=["polynomials.json", "rationals.json"]
    )
    args = parser.parse_args()

    header = f"{'case':28s} {'r':>4s} {'gap/r':>7s} " + "".join(
        f"{'n=' + str(n):>12s}" for n in args.orders
    )
    print(header)
    print("-" * len(header))
    for manifest_name in args.manifest:
        manifest = json.loads((CORPUS / manifest_name).read_text())
        for entry in manifest["cases"]:
            analysis = analyze(load_function(CORPUS / entry["file"]), entry["r"])
            residuals = [
                jensen_check(analysis, entry["r"], n, diagnostics=False).residual
                for n in args.orders
            ]
            cells = "".join(f"{abs(res):12.3e}" for res in residuals)
            print(f"{entry['name']:28s} {entry['r']:4.1f} {analysis.boundary_gap:7.3f} {cells}")


if __name__ == "__main__":
    main()
