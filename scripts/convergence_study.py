#!/usr/bin/env python3
"""Quadrature-order convergence of the Jensen residual over the corpus.

Prints one row per corpus entry: its radius, the boundary gap of its
outermost zero or pole sphere, and |residual| at each order n, the
nodes per panel of the polar rule that ``jensen_check`` grades toward
the shadows of the zero and pole spheres.  The residuals reach the
~1e-14 assembly floor by n = 24-48 whatever the gap; a row that keeps
falling past that says a case needs a larger n.

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
            f = load_function(CORPUS / entry["file"])
            reports = [jensen_check(f, entry["r"], n, diagnostics=False) for n in args.orders]
            gap = reports[0].diagnostics["boundary_gap"]
            cells = "".join(f"{abs(rep.residual):12.3e}" for rep in reports)
            print(f"{entry['name']:28s} {entry['r']:4.1f} {gap if gap is not None else float('inf'):7.3f} {cells}")


if __name__ == "__main__":
    main()
