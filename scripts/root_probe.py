#!/usr/bin/env python3
"""Seeded root-finding probes: how often the Jensen check passes, raises
a named error, or returns a wrong residual without one, by
``tests/hard_cases.py``'s ``judge``, over its five families.  A dyadic
draw also counts as inexact when its coefficients differ from the
``Fraction`` product, and as wrong_records when its ``classify_zeros``
records differ from ``dyadic_records`` with no named error.  Prints one
JSON object: the counts per family and degree.

Usage: python scripts/root_probe.py > probe.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from hard_cases import (DRAWS, DYADIC_DRAWS, FAMILIES, N, NEAR_PAIR_DRAWS, R, TOL, dyadic_product, dyadic_records,
                        dyadic_roots, family_roots, judge, near_pair, product)

COUNTS = {"pass": "pass", "named": "named_error", "wrong": "silent_wrong"}  # the probe's names of the outcomes


def probe(family: str, deg: int, count: int = DRAWS) -> dict[str, int]:
    counts = dict.fromkeys(COUNTS.values(), 0)
    for f in map(product, family_roots(family, deg, count)):
        counts[COUNTS[judge(f)[0]]] += 1
    return counts


def probe_near_pair(count: int = NEAR_PAIR_DRAWS) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for seed in range(count):
        f = near_pair(seed)
        cell = counts.setdefault(str(f.degree), dict.fromkeys(COUNTS.values(), 0))
        cell[COUNTS[judge(f)[0]]] += 1
    return dict(sorted(counts.items()))


def probe_dyadic(count: int = DYADIC_DRAWS) -> dict[str, int]:
    counts = {**dict.fromkeys(COUNTS.values(), 0), "inexact": 0, "wrong_records": 0}
    for seed in range(count):
        roots = dyadic_roots(seed)
        f, exact = dyadic_product(roots)
        counts[COUNTS[judge(f)[0]]] += 1
        counts["inexact"] += not exact
        counts["wrong_records"] += judge(f, exact=dyadic_records(roots))[0] == "wrong"
    return counts


def main() -> None:
    out = {"r": R, "n": N, "draws": DRAWS, "tol": TOL,
           **{family: {str(deg): probe(family, deg) for deg in degrees}
              for family, (_, degrees) in FAMILIES.items()},
           "near_pair": probe_near_pair(), "dyadic": probe_dyadic()}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
