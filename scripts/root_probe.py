#!/usr/bin/env python3
"""Seeded root-finding probes: how often the Jensen check passes, raises
a named error, or returns a wrong residual without one.

Two families of slice polynomials f = prod (x - a_k), each factor drawn
in turn from ``numpy.random.default_rng(deg)`` (one generator per family
and degree, ``DRAWS`` draws in a row from it):

- real: a = uniform(0.2, 0.9) * choice([-1, 1]), degrees 4-16;
- quaternionic: q = d/|d| * 1.3 u^(1/4) with d = normal(size=4), then
  u = uniform(), degrees 8-16.

Each draw runs ``jensen_check(f, R, N, diagnostics=False)``.  It passes
when |residual| <= TOL, counts as a named error when it raises a
``SliceRegError``, and as silent-wrong when it returns a larger or
non-finite residual.  Any other exception propagates.  Prints one JSON
object: the counts per family and degree.

Usage: python scripts/root_probe.py > probe.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicereg.errors import SliceRegError
from slicereg.jensen import jensen_check
from slicereg.quaternions import Quaternion
from slicereg.slicepoly import SlicePolynomial

R = 1.0
N = 48
DRAWS = 10
TOL = 1e-9


def real_root(rng) -> Quaternion:
    return Quaternion.real(rng.uniform(0.2, 0.9) * rng.choice([-1, 1]))


def quaternionic_root(rng) -> Quaternion:
    d = rng.normal(size=4)
    return Quaternion.from_array(d / np.linalg.norm(d) * 1.3 * rng.uniform() ** 0.25)


FAMILIES = {"real": (real_root, (4, 6, 8, 10, 12, 16)), "quaternionic": (quaternionic_root, (8, 12, 16))}


def draws(family: str, deg: int, count: int = DRAWS) -> list[SlicePolynomial]:
    """The first ``count`` polynomials of one family and degree."""
    root = FAMILIES[family][0]
    rng = np.random.default_rng(deg)
    out = []
    for _ in range(count):
        f = SlicePolynomial.from_real([1.0])
        for _ in range(deg):
            f = f * SlicePolynomial.linear(root(rng))
        out.append(f)
    return out


def outcome(f: SlicePolynomial) -> str:
    """The outcome of one draw: "pass", "named_error" or "silent_wrong"."""
    try:
        residual = jensen_check(f, R, N, diagnostics=False).residual
    except SliceRegError:
        return "named_error"
    return "pass" if math.isfinite(residual) and abs(residual) <= TOL else "silent_wrong"


def probe(family: str, deg: int, count: int = DRAWS) -> dict[str, int]:
    counts = {"pass": 0, "named_error": 0, "silent_wrong": 0}
    for f in draws(family, deg, count):
        counts[outcome(f)] += 1
    return counts


def main() -> None:
    out = {"r": R, "n": N, "draws": DRAWS, "tol": TOL,
           **{family: {str(deg): probe(family, deg) for deg in degrees}
              for family, (_, degrees) in FAMILIES.items()}}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
