#!/usr/bin/env python3
"""Seeded root-finding probes: how often the Jensen check passes, raises
a named error, or returns a wrong residual without one.

Three families of slice polynomials f = prod (x - a_k), k = 0 .. deg - 1.
The first two draw every factor from ``numpy.random.default_rng(deg)``
(one generator per family and degree, ``DRAWS`` draws in a row from it):

- real: a = uniform(0.2, 0.9) * choice([-1, 1]), degrees 4-16;
- quaternionic: q = d/|d| * 1.3 u^(1/4) with d = normal(size=4), then
  u = uniform(), degrees 8-16.

The third draws each polynomial from its own ``verify.Stream(seed)``,
seed = 0 .. DRAWS - 1, where root finding fails at high degree:

- annuli: |q| = uniform(0.2, 0.8) for even k and uniform(1.3, 2.0) for odd
  k, then q = unit() * |q|, degrees 12-32.

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
from slicereg.verify import Stream

R = 1.0
N = 48
DRAWS = 10
TOL = 1e-9


ANNULI = ((0.2, 0.8), (1.3, 2.0))


def real_root(rng, k: int) -> Quaternion:
    return Quaternion.real(rng.uniform(0.2, 0.9) * rng.choice([-1, 1]))


def quaternionic_root(rng, k: int) -> Quaternion:
    d = rng.normal(size=4)
    return Quaternion.from_array(d / np.linalg.norm(d) * 1.3 * rng.uniform() ** 0.25)


def annulus_root(stream: Stream, k: int) -> Quaternion:
    radius = stream.uniform(*ANNULI[k % 2])
    return stream.unit() * radius


FAMILIES = {"real": (real_root, (4, 6, 8, 10, 12, 16)), "quaternionic": (quaternionic_root, (8, 12, 16)),
            "annuli": (annulus_root, (12, 16, 20, 24, 32))}


def draws(family: str, deg: int, count: int = DRAWS) -> list[SlicePolynomial]:
    """The first ``count`` polynomials of one family and degree."""
    root = FAMILIES[family][0]
    rng = np.random.default_rng(deg)
    out = []
    for seed in range(count):
        source = Stream(seed) if family == "annuli" else rng
        f = SlicePolynomial.from_real([1.0])
        for k in range(deg):
            f = f * SlicePolynomial.linear(root(source, k))
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
