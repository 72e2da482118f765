#!/usr/bin/env python3
"""Seeded root-finding probes: how often the Jensen check passes, raises
a named error, or returns a wrong residual without one.

Five families of slice polynomials f = prod (x - a_k), k = 0 .. deg - 1.
The first two draw every factor from ``numpy.random.default_rng(deg)``
(one generator per family and degree, ``DRAWS`` draws in a row from it):

- real: a = uniform(0.2, 0.9) * choice([-1, 1]), degrees 4-16;
- quaternionic: q = d/|d| * 1.3 u^(1/4) with d = normal(size=4), then
  u = uniform(), degrees 8-16.

The third draws each polynomial from its own ``verify.Stream(seed)``,
seed = 0 .. DRAWS - 1, where root finding fails at high degree:

- annuli: |q| = uniform(0.2, 0.8) for even k and uniform(1.3, 2.0) for odd
  k, then q = unit() * |q|, degrees 12-32.

The fourth, near-pair, also draws from ``verify.Stream(seed)``, seed = 0 ..
NEAR_PAIR_DRAWS - 1, zeros q and q2 within eps of conj(q): q =
unit() * uniform(0.3, 0.9), eps = 10^-uniform(2, 9), q2 = conj(q) +
eps * unit(), then integer(0, 3) more factors at unit() * uniform(0.2,
1.6), counted per degree, 2-4.  q and q2 lie within eps of one sphere, where
the stems that form J* = -F1 F2^-1 are nearly zero.

The fifth, dyadic, has exact multiple roots.  Draw ``seed``, seed = 0 ..
DYADIC_DRAWS - 1, takes ``random.Random(seed)``: randint(1, 3) distinct
roots, each real when random() < 0.3 with one component randint(-6, 6) / 8,
else with four such components, and of multiplicity randint(1, 5).  f is
the product of the (x - q)^{*m} from left to right.  Such coefficients are
exact in binary64; a draw whose coefficients differ from the same product
in ``Fraction`` arithmetic is counted as inexact and still run.
``dyadic_records`` gives each draw's exact zero records, and a draw whose
``classify_zeros`` records differ from them with no named error counts
as wrong_records.

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
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicereg.errors import SliceRegError
from slicereg.jensen import jensen_check
from slicereg.quaternions import Quaternion, qmul_parts
from slicereg.slicepoly import SlicePolynomial
from slicereg.verify import Stream
from slicereg.zeros_poles import classify_zeros

R = 1.0
N = 48
DRAWS = 10
NEAR_PAIR_DRAWS = 100
DYADIC_DRAWS = 400
TOL = 1e-9
SPHERE_TOL = 1e-6


ANNULI = ((0.2, 0.8), (1.3, 2.0))


def real_root(rng, k: int) -> Quaternion:
    return Quaternion.real(rng.uniform(0.2, 0.9) * rng.choice([-1, 1]))


def quaternionic_root(rng, k: int) -> Quaternion:
    d = rng.normal(size=4)
    return Quaternion.from_array(d / np.linalg.norm(d) * 1.3 * rng.uniform() ** 0.25)


def annulus_root(stream: Stream, k: int) -> Quaternion:
    radius = stream.uniform(*ANNULI[k % 2])
    return stream.unit() * radius


def near_pair(seed: int) -> SlicePolynomial:
    """(x - q)(x - q2) with q2 = conj(q) + eps u, times 0-2 more factors."""
    s = Stream(seed)
    q = s.unit() * s.uniform(0.3, 0.9)
    eps = 10.0 ** -s.uniform(2, 9)
    q2 = q.conj() + s.unit() * eps
    f = SlicePolynomial.linear(q) * SlicePolynomial.linear(q2)
    for _ in range(s.integer(0, 3)):
        f = f * SlicePolynomial.linear(s.unit() * s.uniform(0.2, 1.6))
    return f


def dyadic_roots(seed: int) -> list[tuple[tuple[int, int, int, int], int]]:
    """The distinct roots of dyadic draw ``seed``: (components in eighths, multiplicity)."""
    rng = random.Random(seed)
    roots = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            eighths = (rng.randint(-6, 6), 0, 0, 0)
        else:
            eighths = tuple(rng.randint(-6, 6) for _ in range(4))
        roots.append((eighths, rng.randint(1, 5)))
    return roots


def _fraction_product(roots) -> list[tuple[Fraction, ...]]:
    """The coefficients of (x - q_1)^{*m_1} (x - q_2)^{*m_2} ... as ``Fraction``s,
    ascending, each as its four components; the product runs on integers in
    units of 8^-degree, which is exact and faster than ``Fraction`` steps."""
    zero = (0,) * 4
    exact, degree = [(1, 0, 0, 0)], 0
    for eighths, m in roots:
        minus_q = tuple(-k for k in eighths)  # -8 q
        for _ in range(m):
            # 8 c * (x - q) has coefficients 8 c_{n-1} - c_n (8 q)
            exact = [tuple(8 * a + b for a, b in zip(hi, qmul_parts(lo, minus_q)))
                     for hi, lo in zip([zero, *exact], [*exact, zero])]
            degree += 1
    return [tuple(Fraction(a, 8**degree) for a in c) for c in exact]


def dyadic_product(roots) -> tuple[SlicePolynomial, bool]:
    """f = (x - q_1)^{*m_1} (x - q_2)^{*m_2} ... from 1, left to right, for
    roots given as (components in eighths, multiplicity); and whether every
    coefficient of f equals the same product in ``Fraction`` arithmetic."""
    f = SlicePolynomial.from_real([1.0])
    for eighths, m in roots:
        for _ in range(m):
            f = f * SlicePolynomial.linear(Quaternion(*(k / 8 for k in eighths)))
    return f, [tuple(map(Fraction, c)) for c in f.coeffs] == _fraction_product(roots)


def _divides(alpha: Fraction, beta2: Fraction, coeffs) -> bool:
    """Whether Delta = x^2 - 2 alpha x + alpha^2 + beta2 divides the
    polynomial of ascending quaternionic coefficients, by exact long
    division: Delta is real, so it divides each component on its own."""
    rem = [list(c) for c in coeffs]
    for n in range(len(rem) - 1, 1, -1):  # cancel x^n with rem[n] x^{n-2} Delta
        lead = rem[n]
        rem[n - 1] = [a + 2 * alpha * b for a, b in zip(rem[n - 1], lead)]
        rem[n - 2] = [a - (alpha * alpha + beta2) * b for a, b in zip(rem[n - 2], lead)]
    return not any(map(any, rem[:2]))


def dyadic_records(roots) -> list[tuple[str, float, float, int]]:
    """The exact zero records of ``dyadic_product(roots)``: (kind, alpha,
    beta, multiplicity), one per sphere, sorted.

    N is multiplicative, so N(f) is the product of the Delta_q^m, and a
    sphere's multiplicity is the sum of the m of its roots; a real root
    counts its m once.  A nonreal sphere is spherical when its Delta
    divides f, else isolated."""
    spheres: dict[tuple[Fraction, Fraction], int] = {}
    for (k0, *im), m in roots:
        sphere = (Fraction(k0, 8), Fraction(sum(k * k for k in im), 64))  # Re q and |Im q|^2
        spheres[sphere] = spheres.get(sphere, 0) + m
    coeffs = _fraction_product(roots)
    return sorted(("real" if not beta2 else "spherical" if _divides(alpha, beta2, coeffs) else "isolated",
                   float(alpha), math.sqrt(beta2), m) for (alpha, beta2), m in spheres.items())


def records_match(records, exact) -> bool:
    """Whether ``classify_zeros`` records and the exact records pair one to
    one: sphere within SPHERE_TOL in alpha and beta, kind and multiplicity
    equal.  Distinct spheres of the family lie more than 1e-3 apart."""
    left = list(records)
    for kind, alpha, beta, m in exact:
        near = [r for r in left if abs(r.alpha - alpha) <= SPHERE_TOL and abs(r.beta - beta) <= SPHERE_TOL]
        if len(near) != 1 or (near[0].kind, near[0].multiplicity) != (kind, m):
            return False
        left.remove(near[0])
    return not left


def records_outcome(roots) -> str:
    """"match" when ``classify_zeros`` of ``dyadic_product(roots)`` pairs with
    ``dyadic_records(roots)``, "named" when it raises a named error, else "wrong"."""
    try:
        records = classify_zeros(dyadic_product(roots)[0])
    except SliceRegError:
        return "named"
    return "match" if records_match(records, dyadic_records(roots)) else "wrong"


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


def probe_near_pair(count: int = NEAR_PAIR_DRAWS) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for seed in range(count):
        f = near_pair(seed)
        cell = counts.setdefault(str(f.degree), {"pass": 0, "named_error": 0, "silent_wrong": 0})
        cell[outcome(f)] += 1
    return dict(sorted(counts.items()))


def probe_dyadic(count: int = DYADIC_DRAWS) -> dict[str, int]:
    counts = {"pass": 0, "named_error": 0, "silent_wrong": 0, "inexact": 0, "wrong_records": 0}
    for seed in range(count):
        roots = dyadic_roots(seed)
        f, exact = dyadic_product(roots)
        counts[outcome(f)] += 1
        counts["inexact"] += not exact
        counts["wrong_records"] += records_outcome(roots) == "wrong"
    return counts


def main() -> None:
    out = {"r": R, "n": N, "draws": DRAWS, "tol": TOL,
           **{family: {str(deg): probe(family, deg) for deg in degrees}
              for family, (_, degrees) in FAMILIES.items()},
           "near_pair": probe_near_pair(), "dyadic": probe_dyadic()}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
