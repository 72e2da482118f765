"""The ledger of hard cases: every generator of a hard input (exact
multiple spheres, spheres near |x| = r, nearby pairs), every pinned
input, and each pinned input's outcome today.  Tier-1 and the scripts
import it; the scripts add ``tests/`` to ``sys.path``.

Five families of products f = prod (x - a_k), k = 0 .. deg - 1, from 1:

- real, a = uniform(0.2, 0.9) * choice([-1, 1]), and quaternionic, q =
  d/|d| * 1.3 u^(1/4) with d = normal(size=4), u = uniform(): every
  factor from ``numpy.random.default_rng(deg)``, ``DRAWS`` draws in a row;
- annuli, from ``verify.Stream(seed)``: |q| = uniform(0.2, 0.8) for even
  k and uniform(1.3, 2.0) for odd k, then q = unit() * |q|;
- near-pair, from ``verify.Stream(seed)``: q = unit() * uniform(0.3, 0.9),
  eps = 10^-uniform(2, 9), q2 = conj(q) + eps * unit(), then integer(0,
  3) more factors at unit() * uniform(0.2, 1.6); q and q2 lie within eps
  of one sphere, where the stems that form J* = -F1 F2^-1 nearly vanish;
- dyadic, exact multiple roots from ``random.Random(seed)``: randint(1, 3)
  distinct roots, real when random() < 0.3 with one component
  randint(-6, 6) / 8, else with four such components, each of
  multiplicity randint(1, 5).  The coefficients are exact in binary64,
  and ``dyadic_records`` gives the exact zero records.

Each ``Case`` of ``LEDGER`` records its outcome under ``judge`` ("pass",
"named" with its error type, or "wrong"); ``params`` makes every "wrong"
entry a strict xfail.  A failure found later, shrunk, becomes a new
entry; no entry is resized or re-seeded to hide a defect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from slicereg.errors import ClassificationInconsistencyError, NonFiniteIntegrandError, SliceRegError
from slicereg.io import polynomial_to_dict
from slicereg.jensen import jensen_check
from slicereg.quaternions import Quaternion
from slicereg.slicepoly import SlicePolynomial
from slicereg.verify import Stream
from slicereg.zeros_poles import SemiregularFunction, characteristic_poly, classify_zeros

R = 1.0
N = 48
TOL = 1e-9  # a residual at most this passes
SPHERE_TOL = 1e-6  # records and exact spheres pair within this in alpha and beta
DRAWS = 10
NEAR_PAIR_DRAWS = 100
DYADIC_DRAWS = 400
# Outcomes of the near-pair draws, and the least number of dyadic draws
# whose records match the exact ones, with the pinned dyadic seeds left out
NEAR_PAIR_OUTCOMES = {"pass": 36, "named": 64}
DYADIC_MATCHES = 371


# -- the root_probe families ----------------------------------------------


def real_root(rng, k: int) -> Quaternion:
    return Quaternion.real(rng.uniform(0.2, 0.9) * rng.choice([-1, 1]))


def quaternionic_root(rng, k: int) -> Quaternion:
    d = rng.normal(size=4)
    return Quaternion.from_array(d / np.linalg.norm(d) * 1.3 * rng.uniform() ** 0.25)


def annulus_root(stream: Stream, k: int) -> Quaternion:
    radius = stream.uniform(*((0.2, 0.8), (1.3, 2.0))[k % 2])
    return stream.unit() * radius


FAMILIES = {"real": (real_root, (4, 6, 8, 10, 12, 16)), "quaternionic": (quaternionic_root, (8, 12, 16)),
            "annuli": (annulus_root, (12, 16, 20, 24, 32))}


def product(roots) -> SlicePolynomial:
    """(x - q_0)(x - q_1) ... from 1, left to right."""
    f = SlicePolynomial.from_real([1.0])
    for q in roots:
        f = f * SlicePolynomial.linear(q)
    return f


def real_rooted(roots) -> SlicePolynomial:
    """The product of the (x - a) for real a."""
    return product(map(Quaternion.real, roots))


def family_roots(family: str, deg: int, count: int) -> list[list[Quaternion]]:
    """The roots q_0 .. q_{deg-1} of the first ``count`` draws of one family and degree."""
    root = FAMILIES[family][0]
    rng = np.random.default_rng(deg)
    sources = (Stream(seed) if family == "annuli" else rng for seed in range(count))
    return [[root(source, k) for k in range(deg)] for source in sources]


def near_pair(seed: int) -> SlicePolynomial:
    """(x - q)(x - q2) with q2 = conj(q) + eps u, times 0-2 more factors."""
    s = Stream(seed)
    q = s.unit() * s.uniform(0.3, 0.9)
    eps = 10.0 ** -s.uniform(2, 9)
    f = SlicePolynomial.linear(q) * SlicePolynomial.linear(q.conj() + s.unit() * eps)
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
            exact = [tuple(8 * a + b for a, b in zip(hi, Quaternion(*lo) * Quaternion(*minus_q)))
                     for hi, lo in zip([zero, *exact], [*exact, zero])]
            degree += 1
    return [tuple(Fraction(a, 8**degree) for a in c) for c in exact]


def dyadic_product(roots) -> tuple[SlicePolynomial, bool]:
    """f = (x - q_1)^{*m_1} (x - q_2)^{*m_2} ... from 1, left to right, for
    roots given as (components in eighths, multiplicity); and whether every
    coefficient of f equals the same product in ``Fraction`` arithmetic."""
    f = product(Quaternion(*(k / 8 for k in eighths)) for eighths, m in roots for _ in range(m))
    return f, [tuple(map(Fraction, c)) for c in f.coeffs] == _fraction_product(roots)


def dyadic_function(roots) -> SlicePolynomial:
    return dyadic_product(roots)[0]


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


def judge(f, tol: float = TOL, exact=None) -> tuple[str, type[SliceRegError] | None]:
    """The outcome of one input and the type of its named error, if any.
    With ``exact`` records, ``classify_zeros(f)`` is judged against them;
    else ``jensen_check(f, R, N, diagnostics=False)`` passes at |residual|
    <= tol.  Any other exception propagates."""
    try:
        if exact is not None:
            return ("pass" if records_match(classify_zeros(f), exact) else "wrong"), None
        residual = jensen_check(f, R, N, diagnostics=False).residual
    except SliceRegError as exc:
        return "named", type(exc)
    return ("pass" if math.isfinite(residual) and abs(residual) <= tol else "wrong"), None


# -- spheres near the boundary ------------------------------------------------


NEAR_ANGLE = 3.0 * math.pi / 8.0  # the polar angle of every near-boundary sphere
INNER = (SlicePolynomial.linear(Quaternion(0.2, 0.3, -0.1, 0.25))
         * SlicePolynomial.linear(Quaternion(-0.4, 0.1, 0.2, -0.05)))


def sphere_at(radius: float, direction=(0.3, -0.5, 0.8)) -> SlicePolynomial:
    """Delta of the sphere of radius ``radius`` at polar angle NEAR_ANGLE,
    through radius (cos NEAR_ANGLE + u sin NEAR_ANGLE), u = direction / |direction|."""
    u = np.array(direction, dtype=float)
    u *= radius * math.sin(NEAR_ANGLE) / np.linalg.norm(u)
    return characteristic_poly(Quaternion(radius * math.cos(NEAR_ANGLE), *u))


def boundary_sphere(m: int, radius: float) -> SlicePolynomial:
    """Delta^m of ``sphere_at(radius)``, a spherical zero of multiplicity 2m, times ``INNER``."""
    return sphere_at(radius) ** m * INNER


def sp_boundary_sphere(m: int, radius: float) -> SlicePolynomial:
    """Delta^m of ``sphere_at(radius)`` times (x - 0.3)(x + 0.5): slice-preserving,
    so its zero polynomial is f itself and N(f) = f^2 is never formed."""
    return sphere_at(radius) ** m * real_rooted([0.3, -0.5])


def near_boundary_functions(seed: int) -> dict:
    """A zero sphere and a pole sphere at 0.99 r, polar angle NEAR_ANGLE,
    each times two seeded linear factors with roots at radius 0.3-0.6,
    drawn in the order of the benchmark's near-boundary workload."""
    rng = np.random.default_rng(seed)

    def inner_factor():
        d = rng.normal(size=4)
        return SlicePolynomial.linear(Quaternion.from_array(d * (rng.uniform(0.3, 0.6) / np.linalg.norm(d))))

    zero_sphere = sphere_at(0.99, rng.normal(size=3)) * inner_factor() * inner_factor()
    pole_sphere = SemiregularFunction(sphere_at(0.99, rng.normal(size=3)), inner_factor() * inner_factor())
    return {"zero_sphere": zero_sphere, "pole_sphere": pole_sphere}


# -- shared factors -----------------------------------------------------------


def shared_factor_functions() -> dict[str, dict]:
    """Two rationals whose num and den share real factors, as written, so
    that loading one divides them out of both; q = (0.2, 0.3, -0.1, 0.4)
    and Delta(alpha, beta) = x^2 - 2 alpha x + alpha^2 + beta^2:
    (x - 0.5) Delta(0.1, 0.6) (x - q) over (x - 0.5)^2 Delta(0.1, 0.6) (x + 2),
    and Delta(-0.3, 0.4)^2 (x - q) over 3 Delta(-0.3, 0.4) (x - 0.6)."""
    x_q = SlicePolynomial.linear(Quaternion(0.2, 0.3, -0.1, 0.4))

    def x_minus(a: float) -> SlicePolynomial:
        return SlicePolynomial.from_real([-a, 1.0])

    def delta(alpha: float, beta: float) -> SlicePolynomial:
        return characteristic_poly(Quaternion(alpha, beta, 0.0, 0.0))

    pairs = {
        "shared-real-and-delta": (x_minus(0.5) * delta(0.1, 0.6) * x_q,
                                  x_minus(0.5) ** 2 * delta(0.1, 0.6) * x_minus(-2.0)),
        "shared-delta-scaled-den": (delta(-0.3, 0.4) ** 2 * x_q,
                                    SlicePolynomial.from_real([3.0]) * delta(-0.3, 0.4) * x_minus(0.6)),
    }
    return {name: {"num": polynomial_to_dict(num), "den": polynomial_to_dict(den)}
            for name, (num, den) in pairs.items()}


# -- the ledger -------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One pinned input, ``make(*args)``, its outcome today, the ROADMAP
    item that owns its defect and what goes wrong; with ``records``,
    ``classify_zeros`` is judged against ``dyadic_records(*args)``."""

    name: str
    make: Callable
    args: tuple
    outcome: str
    error: type[SliceRegError] | None = None
    item: int | None = None
    why: str = ""
    tol: float = TOL
    records: bool = False

    def run(self) -> tuple[str, type[SliceRegError] | None]:
        return judge(self.make(*self.args), self.tol, dyadic_records(*self.args) if self.records else None)


def dyadic(name, roots, outcome, error=None, item=None, why="", records=False) -> Case:
    """A case of exact dyadic roots, (components in eighths, multiplicity) in factor order."""
    return Case(name, dyadic_function, (roots,), outcome, error, item, why, records=records)


# Pellet certifies a count of roots, not one root (ROADMAP item 2)
MERGED = "distinct exact multiple spheres come back as one record, with no named error"
ONE_RECORD = ("Pellet's group of every eigenvalue is accepted on Cauchy's bound with no test: distinct exact "
              "spheres come back as one record of every root, with no named error")
NEXT_TO_MULTIPLE = ("a simple root ~1e-2 from a multiple one is located only to ~2e-10 in double-precision "
                    "Horner; residual 1.0e-10 to 3.6e-9")
NEXT_TO_MULTIPLE_TOL = 1e-10  # the bound of the real-rooted property test these were found by
STEMS = ("Horner on the zero polynomial's expanded coefficients (N(f), or f when slice-preserving) falls under "
         "its rounding floor next to a multiple sphere")
NFIE, CIE = NonFiniteIntegrandError, ClassificationInconsistencyError


def next_to_multiple(name, roots) -> Case:
    return Case(name, real_rooted, (roots,), "wrong", item=2, why=NEXT_TO_MULTIPLE, tol=NEXT_TO_MULTIPLE_TOL)


def at_boundary(m, radius, outcome, error=None, item=None, why="") -> Case:
    return Case(f"boundary-sphere-m{m}-{radius}", boundary_sphere, (m, radius), outcome, error, item, why)


def sp_at_boundary(m, radius, outcome, error=None) -> Case:
    return Case(f"sp-boundary-sphere-m{m}-{radius}", sp_boundary_sphere, (m, radius), outcome, error, 5,
                STEMS if error else "")


LEDGER = (
    # two isolated spheres come back as one isolated 7-fold sphere; residual -2.98e-3
    dyadic("merged-0", [((3, 4, -2, 3), 3), ((3, -5, 1, -1), 4)], "wrong", item=2, why=MERGED),
    # the next four come back as one real 8-, 10- or 15-fold zero; residuals -8.98, -1.21, -7.18, -513.5
    dyadic("merged-1", [((3, 4, 4, 1), 5), ((3, 2, 3, 4), 3)], "wrong", item=2, why=MERGED),
    dyadic("merged-2", [((5, 0, 0, 0), 5), ((5, 2, -3, -2), 5)], "wrong", item=2, why=MERGED),
    dyadic("merged-3", [((4, 0, -3, 5), 5), ((3, 3, 4, 2), 5)], "wrong", item=2, why=MERGED),
    dyadic("merged-4", [((-2, 0, -5, 4), 5), ((2, 1, 3, 0), 5), ((-2, -3, 4, -2), 5)], "wrong", item=2, why=MERGED),
    dyadic("fivefold-near-boundary", [((-3, 0, 0, 0), 1), ((5, -3, 5, 2), 5), ((2, -5, -3, 0), 4)], "wrong",
           item=5, why="the records are right (zero sum within 2e-11), but next to the 5-fold sphere at 0.992 r "
                       "the means leave the residual at -2.40e-8 at n = 48, 1.0e-7 at n = 96, with no named error"),
    # dyadic draws whose records hold every root in one; ``jensen`` names an
    # error on 11, 26, 300 (not finite) and 202 (zero at the origin), and
    # returns a residual of -1.21 on 175
    dyadic("dyadic-seed-11", dyadic_roots(11), "wrong", item=2, why=ONE_RECORD, records=True),
    dyadic("dyadic-seed-26", dyadic_roots(26), "wrong", item=2, why=ONE_RECORD, records=True),
    dyadic("dyadic-seed-175", dyadic_roots(175), "wrong", item=2, why=ONE_RECORD, records=True),
    dyadic("dyadic-seed-202", dyadic_roots(202), "wrong", item=2, why=ONE_RECORD, records=True),
    dyadic("dyadic-seed-300", dyadic_roots(300), "wrong", item=2, why=ONE_RECORD, records=True),
    # a simple root next to a multiple one: the first two were found by the
    # real-rooted property test at 500 derandomized examples, the next three
    # lie in its domain but outside the examples it draws
    next_to_multiple("next-to-multiple-0", [-0.625, -0.6875, -0.6875, -0.6875, -0.671875]),
    next_to_multiple("next-to-multiple-1", [-0.5, -0.5, -0.25, -0.21875, -0.21875, -0.2109375]),
    next_to_multiple("next-to-multiple-2", [0.49288920739965586, 0.49288920739965586, 0.48908274251912964,
                                            0.49288920739965586, 0.21274188205758993]),
    next_to_multiple("next-to-multiple-3", [0.2828993260267361, 0.25, -0.7602910065215989, 0.2293379796696417,
                                            0.5394443732265082, 0.25, 0.2293379796696417, 0.5564548216486818]),
    next_to_multiple("next-to-multiple-4", [-0.5, -0.5, -0.375, -0.4375, -0.435546875]),
    # found by the property test on draws of an edited source: 0.5390625 is
    # located to 1.7e-10 next to the triple 0.53125; residual -2.65e-10
    next_to_multiple("next-to-multiple-5", [0.5390625, -0.7921002148014171, 0.53125, 0.53125, 0.375, 0.53125,
                                            -0.5]),
    # Delta^m of ``sphere_at(radius)`` times INNER, ROADMAP item 5's table;
    # the residual or error is noted where it is not a pass at roundoff
    at_boundary(1, 0.99, "pass"),
    at_boundary(1, 0.999, "pass"),
    at_boundary(1, 1.001, "pass"),
    at_boundary(1, 1.01, "pass"),
    at_boundary(2, 0.99, "pass"),
    at_boundary(2, 0.999, "pass"),  # 4.4e-10
    at_boundary(2, 1.001, "wrong", item=5, why=f"{STEMS}: residual 4.4e-9"),
    at_boundary(2, 1.01, "pass"),
    at_boundary(3, 0.99, "pass"),  # -7.9e-10
    at_boundary(3, 0.999, "named", NFIE, item=5, why=STEMS),
    at_boundary(3, 1.001, "named", NFIE, item=5, why=STEMS),
    at_boundary(3, 1.01, "wrong", item=5, why=f"{STEMS}: residual 8.6e-8"),
    at_boundary(4, 0.99, "named", NFIE, item=5, why=STEMS),
    at_boundary(4, 0.999, "named", NFIE, item=5, why=STEMS),
    at_boundary(4, 1.001, "named", NFIE, item=5, why=STEMS),
    at_boundary(4, 1.01, "named", NFIE, item=5, why=STEMS),
    *(at_boundary(m, radius, "named", CIE, item=2, why="no cluster of a 10-fold or more sphere passes Pellet's test")
      for m in (5, 6, 8) for radius in (0.99, 0.999, 1.001, 1.01)),
    # ``sp_boundary_sphere``, ROADMAP item 5's slice-preserving table: the
    # means read log|f| off f's own coefficients; each entry that raises
    # pins the node-hit gate
    *(sp_at_boundary(2, radius, "pass") for radius in (0.99, 0.999, 1.001, 1.01)),
    sp_at_boundary(3, 0.99, "pass"),
    sp_at_boundary(3, 0.999, "named", NFIE),
    sp_at_boundary(3, 1.001, "named", NFIE),
    sp_at_boundary(3, 1.01, "pass"),
    *(sp_at_boundary(4, radius, "named", NFIE) for radius in (0.99, 0.999, 1.001, 1.01)),
)


def params() -> list:
    """The ledger as pytest parameters named by the case; every "wrong"
    entry is a strict xfail, so that its fix fails until the entry is flipped."""
    import pytest

    return [pytest.param(c, id=c.name, marks=[pytest.mark.xfail(strict=True, reason=c.why)]
                         if c.outcome == "wrong" else []) for c in LEDGER]
