"""Zero classification, total multiplicities and pole structure.

Zeros of a slice polynomial f live on the spheres S_x = alpha + beta*S
where the real-coefficient normal function N(f) vanishes.  One real
polynomial carries them, f itself when f is slice-preserving (N(f) = f^2
doubles every root), else N(f), whose multiplicities are halved: the
numerator polynomial's ``zero_polynomial``, formed once per polynomial,
which the boundary means read too.  ``classify_zeros`` root-finds it, and
``total_multiplicity`` counts divisions of it by the real factor of one
point's sphere.  Roots come from the companion matrix.  Each group of nearby
eigenvalues becomes one sphere once Pellet's test certifies that a disc about
its centroid, holding no other eigenvalue, holds exactly as many roots as the
group has members; that count is the multiplicity, and Newton iteration on a
derivative of matching order, which must converge inside the disc, places the
sphere.  One loop ``_quotients`` divides by real factors, x - r or Delta_y(x)
= x^2 - t(y) x + n(y), for as long as each largest remainder norm is at most
TOL_DIVIDE times its dividend's; counts and cancellations read its quotients.
The certificate, Newton and the division loop run on Python floats.

Rational (semiregular) functions are pairs f = den^{-1} * num with a
slice-preserving denominator, a polynomial being num / 1.  Poles sit on
the spheres of den; on each pole sphere the point orders are constant
except possibly at one point where the numerator vanishes, which carries
an isolated multiplicity equal to its total multiplicity as a zero of the
numerator.

``analyze(f, r)`` is the one zero and pole pass that the Jensen check and
the ``zeros`` command share.  It runs ``classify_zeros`` on the function,
takes den's spheres from the one root finding at construction, and
returns a frozen ``FunctionAnalysis``: a zero record for every zero
sphere, every denominator sphere, the pole records inside the closed
ball of radius r, and the shadows of all of those spheres, one per
sphere, which place the panels of the polar rule.  The zero records are
the only source of zeros: a zero record whose real factor divides a pole
sphere's is its exceptional point, and the pole record copies its
representative and multiplicity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    ClassificationInconsistencyError,
    ZeroDenominatorError,
    ZeroPolynomialError,
)
from .quaternions import InvalidUnitError, Quaternion, pnorm2, split, validate_unit
from .slicepoly import SlicePolynomial, horner

__all__ = [
    "FunctionAnalysis",
    "ZeroRecord",
    "PoleRecord",
    "SemiregularFunction",
    "characteristic_poly",
    "classify_zeros",
    "total_multiplicity",
    "pole_structure",
    "root_spheres",
    "analyze",
    "on_boundary",
]

EPS_CLASS = 1e-8
EPS = float(np.finfo(float).eps)
# radii per Pellet test, geometric from a cluster's spread to its nearest
# outside eigenvalue
PELLET_GRID = 31
# relative widening of ``_pellet_radius``'s window, far above its rounding
PELLET_SLACK = 1e-9
# Division centers are Newton-polished to ~1e-12 relative, so genuine
# factors leave remainders far below this.  The tolerance must stay well
# under beta^(2m) for pole/zero spheres, or the vertex of an even factor
# (x-alpha)^2 + beta^2 raised to a high power would pass for a real root.
TOL_DIVIDE = 1e-9
# width of the boundary sphere relative to max(r, 1), read only through
# on_boundary: spheres this close to r count as on it (hypothesis checks,
# the zero and pole sums) and as inside the closed ball
BOUNDARY_BAND = 1e-9

# (alpha, beta, mult): mult counts roots, a conjugate pair jointly
Sphere = tuple[float, float, int]


def on_boundary(radius: float, r: float) -> bool:
    """Whether a sphere of the given radius sits on the boundary sphere of radius r."""
    return abs(radius - r) <= BOUNDARY_BAND * max(r, 1.0)


# ---------------------------------------------------------------------------
# real-coefficient root machinery
# ---------------------------------------------------------------------------


def _newton_on_derivative(c: list[float], z0: complex, mult: int, real_root: bool) -> tuple[complex, bool]:
    """Polish a root of multiplicity `mult` by Newton on the (mult-1)-th
    derivative, where the root should be simple; c holds Python floats.

    Also reports whether the step size reached 1e-12 relative within the
    60-step budget.  Each step reuses the residual p(z) of the last.  When
    `mult` is lower than the root's multiplicity the iteration contracts
    only linearly and usually runs out of steps; ``_certified_cluster``
    hands it the multiplicity Pellet's test certified.
    """
    d, dp = c, [a * k for k, a in enumerate(c[1:], 1)]
    for _ in range(mult - 1):
        d, dp = dp, [a * k for k, a in enumerate(dp[1:], 1)]
    z = complex(z0.real, 0.0) if real_root else z0
    pz = horner(d, z)  # p(z) at the current z: the residual, then the next numerator
    best, best_res = z, abs(pz)
    converged = False
    for _ in range(60):
        fp = horner(dp, z)
        if abs(fp) < 1e-300:
            break
        step = pz / fp
        z = z - step
        if real_root:
            z = complex(z.real, 0.0)
        pz = horner(d, z)
        res = abs(pz)
        if res < best_res:
            best, best_res = z, res
        if abs(step) <= 1e-12 * (1.0 + abs(z)):
            converged = True
            break
    return best, converged


def _real_factor(alpha: float, beta: float) -> list[float]:
    """Ascending coefficients of the monic real factor of the sphere (alpha, beta):
    x - alpha for beta == 0, else x^2 - 2 alpha x + (alpha^2 + beta^2)."""
    if beta == 0.0:
        return [-alpha, 1.0]
    return [alpha * alpha + beta * beta, -2.0 * alpha, 1.0]


def _columns(c) -> list[list[float]]:
    """The ascending coefficients c, real (m+1,) or quaternion (m+1, 4), as descending
    columns of Python floats, one per component, without leading zero rows."""
    a = np.asarray(c, dtype=float).reshape(len(c), -1)
    return a[: len(np.trim_zeros(a.any(axis=1), "b"))][::-1].T.tolist()


def _largest_norm(cols: list[list[float]]) -> float:
    """The largest |c_k| of a real column, or of quaternion columns (numpy's row norm, bit for bit)."""
    if len(cols) == 1:
        return max(map(abs, cols[0]), default=0.0)
    return math.sqrt(max((w * w + x * x + y * y + z * z for w, x, y, z in zip(*cols)), default=0.0))


def _divide(cols: list[list[float]], d: list[float]) -> tuple[list, list]:
    """Long division of descending columns by a descending monic real d, column by
    column, as each component divides alone; returns (quotient, remainder) columns."""
    qlen = max(len(cols[0]) - len(d) + 1, 0)
    cols = [col[:] for col in cols]
    for col in cols:
        for k in range(qlen):
            for j in range(1, len(d)):
                col[k + j] -= d[j] * col[k]
    return [col[:qlen] for col in cols], [col[qlen:] for col in cols]


def _quotients(cols: list[list[float]], alpha: float, beta: float):
    """The one division loop: the successive quotients of descending columns
    (see ``_columns``) by the real factor of (alpha, beta) while each
    remainder's largest norm is at most TOL_DIVIDE times its dividend's."""
    d, cur = _real_factor(alpha, beta)[::-1], cols
    while len(cur[0]) >= len(d):
        q, rem = _divide(cur, d)
        if _largest_norm(rem) > TOL_DIVIDE * max(_largest_norm(cur), 1e-300):
            return
        yield q
        cur = q


def _division_multiplicity(c, alpha: float, beta: float) -> int:
    """Largest s such that the real factor of (alpha, beta) divides the ascending c s times."""
    return sum(1 for _ in _quotients(_columns(c), alpha, beta))


def _all_distinct(spheres: list[Sphere]) -> bool:
    """Whether no two spheres lie within 1e-3 (1 + radius) of each other.

    Each certified disc holds no eigenvalue of another group, but two
    discs may overlap, and Newton from both centres can land on one
    multiple root counted twice.  Distinct spheres that close are
    rejected loudly rather than kept as two records.
    """
    return all(math.hypot(a1 - a2, b1 - b2) > 1e-3 * (1.0 + max(math.hypot(a1, b1), math.hypot(a2, b2)))
               for (a1, b1, _), (a2, b2, _) in itertools.combinations(spheres, 2))


def _taylor(c: list[float], s: complex) -> tuple[list[complex], list[float]]:
    """Taylor coefficients T_k = p^(k)(s) / k! of p = sum c_k x^k, by repeated
    synthetic division by x - s, and bounds on their rounding errors:
    2 (d + 2) eps times the same recurrence run on |c_k| and |s|."""
    d = len(c) - 1
    b = [complex(x) for x in reversed(c)]  # descending; each pass leaves the quotient in front
    a = [abs(x) for x in reversed(c)]
    size = abs(s)
    t, bound = [], []
    for n in range(d, -1, -1):
        for j in range(1, n + 1):
            b[j] += b[j - 1] * s
            a[j] += a[j - 1] * size
        t.append(b[n])
        bound.append(2.0 * (d + 2) * EPS * a[n])
    return t, bound


def _pellet_radius(c: list[float], s: complex, m: int, lo: float, hi: float) -> float | None:
    """The least radius rho of PELLET_GRID geometric steps from lo towards
    hi at which Pellet's test |T_m| rho^m > sum_{k != m} |T_k| rho^k holds
    with every |T_k| widened, and |T_m| narrowed, by its rounding bound:
    the closed disc of radius rho about s then holds exactly m roots of p.
    Each term alone confines rho to a window, rho > (|T_k| / |T_m|)^(1/(m-k))
    for k < m and rho < (|T_m| / |T_k|)^(1/(k-m)) for k > m: the scan runs
    over that window, widened by PELLET_SLACK, as no radius outside passes."""
    if not lo < hi:
        return None
    t, bound = _taylor(c, s)
    head = abs(t[m]) - bound[m]
    if head <= 0.0:
        return None
    rest = [abs(tk) + ek for tk, ek in zip(t, bound)]
    rest[m] = 0.0
    floor = max((e ** (1.0 / (m - k)) / head ** (1.0 / (m - k)) for k, e in enumerate(rest[:m])), default=0.0)
    ceil = min((head ** (1.0 / (k - m)) / e ** (1.0 / (k - m)) for k, e in enumerate(rest) if k > m and e > 0.0),
               default=math.inf)
    floor, ceil = floor * (1.0 - PELLET_SLACK), ceil * (1.0 + PELLET_SLACK)
    first = PELLET_GRID * math.log(floor / lo) / math.log(hi / lo) if floor > lo else 0.0
    for j in range(math.floor(min(PELLET_GRID, first)), PELLET_GRID):
        rho = lo * (hi / lo) ** (j / PELLET_GRID)
        if rho >= ceil:
            return None
        if head * rho**m > horner(rest, rho).real:
            return rho
    return None


def _certified_cluster(coef: list[float], pts: list[complex], free: list[int]) -> tuple[Sphere, list[int]]:
    """The sphere of the first unassigned eigenvalue, pts[free[0]], and the
    indices of the eigenvalues it accounts for.

    Its group is its m nearest unassigned eigenvalues for the least m at
    which a disc about their centroid s holds no other eigenvalue, misses
    the real axis unless the group is closed under conjugation, and passes
    ``_pellet_radius``.  Newton on the (m-1)-th derivative from s must
    converge inside that disc; the result is a real m-fold root, or an
    m-fold nonreal one whose sphere also takes the mirror group."""
    seed = pts[free[0]]
    near = sorted(free, key=lambda i: abs(pts[i] - seed))
    for m in range(1, len(near) + 1):
        group = sorted(near[:m])
        members = [pts[i] for i in group]
        closed = sorted((z.real, z.imag) for z in members) == sorted((z.real, -z.imag) for z in members)
        s = sum(members) / m
        s = complex(s.real, 0.0) if closed else s
        lo = max(max(abs(z - s) for z in members), EPS * (1.0 + abs(s)))
        hi = min((abs(z - s) for i, z in enumerate(pts) if i not in group), default=None)
        if hi is None:  # every eigenvalue: Cauchy's bound puts all m roots in this disc
            rho = abs(s) + 1.0 + max(map(abs, coef[:-1])) / abs(coef[-1])
        else:
            if not closed:  # p is real: the mirror disc about conj(s) has the same certificate
                hi = min(hi, abs(s.imag))
                group += [i for i in free if abs(pts[i].conjugate() - s) <= lo and i not in group]
                s = complex(s.real, abs(s.imag))
            rho = _pellet_radius(coef, s, m, lo, hi)
            if rho is None:
                continue
        w, converged = _newton_on_derivative(coef, s, m, real_root=closed)
        if not converged or abs(w - s) > rho:
            raise ClassificationInconsistencyError(f"Newton from the certified {m}-root cluster at {s:.6g} "
                                                   f"does not converge inside radius {rho:.3g}")
        return ((w.real, 0.0, m) if closed else (w.real, abs(w.imag), 2 * m)), group
    raise ClassificationInconsistencyError(f"no cluster about the eigenvalue {seed:.6g} passes Pellet's test")


def root_spheres(coeffs: Sequence[float]) -> list[Sphere]:
    """Roots of a real polynomial folded onto the closed upper half-plane.

    Returns (alpha, beta, mult) triples where mult counts a conjugate
    pair jointly for beta > 0 (so mult is even there) and is the plain
    multiplicity for real roots.  Every companion eigenvalue belongs to
    one ``_certified_cluster``, so the triples account for the full
    degree; a cluster that cannot be certified, a Newton polish that
    leaves its disc, or two spheres that are not ``_all_distinct`` raise
    ``ClassificationInconsistencyError``.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size == 0:
        raise ZeroPolynomialError("root finding on the zero polynomial")
    deg = len(c) - 1
    pts = [complex(z) for z in np.roots(c[::-1])]
    free = list(range(deg))
    spheres: list[Sphere] = []
    coef = c.tolist()  # Python floats: the Taylor shifts and Newton run on scalars
    while free:
        sphere, taken = _certified_cluster(coef, pts, free)
        spheres.append(sphere)
        free = [i for i in free if i not in taken]
    if not _all_distinct(spheres):
        raise ClassificationInconsistencyError(f"could not reconcile root multiplicities for degree-{deg} polynomial")
    return sorted(spheres, key=lambda t: (round(t[0], 9), round(t[1], 9)))


# ---------------------------------------------------------------------------
# zeros of slice polynomials
# ---------------------------------------------------------------------------

ZeroKind = Literal["real", "spherical", "isolated"]


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    kind: ZeroKind
    representative: Quaternion
    alpha: float
    beta: float
    multiplicity: int

    @property
    def point_radius(self) -> float:
        return math.hypot(self.alpha, self.beta)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "representative": list(self.representative),
            "sphere": [self.alpha, self.beta],
            "total_multiplicity": self.multiplicity,
        }


def characteristic_poly(y: Quaternion) -> SlicePolynomial:
    """Delta_y(x) = N(x - y) = x^2 - t(y) x + n(y)."""
    return SlicePolynomial.from_real([y.norm2(), -y.trace(), 1.0])


def total_multiplicity(f, y: Quaternion) -> int:
    """Largest s with Delta_y^s dividing N(num); 0 when y is not a zero.
    Counted by division of num's ``zero_polynomial`` by the real
    factor of y's sphere, x - y for a real y, else Delta_y."""
    c, per_unit = f.num.zero_polynomial
    alpha, beta, _ = split(y.pair())
    s = _division_multiplicity(c, alpha, beta)
    return (s if beta == 0.0 else 2 * s) // per_unit


def classify_zeros(f) -> list[ZeroRecord]:
    """Classified zero records of the numerator of f, a polynomial or a
    ``SemiregularFunction``: one per root sphere of num's ``zero_polynomial``.

    Spherical zeros use the representative alpha + i*beta; isolated
    nonreal zeros are located from the stem by J* = -F1(z) F2(z)^{-1}, and
    a J* that cannot be formed or is no unit raises ``ClassificationInconsistencyError``.
    One ``eval`` takes every isolated candidate, each of which must annihilate f."""
    num = f.num
    c, per_unit = num.zero_polynomial
    records, isolated = [], []  # every record; each isolated candidate with its EPS_CLASS * scale
    try:
        for alpha, beta, roots in root_spheres(c):
            mult = roots // per_unit
            if beta == 0.0:
                records.append(ZeroRecord("real", Quaternion.real(alpha), alpha, 0.0, mult))
                continue
            f1, f2 = num.stem_components(alpha, beta)
            scale = num.stem_scale(math.hypot(alpha, beta))
            if f1.abs() <= EPS_CLASS * scale and f2.abs() <= EPS_CLASS * scale:
                rep = Quaternion(alpha, beta, 0.0, 0.0)  # alpha + i*beta
                records.append(ZeroRecord("spherical", rep, alpha, beta, mult))
                continue
            if f2.abs() <= EPS_CLASS * scale:
                raise ClassificationInconsistencyError(f"sphere ({alpha:.6g}, {beta:.6g}) carries a root "
                                                       "but F2 ~ 0 != F1")
            try:
                jstar = validate_unit(-(f1 * f2.inverse()))
            except (ZeroDivisionError, InvalidUnitError) as e:
                raise ClassificationInconsistencyError(f"sphere ({alpha:.6g}, {beta:.6g}) has no unit J*: {e}") from e
            records.append(ZeroRecord("isolated", Quaternion(alpha, 0.0, 0.0, 0.0) + jstar * beta, alpha, beta, mult))
            isolated.append((records[-1], EPS_CLASS * scale))
    finally:  # a failing candidate is the first error, also when a later sphere raised
        if isolated:
            values = num.eval(tuple(map(np.array, zip(*(rec.representative.pair() for rec, _ in isolated)))))
            for (rec, tol), value in zip(isolated, np.sqrt(pnorm2(values)).tolist()):
                if value > tol:
                    raise ClassificationInconsistencyError(f"candidate isolated zero at sphere ({rec.alpha:.6g}, "
                                                           f"{rec.beta:.6g}) does not annihilate f")
    return records


# ---------------------------------------------------------------------------
# semiregular functions
# ---------------------------------------------------------------------------


class SemiregularFunction:
    """f = den^{-1} * num with a slice-preserving denominator.

    ``den`` is its monic real coefficients, formed once from the given
    ``SlicePolynomial``: a read-only float64 array, ascending, whose last
    entry is exactly 1.0.  Construction cancels shared factors: real-linear
    factors present in both, and full characteristic quadratics Delta_b
    dividing both.  Partial vanishing of num on a pole sphere (a single
    point) is deliberately kept: it is pole structure, not a common factor.
    ``den_spheres`` are the reduced den's root spheres.  The zero pass, the
    boundary means and the oracle read num's ``zero_polynomial``, which num
    forms once, whatever wraps it.
    """

    __slots__ = ("den", "num", "den_spheres")

    def __init__(self, den: SlicePolynomial, num: SlicePolynomial):
        if den.is_zero:
            raise ZeroDenominatorError("denominator is identically zero")
        if not den.is_slice_preserving():
            raise ValueError("denominator must have real coefficients")
        # divide, not scale by 1/lead: lead / lead is exactly 1.0; x / 1.0 is x
        lead = den.coeffs[-1].w
        den = np.array([c.w for c in den.coeffs])
        if lead != 1.0:
            den, num = den / lead, SlicePolynomial([c / lead for c in num.coeffs])
        spheres = root_spheres(den) if len(den) > 1 else []
        if spheres and not num.is_zero:
            den, num, spheres = _reduce_pair(den, num, spheres)
        den.setflags(write=False)  # immutable, as the function is
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_spheres", tuple(spheres))

    def __setattr__(self, name, value):
        raise AttributeError("SemiregularFunction is immutable")

    def stem_arrays(self, z) -> tuple[tuple, tuple]:
        """Stems of den^{-1} * num as pairs: complex 1/d(z) = u + i v times
        the num stems, F1 u - F2 v and F1 v + F2 u, component by component."""
        f1, f2 = self.num.stem_arrays(z)
        inv = 1.0 / horner(self.den, z)
        u, v = inv.real, inv.imag
        return tuple(a * u - b * v for a, b in zip(f1, f2)), tuple(a * v + b * u for a, b in zip(f1, f2))

    def stem_scale(self, radius: float) -> float:
        """num's scale over den's: the stems are num's divided by den(z)."""
        return self.num.stem_scale(radius) / horner(np.abs(self.den), radius).real

    def __repr__(self) -> str:  # pragma: no cover
        return f"SemiregularFunction(den={self.den!r}, num={self.num!r})"


def _reduce_pair(den: np.ndarray, num: SlicePolynomial, spheres: list[Sphere]) -> tuple:
    """Divide every real factor of the monic den that also divides num out of
    both: at most as many of num's quotients as den holds, den alongside by
    ``_divide`` too.  den stays monic, and its root spheres lose what is divided out."""
    den, cols, kept = _columns(den), _columns(num.coeffs), []
    for alpha, beta, mult in spheres:
        per = 1 if beta == 0.0 else 2
        k = 0  # zip asks range first, so no division past the k-th is made
        for k, cols in zip(range(1, mult // per + 1), _quotients(cols, alpha, beta)):
            den, _ = _divide(den, _real_factor(alpha, beta)[::-1])
        if mult > per * k:
            kept.append((alpha, beta, mult - per * k))
    return np.array(den[0][::-1]), SlicePolynomial(map(Quaternion, *(col[::-1] for col in cols))), kept


# ---------------------------------------------------------------------------
# pole structure
# ---------------------------------------------------------------------------

PoleKind = Literal["real", "spherical_uniform", "spherical_nonuniform"]


@dataclass(frozen=True, slots=True)
class PoleRecord:
    kind: PoleKind
    representative: Quaternion  # real point, or alpha + i*beta on the sphere
    alpha: float
    beta: float
    order: int  # order of the real pole / generic point order on the sphere
    spherical_order: int = 0  # 2 * max point order; 0 for real poles
    exceptional_point: Quaternion | None = None
    exceptional_order: int = 0
    isolated_multiplicity: int = 0

    @property
    def point_radius(self) -> float:
        return math.hypot(self.alpha, self.beta)

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "representative": list(self.representative),
            "sphere": [self.alpha, self.beta],
            "order": self.order,
            "spherical_order": self.spherical_order,
        }
        if self.kind == "spherical_nonuniform":
            d["exceptional_point"] = list(self.exceptional_point)
            d["exceptional_order"] = self.exceptional_order
            d["isolated_multiplicity"] = self.isolated_multiplicity
        return d


def pole_structure(spheres: Sequence[Sphere], zeros: Sequence[ZeroRecord], region_radius: float) -> list[PoleRecord]:
    """Pole records inside the closed ball of the given radius or on its
    boundary band (``on_boundary``), from the root spheres of den and the
    zero records of num.

    Real poles carry their order (denominator multiplicity after
    reduction).  Spherical poles have generic point order nu = the power
    of Delta_b left in den.  A zero record on the same sphere is the one
    point where the numerator vanishes: that point has lesser order
    max(nu - m, 0) and isolated multiplicity m, the record's total
    multiplicity, and the pole becomes nonuniform with the record's
    representative as its exceptional point.  A record is on a sphere
    when its real factor divides the sphere's at TOL_DIVIDE.
    """
    records: list[PoleRecord] = []
    for alpha, beta, mult in spheres:
        radius = math.hypot(alpha, beta)
        if radius > region_radius and not on_boundary(radius, region_radius):
            continue
        if beta == 0.0:
            records.append(PoleRecord("real", Quaternion.real(alpha), alpha, 0.0, order=mult))
            continue
        nu = mult // 2
        rep = Quaternion(alpha, beta, 0.0, 0.0)
        zero = next((z for z in zeros if _division_multiplicity(_real_factor(alpha, beta), z.alpha, z.beta)), None)
        if zero is None:
            records.append(PoleRecord("spherical_uniform", rep, alpha, beta, order=nu, spherical_order=2 * nu))
            continue
        if zero.kind == "spherical":
            raise ClassificationInconsistencyError(
                "numerator vanishes on a whole pole sphere after reduction"
            )
        records.append(PoleRecord("spherical_nonuniform", rep, alpha, beta, order=nu, spherical_order=2 * nu,
                                  exceptional_point=zero.representative,
                                  exceptional_order=max(nu - zero.multiplicity, 0),
                                  isolated_multiplicity=zero.multiplicity))
    return records


# ---------------------------------------------------------------------------
# one analysis per function and radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FunctionAnalysis:
    """The zeros and poles of one function at one radius r.

    ``zeros`` has a record for every zero sphere of the numerator and
    ``pole_spheres`` every root sphere of the denominator, whatever
    their radius; ``poles`` has the pole records inside the closed ball.
    """

    radius: float
    zeros: tuple[ZeroRecord, ...]
    pole_spheres: tuple[Sphere, ...]
    poles: tuple[PoleRecord, ...]

    @property
    def free_zeros(self) -> list[ZeroRecord]:
        """The zeros that no pole record in the ball claimed as its
        exceptional point; the claimed ones are listed with their pole."""
        claimed = [p.exceptional_point for p in self.poles if p.kind == "spherical_nonuniform"]
        return [z for z in self.zeros if z.representative not in claimed]

    @property
    def shadows(self) -> list[complex]:
        """alpha + i beta of every zero and pole sphere, once: a zero that a
        pole claimed lies on the pole's sphere and adds no shadow of its own."""
        return [complex(z.alpha, z.beta) for z in self.free_zeros] + [complex(a, b) for a, b, _ in self.pole_spheres]

    @property
    def boundary_gap(self) -> float:
        """min over every zero and pole sphere of |sphere radius - r| / r."""
        return min((abs(abs(s) - self.radius) / self.radius for s in self.shadows), default=math.inf)


def analyze(f, r: float) -> FunctionAnalysis:
    """Zero and pole records of f at radius r from one ``classify_zeros``
    of the function and the ``den_spheres`` found at construction.

    Only a zero record whose real factor divides a pole sphere's
    (``pole_structure``) can be its exceptional point: a zero merely near a
    pole sphere stays a free zero, and the pole stays uniform.
    """
    zeros = classify_zeros(f)
    return FunctionAnalysis(r, tuple(zeros), f.den_spheres, tuple(pole_structure(f.den_spheres, zeros, r)))
