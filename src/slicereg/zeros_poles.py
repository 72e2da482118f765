"""Zero classification, total multiplicities, pole structure and Blaschke
regularization.

Zeros of a slice polynomial f live on spheres S_x = alpha + beta*S: the
real-coefficient normal function N(f) vanishes exactly on the union of
those spheres, so zero location reduces to root finding for a real
polynomial in one complex variable.  Roots come from the companion
matrix, are clustered into spheres, re-centered by Newton iteration on a
derivative of matching order, and validated by repeated division with
the real factor (x - r) or Delta_y(x) = x^2 - t(y) x + n(y).  The
division count is the authoritative multiplicity; when eigenvalue
scatter of a multiple root splits a cluster, the cluster tolerance is
escalated until the division counts account for the whole degree;
a cluster that a rung leaves unchanged keeps the verdict of the rung
that formed it, so each cluster is validated once per call.  One long
division ``_divide``, on real coefficients or quaternion rows, does all
division by real factors; a division counts when the largest remainder
coefficient norm is at most TOL_DIVIDE times the dividend's.

Rational (semiregular) functions are pairs f = den^{-1} * num with a
slice-preserving denominator.  Poles sit on the spheres of den; on each
pole sphere the point orders are constant except possibly at one point
where the numerator vanishes, which carries an isolated multiplicity
equal to its total multiplicity as a zero of the numerator.  Blaschke
reciprocals with unit modulus on the boundary sphere absorb the poles;
``regularize`` multiplies them onto f and returns the pole-free product.

``analyze(f, r)`` is the one zero and pole pass that the Jensen check,
the ``zeros`` command and ``regularize`` share.  It runs the root finder
once on N(num) and once on den and returns a frozen ``FunctionAnalysis``:
a zero record for every zero sphere, every denominator sphere, the pole
records inside the closed ball of radius r, and the shadows of all of
those spheres, which place the panels of the polar rule.  The zero
records are the only source of zeros: a zero record whose real factor
divides den is the exceptional point of that pole sphere, and the pole
record copies its representative and multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    ClassificationInconsistencyError,
    InvalidPoleError,
    PoleOnBoundaryError,
    PoleOutsideRegionError,
    ZeroDenominatorError,
    ZeroPolynomialError,
)
from .quaternions import Quaternion, decompose, validate_unit
from .slicepoly import TRIM_REL, SlicePolynomial, StemValue, horner, normal, slice_product

__all__ = [
    "FunctionAnalysis",
    "ZeroRecord",
    "PoleRecord",
    "SemiregularFunction",
    "characteristic_poly",
    "zero_spheres",
    "classify_zeros",
    "total_multiplicity",
    "pole_structure",
    "blaschke_real",
    "blaschke_spherical",
    "regularize",
    "root_spheres",
    "analyze",
    "as_semiregular",
    "on_boundary",
]

EPS_CLASS = 1e-8
TOL_CLUSTER = 1e-7
# Division centers are Newton-polished to ~1e-12 relative, so genuine
# factors leave remainders far below this.  The tolerance must stay well
# under beta^(2m) for pole/zero spheres, or the vertex of an even factor
# (x-alpha)^2 + beta^2 raised to a high power would pass for a real root.
TOL_DIVIDE = 1e-9
# width of the boundary sphere relative to max(r, 1), read only through
# on_boundary: spheres this close to r count as on it (hypothesis checks,
# regularize, the zero and pole sums) and as inside the closed ball
BOUNDARY_BAND = 1e-9

Sphere = tuple[float, float, int]  # (alpha, beta, mult) from root_spheres


def on_boundary(radius: float, r: float) -> bool:
    """Whether a sphere of the given radius sits on the boundary sphere of radius r."""
    return abs(radius - r) <= BOUNDARY_BAND * max(r, 1.0)


# ---------------------------------------------------------------------------
# real-coefficient root machinery
# ---------------------------------------------------------------------------


def _norms(c: np.ndarray) -> np.ndarray:
    """Coefficient sizes: |c_m| for a real array, the quaternion norm for rows (m+1, 4)."""
    return np.abs(c) if c.ndim == 1 else np.linalg.norm(c, axis=1)


def _poly_trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    norms = _norms(c)
    keep = np.nonzero(norms > TRIM_REL * norms.max(initial=0.0))[0]
    return c[: keep[-1] + 1] if keep.size else c[:0]


def _poly_deriv(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, len(c))


def _newton_on_derivative(c: np.ndarray, z0: complex, mult: int, real_root: bool) -> tuple[complex, bool]:
    """Polish a root of multiplicity `mult` by Newton on the (mult-1)-th
    derivative, where the root should be simple.

    Also reports whether the step size reached 1e-12 relative within the
    iteration budget.  When the hypothesized multiplicity is too low the
    iteration contracts only linearly inside the noise basin of the true
    root; slow stalls fail this flag outright, and faster ones land on
    off-center points that the division-count match and the distinctness
    check in ``root_spheres`` reject.
    """
    d = c
    for _ in range(mult - 1):
        d = _poly_deriv(d)
    if len(d) <= 1:
        return z0, False
    dp = _poly_deriv(d)
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


def _real_factor(alpha: float, beta: float) -> np.ndarray:
    """Ascending coefficients of the monic real factor of the sphere (alpha, beta):
    x - alpha for beta == 0, else x^2 - 2 alpha x + (alpha^2 + beta^2)."""
    if beta == 0.0:
        return np.array([-alpha, 1.0])
    return np.array([alpha * alpha + beta * beta, -2.0 * alpha, 1.0])


def _divide(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Long division of ascending coefficients c, real (m+1,) or quaternion
    rows (m+1, 4), by an ascending monic real d; returns (quotient, remainder)."""
    r = np.array(c[::-1], dtype=float)  # descending working copy
    dd = d[::-1]
    qlen = max(len(r) - len(dd) + 1, 0)
    for k in range(qlen):
        for j in range(1, len(dd)):
            r[k + j] -= dd[j] * r[k]
    return r[:qlen][::-1], r[qlen:][::-1]


def _division_multiplicity(c: np.ndarray, alpha: float, beta: float) -> int:
    """Largest s such that the real factor of (alpha, beta) divides c^s times.

    c holds ascending real coefficients (m+1,) or quaternion coefficient
    rows (m+1, 4); the remainder test is relative, on coefficient norms.
    """
    d = _real_factor(alpha, beta)
    cur = _poly_trim(c)
    s = 0
    while len(cur) >= len(d):
        q, rem = _divide(cur, d)
        if _norms(rem).max(initial=0.0) > TOL_DIVIDE * max(_norms(cur).max(), 1e-300):
            break
        s += 1
        cur = q
    return s


def _cluster_folded(pts: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """Single-linkage clusters of companion roots folded to Im >= 0, as
    increasing tuples of indices into pts."""
    n = len(pts)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            lim = tol * (1.0 + 0.5 * (abs(pts[a]) + abs(pts[b])))
            if abs(pts[a] - pts[b]) <= lim:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for idx in range(n):
        groups.setdefault(find(idx), []).append(idx)
    return [tuple(g) for g in groups.values()]


def _scatter_radius(mult: int, size: float) -> float:
    # companion eigenvalues of an m-fold root scatter like eps**(1/m)
    return 10.0 * (1e-16 ** (1.0 / max(mult, 1))) * (1.0 + size) + 1e-9


def _all_distinct(spheres: list[Sphere]) -> bool:
    """Reject clusterings where two validated spheres coincide.

    Fragments of one eigenvalue cloud can each Newton-converge to the
    same nearby multiple root and pass the division test at slightly
    offset centers (offsets up to ~1e-4, set by the division tolerance).
    Genuine duplicate locations therefore mean the clustering split a
    root and a coarser tolerance is needed.  Inputs with distinct
    spheres closer than ~1e-3 apart are rejected loudly rather than
    folded together.
    """
    for i in range(len(spheres)):
        for j in range(i + 1, len(spheres)):
            a1, b1, _ = spheres[i]
            a2, b2, _ = spheres[j]
            lim = 1e-3 * (1.0 + max(math.hypot(a1, b1), math.hypot(a2, b2)))
            if math.hypot(a1 - a2, b1 - b2) <= lim:
                return False
    return True


def _validate_cluster(c: np.ndarray, pts: np.ndarray) -> Sphere | None:
    k = len(pts)
    center = complex(np.mean(pts))
    hypotheses: list[str] = []
    if abs(center.imag) <= _scatter_radius(k, abs(center)):
        hypotheses = ["real", "complex"]
    else:
        hypotheses = ["complex", "real"]
    for hyp in hypotheses:
        if hyp == "real":
            z, converged = _newton_on_derivative(c, center, k, real_root=True)
            if not converged:
                continue
            s = _division_multiplicity(c, z.real, 0.0)
            if s == k:
                return (z.real, 0.0, k)
        else:
            if k % 2:
                continue
            z, converged = _newton_on_derivative(c, center, k // 2, real_root=False)
            if not converged:
                continue
            beta = abs(z.imag)
            if beta <= _scatter_radius(k // 2, abs(z)):
                continue
            s = _division_multiplicity(c, z.real, beta)
            if s == k // 2:
                return (z.real, beta, k)
    return None


def root_spheres(coeffs: Sequence[float]) -> list[Sphere]:
    """Roots of a real polynomial folded onto the closed upper half-plane.

    Returns (alpha, beta, mult) triples where mult counts a conjugate
    pair jointly for beta > 0 (so mult is even there) and is the plain
    multiplicity for real roots.  The triples always account for the
    full degree; escalating cluster tolerances repair eigenvalue scatter
    of multiple roots, with repeated-division counts as the arbiter.
    Each cluster is validated once per call: a rung that regroups the
    same roots reuses the verdict of the rung that first formed it.
    """
    c = _poly_trim(np.asarray(coeffs, dtype=float))
    if c.size == 0:
        raise ZeroPolynomialError("root finding on the zero polynomial")
    deg = len(c) - 1
    if deg == 0:
        return []
    pts = np.array([complex(r.real, abs(r.imag)) for r in np.roots(c[::-1])])
    # _validate_cluster depends only on (c, pts[members])
    verdicts: dict[tuple[int, ...], Sphere | None] = {}
    # eigenvalue clouds of an m-fold root have radius ~eps^(1/m), which
    # reaches ~1e-2 at m = 8; the ladder must extend past that
    for tol_mult in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        spheres: list[Sphere] = []
        for members in _cluster_folded(pts, TOL_CLUSTER * tol_mult):
            if members not in verdicts:
                verdicts[members] = _validate_cluster(c, pts[list(members)])
            res = verdicts[members]
            if res is None:
                spheres = []
                break
            spheres.append(res)
        if spheres and sum(m for _, _, m in spheres) == deg and _all_distinct(spheres):
            return sorted(spheres, key=lambda t: (round(t[0], 9), round(t[1], 9)))
    raise ClassificationInconsistencyError(
        f"could not reconcile root multiplicities for degree-{deg} polynomial"
    )


# ---------------------------------------------------------------------------
# quaternion-coefficient division by real (central) factors
# ---------------------------------------------------------------------------


def divide_by_real(p: SlicePolynomial, divisor: Sequence[float]) -> tuple[SlicePolynomial, SlicePolynomial]:
    """Divide p by a monic real-coefficient polynomial; exact long division.

    A real-coefficient divisor is central for the slice product, so the
    division runs componentwise on the quaternion coefficients.
    """
    d = np.asarray(divisor, dtype=float)
    if abs(d[-1] - 1.0) > 1e-12:
        raise ValueError("divisor must be monic")
    q, rem = _divide(_rows(p), d)
    return SlicePolynomial(map(Quaternion.from_array, q)), SlicePolynomial(map(Quaternion.from_array, rem))


def _rows(p: SlicePolynomial) -> np.ndarray:
    """The coefficients of p as quaternion rows (deg + 1, 4)."""
    return np.array([c.components() for c in p.coeffs], dtype=float).reshape(-1, 4)


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
            "representative": list(self.representative.components()),
            "sphere": [self.alpha, self.beta],
            "total_multiplicity": self.multiplicity,
        }


def characteristic_poly(y: Quaternion) -> SlicePolynomial:
    """Delta_y(x) = N(x - y) = x^2 - t(y) x + n(y)."""
    return SlicePolynomial.from_real([y.norm2(), -y.trace(), 1.0])


def zero_spheres(f: SlicePolynomial) -> list[Sphere]:
    """Spheres carrying zeros of f, with multiplicities counted in N(f)."""
    if f.is_zero:
        raise ZeroPolynomialError("zero set of the zero polynomial is everything")
    return root_spheres(normal(f).real_coeffs())


def total_multiplicity(f: SlicePolynomial, y: Quaternion, spheres: list[Sphere] | None = None) -> int:
    """Largest s with Delta_y^s dividing N(f); 0 when y is not a zero.
    ``spheres``: the root spheres it reads, when the caller has them (of
    f for slice-preserving f, of N(f) otherwise)."""
    if f.is_zero:
        raise ZeroPolynomialError("total multiplicity undefined for the zero polynomial")
    p = decompose(y)
    if f.is_slice_preserving():
        # N(f) = f^2, so the multiplicity in N is twice the one in f and
        # the doubling cancels against the Delta^s accounting.
        return _matching_mult(root_spheres(f.real_coeffs()) if spheres is None else spheres, p.alpha, p.beta)
    return _matching_mult(zero_spheres(f) if spheres is None else spheres, p.alpha, p.beta) // 2


def _same_sphere(a1: float, b1: float, a2: float, b2: float) -> bool:
    """Whether the spheres (a1, b1) and (a2, b2) are one sphere: their
    shadows lie within 1e-6 of each other, relative to the first radius."""
    return math.hypot(a1 - a2, b1 - b2) <= 1e-6 * (1.0 + math.hypot(a1, b1))


def _matching_mult(spheres: list[Sphere], alpha: float, beta: float) -> int:
    return next((m for a, b, m in spheres if _same_sphere(a, b, alpha, beta)), 0)


def classify_zeros(f: SlicePolynomial, spheres: list[Sphere] | None = None) -> list[ZeroRecord]:
    """Classified zero records for every sphere carrying zeros of f.

    Spherical zeros use the representative alpha + i*beta; isolated
    nonreal zeros are located from the stem by J* = -F1(z) F2(z)^{-1}.
    ``spheres`` are the root spheres of N(f) when the caller has them.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot classify zeros of the zero polynomial")
    records: list[ZeroRecord] = []
    for alpha, beta, mult in zero_spheres(f) if spheres is None else spheres:
        tmult = mult // 2
        if beta == 0.0:
            records.append(ZeroRecord("real", Quaternion.real(alpha), alpha, 0.0, tmult))
            continue
        stem = f.stem_components(alpha, beta)
        scale = f.stem_scale(math.hypot(alpha, beta))
        f1, f2 = stem.F1, stem.F2
        if f1.abs() <= EPS_CLASS * scale and f2.abs() <= EPS_CLASS * scale:
            rep = Quaternion(alpha, beta, 0.0, 0.0)  # alpha + i*beta
            records.append(ZeroRecord("spherical", rep, alpha, beta, tmult))
            continue
        if f2.abs() <= EPS_CLASS * scale:
            raise ClassificationInconsistencyError(
                f"sphere ({alpha:.6g}, {beta:.6g}) reported by N(f) but F2 ~ 0 != F1"
            )
        jstar = validate_unit(-(f1 * f2.inverse()))
        rep = Quaternion(alpha, 0.0, 0.0, 0.0) + jstar * beta
        if f.eval(rep).abs() > EPS_CLASS * scale:
            raise ClassificationInconsistencyError(
                f"candidate isolated zero at sphere ({alpha:.6g}, {beta:.6g}) does not annihilate f"
            )
        records.append(ZeroRecord("isolated", rep, alpha, beta, tmult))
    return records


# ---------------------------------------------------------------------------
# semiregular functions
# ---------------------------------------------------------------------------


class SemiregularFunction:
    """f = den^{-1} * num with a slice-preserving denominator.

    Construction normalizes den to be monic and cancels shared factors:
    real-linear factors present in both, and full characteristic
    quadratics Delta_b dividing both.  Partial vanishing of num on a
    pole sphere (a single point) is deliberately kept: it is pole
    structure, not a common factor.
    """

    __slots__ = ("den", "num")

    def __init__(self, den: SlicePolynomial, num: SlicePolynomial):
        if den.is_zero:
            raise ZeroDenominatorError("denominator is identically zero")
        if not den.is_slice_preserving():
            raise ValueError("denominator must have real coefficients")
        # divide, not scale by 1/lead: lead / lead is exactly 1.0
        lead = den.coeffs[-1].w
        den = SlicePolynomial([c / lead for c in den.coeffs])
        num = SlicePolynomial([c / lead for c in num.coeffs])
        if den.degree > 0 and not num.is_zero:
            den, num = _reduce_pair(den, num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", num)

    def __setattr__(self, name, value):
        raise AttributeError("SemiregularFunction is immutable")

    @classmethod
    def _unreduced(cls, den: SlicePolynomial, num: SlicePolynomial) -> "SemiregularFunction":
        """den^{-1} num as given, for a monic real den coprime to num by
        construction.  The reduction tests coprimality at TOL_DIVIDE, which
        at small r cancels a Blaschke factor whose base point is near the
        boundary but outside its band."""
        f = object.__new__(cls)
        object.__setattr__(f, "den", den)
        object.__setattr__(f, "num", num)
        return f

    @staticmethod
    def from_polynomial(p: SlicePolynomial) -> "SemiregularFunction":
        return SemiregularFunction(SlicePolynomial.from_real([1.0]), p)

    def eval(self, x: Quaternion) -> Quaternion:
        return self.den.eval(x).inverse() * self.num.eval(x)

    def stem_components(self, alpha: float, beta: float) -> StemValue:
        f1, f2 = self.stem_arrays(complex(alpha, beta))
        return StemValue(Quaternion(*f1), Quaternion(*f2))

    def stem_arrays(self, z) -> tuple[tuple, tuple]:
        """Stems of den^{-1} * num as parts: complex 1/d(z) times the num stems."""
        f1, f2 = self.num.stem_arrays(z)
        inv = 1.0 / horner(self.den.real_coeffs(), z)
        u, v = inv.real, inv.imag
        return tuple(a * u - b * v for a, b in zip(f1, f2)), tuple(a * v + b * u for a, b in zip(f1, f2))

    def stem_scale(self, radius: float) -> float:
        return self.num.stem_scale(radius)

    def derivatives_at_origin(self) -> tuple[Quaternion, Quaternion, Quaternion]:
        """(f(0), f'(0), f''(0)) by the quotient rule; den is scalar on R."""
        n0 = self.num.coefficient(0)
        n1 = self.num.coefficient(1)
        n2 = self.num.coefficient(2) * 2.0
        d0 = self.den.coefficient(0).w
        d1 = self.den.coefficient(1).w
        d2 = self.den.coefficient(2).w * 2.0
        f0 = n0 / d0
        f1 = n1 / d0 - n0 * (d1 / (d0 * d0))
        f2 = n2 / d0 - n1 * (2.0 * d1 / (d0 * d0)) + n0 * (2.0 * d1 * d1 / d0**3 - d2 / (d0 * d0))
        return f0, f1, f2

    def __repr__(self) -> str:  # pragma: no cover
        return f"SemiregularFunction(den={self.den!r}, num={self.num!r})"


def _reduce_pair(den: SlicePolynomial, num: SlicePolynomial) -> tuple[SlicePolynomial, SlicePolynomial]:
    """Divide every real factor of the monic den that also divides num out
    of both; den stays monic."""
    for alpha, beta, mult in root_spheres(den.real_coeffs()):
        avail = mult if beta == 0.0 else mult // 2
        k = min(avail, _division_multiplicity(_rows(num), alpha, beta))
        if k == 0:
            continue
        factor = _real_factor(alpha, beta)
        for _ in range(k):
            den, _ = divide_by_real(den, factor)
            num, _ = divide_by_real(num, factor)
    return den, num


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
            "representative": list(self.representative.components()),
            "sphere": [self.alpha, self.beta],
            "order": self.order,
            "spherical_order": self.spherical_order,
        }
        if self.kind == "spherical_nonuniform":
            d["exceptional_point"] = list(self.exceptional_point.components())
            d["exceptional_order"] = self.exceptional_order
            d["isolated_multiplicity"] = self.isolated_multiplicity
        return d


def pole_structure(spheres: list[Sphere], zeros: Sequence[ZeroRecord], region_radius: float) -> list[PoleRecord]:
    """Pole records inside the closed ball of the given radius or on its
    boundary band (``on_boundary``), from the root spheres of den and the
    zero records of num.

    Real poles carry their order (denominator multiplicity after
    reduction).  Spherical poles have generic point order nu = the power
    of Delta_b left in den.  A zero record on the same sphere is the one
    point where the numerator vanishes: that point has lesser order
    max(nu - m, 0) and isolated multiplicity m, the record's total
    multiplicity, and the pole becomes nonuniform with the record's
    representative as its exceptional point.
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
        zero = next((z for z in zeros if _same_sphere(alpha, beta, z.alpha, z.beta)), None)
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
        """alpha + i beta of every zero and pole sphere."""
        return [complex(z.alpha, z.beta) for z in self.zeros] + [complex(a, b) for a, b, _ in self.pole_spheres]

    @property
    def boundary_gap(self) -> float:
        """min over every zero and pole sphere of |sphere radius - r| / r."""
        return min((abs(abs(s) - self.radius) / self.radius for s in self.shadows), default=math.inf)


def as_semiregular(f) -> SemiregularFunction:
    """f as den^{-1} * num: a polynomial gets den = 1."""
    if isinstance(f, SemiregularFunction):
        return f
    if isinstance(f, SlicePolynomial):
        return SemiregularFunction.from_polynomial(f)
    raise TypeError(f"expected SlicePolynomial or SemiregularFunction, got {type(f)!r}")


def analyze(f, r: float) -> FunctionAnalysis:
    """Zero and pole records of f at radius r from one root finding on
    N(num) and one on den.

    Only a zero record whose real factor divides den (``_division_multiplicity``
    at TOL_DIVIDE) can be a pole's exceptional point: a zero merely near a
    pole sphere stays a free zero, and the pole stays uniform.
    """
    fs = as_semiregular(f)
    zeros = classify_zeros(fs.num) if fs.num.degree > 0 else []
    den = fs.den.real_coeffs()
    pole_spheres = root_spheres(den) if fs.den.degree > 0 else []
    on_pole_spheres = [z for z in zeros if _division_multiplicity(den, z.alpha, z.beta)]
    poles = pole_structure(pole_spheres, on_pole_spheres, r)
    return FunctionAnalysis(r, tuple(zeros), tuple(pole_spheres), tuple(poles))


# ---------------------------------------------------------------------------
# Blaschke factors and regularization
# ---------------------------------------------------------------------------


def blaschke_real(p: float, r: float) -> SemiregularFunction:
    """Reciprocal r-Blaschke factor -(x - r^2/p)^{-1} (x - p) r/p.

    Slice-preserving, modulus 1 on the boundary sphere of radius r,
    vanishing at p, with its pole at r^2/p outside the closed ball.
    """
    if not 0.0 < abs(p) < r:
        raise InvalidPoleError(f"real Blaschke base point needs 0 < |p| < r, got p={p}, r={r}")
    den = SlicePolynomial.from_real([-r * r / p, 1.0])
    num = SlicePolynomial.from_real([r, -r / p])
    return SemiregularFunction._unreduced(den, num)


def blaschke_spherical(b: Quaternion, r: float) -> SemiregularFunction:
    """Reciprocal normal Blaschke factor Delta_{r^2 b^{-1}}^{-1} Delta_b r^2/|b|^2."""
    nb = b.norm2()
    if not 0.0 < math.sqrt(nb) < r:
        raise InvalidPoleError(f"spherical Blaschke base point needs 0 < |b| < r, got |b|={math.sqrt(nb)}, r={r}")
    if decompose(b).beta == 0.0:
        raise InvalidPoleError("spherical Blaschke base point must be nonreal")
    tb = b.trace()
    den = SlicePolynomial.from_real([r**4 / nb, -r * r * tb / nb, 1.0])
    num = SlicePolynomial.from_real([r * r, -tb * r * r / nb, r * r / nb])
    return SemiregularFunction._unreduced(den, num)


def regularize(f: SemiregularFunction, r: float) -> tuple[SemiregularFunction, SemiregularFunction]:
    """Blaschke product g matching every pole of f, and h = g * f.

    h has no poles on a neighbourhood of the closed ball (its remaining
    denominator roots are the Blaschke reflections outside).  Poles of f
    on the boundary raise PoleOnBoundaryError; poles outside the ball
    raise PoleOutsideRegionError instead of being silently ignored.
    """
    if f.den.degree == 0:
        one = SemiregularFunction.from_polynomial(SlicePolynomial.from_real([1.0]))
        return one, f
    poles = analyze(f, math.inf).poles
    for rec in poles:
        rad = rec.point_radius
        if on_boundary(rad, r):
            raise PoleOnBoundaryError(f"pole sphere at radius {rad:.12g} sits on the boundary r={r}")
        if rad > r:
            raise PoleOutsideRegionError(
                f"pole sphere at radius {rad:.12g} lies outside the ball r={r}; shrink r"
            )
    g_den = SlicePolynomial.from_real([1.0])
    g_num = SlicePolynomial.from_real([1.0])
    for rec in poles:
        if rec.kind == "real":
            fac = blaschke_real(rec.alpha, r)
            power = rec.order
        else:
            fac = blaschke_spherical(rec.representative, r)
            power = rec.spherical_order // 2
        for _ in range(power):
            g_den = slice_product(g_den, fac.den)
            g_num = slice_product(g_num, fac.num)
    g = SemiregularFunction._unreduced(g_den, g_num)
    # h = (g_den f_den)^{-1} (g_num f_num); f_den divides g_num f_num by
    # construction, so divide it out explicitly rather than re-detecting.
    h_num_full = slice_product(g_num, f.num)
    h_num, rem = divide_by_real(h_num_full, f.den.real_coeffs())
    if rem.coefficient_scale() > TOL_DIVIDE * max(h_num_full.coefficient_scale(), 1e-300):
        raise ClassificationInconsistencyError(
            "Blaschke numerator failed to cancel the denominator poles"
        )
    h = SemiregularFunction._unreduced(g_den, h_num)
    return g, h
