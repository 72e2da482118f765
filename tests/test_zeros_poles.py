import json
import math
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg.errors import (
    ClassificationInconsistencyError,
    PoleOnBoundaryError,
    ZeroPolynomialError,
)
from slicereg import zeros_poles
from slicereg.jensen import jensen_check
from slicereg.quaternions import I, J, ONE, InvalidUnitError, Quaternion, pnorm2
from slicereg.slicepoly import SlicePolynomial, horner, normal, slice_product
from slicereg.zeros_poles import (
    PELLET_GRID,
    SemiregularFunction,
    TOL_DIVIDE,
    ZeroRecord,
    _divide,
    _division_multiplicity,
    _quotients,
    _real_factor,
    _columns,
    _reduce_pair,
    analyze,
    as_semiregular,
    characteristic_poly,
    classify_zeros,
    pole_structure,
    root_spheres,
    total_multiplicity,
)

from blaschke_oracle import (
    InvalidPoleError,
    PoleOutsideRegionError,
    blaschke_real,
    blaschke_spherical,
    divide_rows,
    evaluate,
    regularize,
    unreduced,
)
from kernel_oracles import numpy_divide, numpy_quotients, pellet_scan
from hard_cases import (DYADIC_DRAWS, DYADIC_MATCHES, LEDGER, NEAR_PAIR_DRAWS, NEAR_PAIR_OUTCOMES,
                        NEXT_TO_MULTIPLE_TOL, dyadic_function, dyadic_product, dyadic_records, dyadic_roots,
                        family_roots, judge, near_pair, product, real_rooted, records_match)


def real_poly(*cs):
    return SlicePolynomial.from_real(list(cs))


def lin(*comps):
    return SlicePolynomial.linear(Quaternion(*comps))


# -- characteristic polynomial -------------------------------------------


def test_characteristic_poly_examples():
    assert [c.w for c in characteristic_poly(I).coeffs] == pytest.approx([1, 0, 1])
    assert [c.w for c in characteristic_poly(Quaternion.real(0.5)).coeffs] == pytest.approx(
        [0.25, -1.0, 1.0]
    )
    assert [c.w for c in characteristic_poly(Quaternion(1, 0, 2, 0)).coeffs] == pytest.approx(
        [5.0, -2.0, 1.0]
    )


def test_characteristic_poly_vanishes_on_sphere():
    y = Quaternion(0.3, 0.1, -0.2, 0.6)
    cp = characteristic_poly(y)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        x = Quaternion(y.re(), *(v * y.abs_im()))
        assert cp.eval(x).abs() <= 1e-12


# -- root machinery --------------------------------------------------------


def test_root_spheres_simple():
    # (x^2+1)(x^2 - x + 1/4): roots +-i and double 1/2
    c = np.convolve([1.0, 0.0, 1.0][::-1], [0.25, -1.0, 1.0][::-1])[::-1]
    spheres = root_spheres(c)
    assert len(spheres) == 2
    real = [s for s in spheres if s[1] == 0.0][0]
    sph = [s for s in spheres if s[1] > 0.0][0]
    assert real[0] == pytest.approx(0.5, abs=1e-9) and real[2] == 2
    assert sph[0] == pytest.approx(0.0, abs=1e-9)
    assert sph[1] == pytest.approx(1.0, abs=1e-9)
    assert sph[2] == 2


def test_root_spheres_high_multiplicity():
    # (x^2+1)^4 (x-0.5)^3: eigenvalue scatter must be repaired by division
    spheres = root_spheres(_high_multiplicity_coeffs())
    by_beta = sorted(spheres, key=lambda s: s[1])
    assert by_beta[0][2] == 3 and by_beta[0][1] == 0.0
    assert by_beta[0][0] == pytest.approx(0.5, abs=1e-7)
    assert by_beta[1][2] == 8
    assert by_beta[1][1] == pytest.approx(1.0, abs=1e-7)


# Oracle for Newton's bitwise identity: the loop that evaluated p at every
# z twice.


def _newton_three_evaluations(c, z0, mult, real_root):
    """The Newton polish that evaluates p(z) for the step and again for the
    residual.  Returns (z, converged, evaluations), where evaluations counts
    p and p' once per point they are taken at: one more than twice the steps."""
    d = np.asarray(c, dtype=float)
    for _ in range(mult - 1):
        d = d[1:] * np.arange(1, len(d))
    dp = d[1:] * np.arange(1, len(d))
    z = complex(z0.real, 0.0) if real_root else z0
    best, best_res = z, abs(horner(d, z))
    converged, evaluations = False, 1
    for _ in range(60):
        fp = horner(dp, z)
        evaluations += 1
        if abs(fp) < 1e-300:
            break
        step = horner(d, z) / fp  # p at the z of the last residual
        z = z - step
        if real_root:
            z = complex(z.real, 0.0)
        res = abs(horner(d, z))
        evaluations += 1
        if res < best_res:
            best, best_res = z, res
        if abs(step) <= 1e-12 * (1.0 + abs(z)):
            converged = True
            break
    return best, converged, evaluations


def _high_multiplicity_coeffs():
    """Ascending coefficients of (x^2+1)^4 (x-0.5)^3."""
    c = np.array([1.0])
    for _ in range(4):
        c = np.convolve(c, [1.0, 0.0, 1.0])
    for _ in range(3):
        c = np.convolve(c, [1.0, -0.5])
    return c[::-1]


def _multiplicity_suite_coeffs(monkeypatch, seed, n_cases=10):
    """The real polynomials of a seeded multiplicity suite's cases: N(f)
    for each case, then f itself when f is slice-preserving."""
    import slicereg.verify as verify

    seen = []

    def record(f):
        seen.append(normal(f.num).real_coeffs())
        if f.num.is_slice_preserving():
            seen.append(f.num.real_coeffs())
        return classify_zeros(f)

    monkeypatch.setattr(verify, "classify_zeros", record)
    verify.suite_multiplicity(seed, n_cases=n_cases)
    monkeypatch.undo()
    return seen


def _newton_inputs(polys):
    """(c, z0, mult, real_root) for Newton from the centroid of each
    eigenvalue's mult nearest eigenvalues, mult = 1, 2, 3, whether or not
    that is the root's multiplicity; a real root when the centroid is
    within 1e-6 of the real axis."""
    calls = []
    for c in polys:
        pts = np.roots(c[::-1])
        for z in pts:
            near = pts[np.argsort(np.abs(pts - z), kind="stable")]
            for mult in (1, 2, 3):
                z0 = complex(np.mean(near[:mult]))
                calls.append((c, z0, mult, abs(z0.imag) <= 1e-6))
    return calls


def test_newton_reuses_the_residual_bit_for_bit(monkeypatch):
    polys = [_high_multiplicity_coeffs()]
    for seed in (1, 2):
        polys += _multiplicity_suite_coeffs(monkeypatch, seed)
    calls = _newton_inputs(polys)
    assert len(calls) > 50 and {real for *_, real in calls} == {True, False}
    counted, evaluations = [], []
    monkeypatch.setattr(zeros_poles, "horner", lambda c, z: counted.append(1) or horner(c, z))
    for c, z0, mult, real_root in calls:
        want_z, want_converged, want_evaluations = _newton_three_evaluations(c, z0, mult, real_root)
        counted.clear()
        z, converged = zeros_poles._newton_on_derivative(c.tolist(), z0, mult, real_root)
        assert converged == want_converged
        assert np.array(z).tobytes() == np.array(want_z).tobytes()
        assert len(counted) == want_evaluations  # p once per z, p' once per step
        evaluations.append(want_evaluations)
    assert 1 + 2 * 60 in evaluations  # non-converging runs take the whole budget


def _corpus_zero_polynomials():
    """The real polynomials root finding runs on for the corpus: each
    numerator's zero polynomial and each nonconstant denominator."""
    import json

    from slicereg.io import load_function

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    polys = []
    for manifest in ("polynomials", "rationals"):
        for entry in json.loads((corpus / f"{manifest}.json").read_text())["cases"]:
            f = zeros_poles.as_semiregular(load_function(corpus / entry["file"]))
            polys.append(f.zero_polynomial[0])
            if len(f.den) > 1:
                polys.append(f.den)
    return polys


def test_certified_spheres_pass_the_division_oracle(monkeypatch):
    # independent of the certificate: the real factor of every returned
    # sphere divides c as often as the sphere's multiplicity says
    polys = _corpus_zero_polynomials() + [_high_multiplicity_coeffs()]
    for seed in (1, 2, 3):
        polys += _multiplicity_suite_coeffs(monkeypatch, seed)
    assert len(polys) > 60
    spheres = 0
    for c in polys:
        for alpha, beta, mult in root_spheres(c):
            assert _division_multiplicity(c, alpha, beta) == (mult if beta == 0.0 else mult // 2)
            spheres += 1
    assert spheres > 140


def test_pellet_radius_certifies_the_count_and_rejects_rounding():
    # (x - 0.5)^2 (x - 2): two roots within 1e-3 of 0.5, one within 1 of 2
    c = P.polymul(P.polypow([-0.5, 1.0], 2), [-2.0, 1.0]).tolist()
    assert zeros_poles._pellet_radius(c, 0.5, 2, 1e-3, 1.0) is not None
    assert zeros_poles._pellet_radius(c, 0.5, 1, 1e-3, 1.0) is None
    assert zeros_poles._pellet_radius(c, 2.0, 1, 1e-3, 1.0) is not None
    # the exact double root, seen from 1e-8 off it: |T_1| = 2e-8 |T_2| and
    # |T_0| = 1e-16 |T_2| make rho^2 - |T_1| rho + |T_0| < 0 hold only
    # where rounding decides; the widened test never certifies one root
    s = 0.5 + 1e-8
    t, bound = zeros_poles._taylor(c, s)
    assert bound[0] >= abs(t[0]) and bound[0] > 0.0
    assert zeros_poles._pellet_radius(c, s, 1, zeros_poles.EPS, 1e-8) is None


def _pellet_inputs(monkeypatch):
    """Every (c, s, m, lo, hi) that root finding hands ``_pellet_radius`` on
    the corpus zero polynomials, (x^2+1)^4 (x-0.5)^3 and the real
    polynomials of three seeds of the multiplicity suite."""
    polys = _corpus_zero_polynomials() + [_high_multiplicity_coeffs()]
    for seed in (1, 2, 3):
        polys += _multiplicity_suite_coeffs(monkeypatch, seed)
    calls, window = [], zeros_poles._pellet_radius
    monkeypatch.setattr(zeros_poles, "_pellet_radius", lambda *args: calls.append(args) or window(*args))
    for c in polys:
        root_spheres(c)
    monkeypatch.undo()
    return calls


def test_pellet_window_matches_the_full_scan_on_root_finding(monkeypatch):
    calls = _pellet_inputs(monkeypatch)
    got = [zeros_poles._pellet_radius(*args) for args in calls]
    assert got == [pellet_scan(*args) for args in calls]
    assert len(calls) > 250 and sum(rho is None for rho in got) > 100 and sum(rho is not None for rho in got) > 100


def test_pellet_window_matches_the_full_scan_on_random_clusters():
    # the centroid of the m nearest roots of a random polynomial with
    # clustered roots, the disc from their spread to the next root, and
    # random radii about it; every m from 1 to d - 1
    rng = np.random.default_rng(31)
    results = []
    for _ in range(150):
        centres = rng.normal(size=rng.integers(1, 4)) + 1j * rng.normal(size=1) * rng.integers(0, 2)
        roots = [z + 10.0 ** rng.uniform(-9, -1) * (rng.normal() + 1j * rng.normal())
                 for z in rng.choice(centres, rng.integers(3, 10))]
        c = np.real(P.polyfromroots(roots + [np.conj(z) for z in roots])).tolist()
        near = sorted(roots, key=lambda z: abs(z - roots[0]))
        for m in range(1, len(c) - 1):
            s = complex(np.mean(near[:m]))
            spread = max([abs(z - s) for z in near[:m]] + [1e-16])
            for lo, hi in ((spread, abs(near[m] - s) if m < len(near) else 2.0),
                           tuple(sorted(10.0 ** rng.uniform(-12, 1, 2)))):
                results.append(zeros_poles._pellet_radius(c, s, m, lo, hi))
                assert results[-1] == pellet_scan(c, s, m, lo, hi), (c, s, m, lo, hi)
    assert sum(rho is not None for rho in results) > 100 and sum(rho is None for rho in results) > 100


@pytest.mark.parametrize("rel", [1e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8])
def test_pellet_window_keeps_radii_at_its_edges(rel):
    # At s = 0 the Taylor data are c: the window of |T_m| rho^m > |T_k| rho^k
    # is known in floats, and grid radii rel inside or outside either edge
    # meet the full scan.  A larger term on the other side keeps the least
    # passing radius on the edge under test; from rel = 1e-12 the first
    # radius lies inside the window and passes.
    cases = []
    for m, k, d in ((1, 0, 2), (3, 0, 5), (2, 1, 6)):
        for edge in ("floor", "ceil"):
            c = [0.0] * (d + 1)
            c[m] = 1.0
            if edge == "floor":
                c[k], c[d] = 0.75, 1e-30  # rest_d rho^d is negligible next to the edge
            else:
                c[d] = 0.5  # every rest_k, k < m, is 0 at s = 0
            t, bound = zeros_poles._taylor(c, 0j)
            head = abs(t[m]) - bound[m]
            rest = [abs(tk) + ek for tk, ek in zip(t, bound)]
            if edge == "floor":
                rho = rest[k] ** (1.0 / (m - k)) / head ** (1.0 / (m - k))
            else:
                rho = head ** (1.0 / (d - m)) / rest[d] ** (1.0 / (d - m))
            inside = 1.0 + rel if edge == "floor" else 1.0 - rel
            for lo, hi in ((rho * inside, 4.0 * rho), (rho / inside, rho / inside * (1.0 + 2 * rel) ** PELLET_GRID),
                           (rho * inside / 4.0, rho * inside)):
                if edge == "ceil" and hi > rho * inside:
                    lo, hi = rho * inside, rho * inside * 1.5
                cases.append((c, m, lo, hi, rel >= 1e-12 and lo == rho * inside))
    for c, m, lo, hi, first_passes in cases:
        want = pellet_scan(c, 0j, m, lo, hi)
        assert zeros_poles._pellet_radius(c, 0j, m, lo, hi) == want, (c, m, lo, hi)
        if first_passes:
            assert want == lo


def test_divide_on_quaternion_rows():
    f = slice_product(lin(0, 1, 0, 0), characteristic_poly(Quaternion(0.2, 0.5, 0, 0)))
    q, rem = divide_rows(f, [0.29, -0.4, 1.0])
    assert rem.coefficient_scale() <= 1e-12
    assert q.degree == 1
    # quaternionic coefficients and a nonzero remainder: q * d + rem = g
    g = SlicePolynomial([Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-0.4, 0.7, 0.0, 0.2),
                         Quaternion(0.1, 0.2, -0.3, 0.9), Quaternion(1.0, -0.5, 0.25, 0.0)])
    d = real_poly(0.29, -0.4, 1.0)
    q, rem = divide_rows(g, [c.w for c in d.coeffs])
    assert (q.degree, rem.degree) == (1, 1) and rem.coefficient_scale() > 0.1
    back = slice_product(q, d) + rem
    assert back.degree == g.degree
    assert all(a.isclose(b, 1e-14) for a, b in zip(back.coeffs, g.coeffs))


def test_division_multiplicity_remainder_test_is_relative():
    # the remainder 5e-9 x of x^2 + 5e-9 x + 1 by x^2 + 1 is below an
    # absolute 1e-8 but far above TOL_DIVIDE relative to the dividend
    c = np.array([1.0, 5e-9, 1.0])
    assert _division_multiplicity(c, 0.0, 1.0) == len(list(_quotients(_columns(c), 0.0, 1.0))) == 0


def _ascending(cols, shape):
    """Descending columns, one per component, as an ascending array of the given shape."""
    return np.reshape(np.array(cols, dtype=float)[:, ::-1].T, shape)


@pytest.mark.parametrize("alpha, beta", [(0.4, 0.0), (-0.3, 0.5)], ids=["real-factor", "quadratic-factor"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_division_multiplicity_real_and_quaternion_rows_agree(alpha, beta, k):
    factor = P.polypow([-alpha, 1.0] if beta == 0.0 else [alpha * alpha + beta * beta, -2.0 * alpha, 1.0], k)
    base = np.array([0.7, -0.2, 1.0])
    c = P.polymul(factor, base)

    def as_rows(real):
        return np.column_stack([real, np.zeros((len(real), 3))])

    # the factor is real, hence central: factor^k * g is a componentwise product
    g = np.array([[0.3, -0.2, 0.5, 0.1], [-0.4, 0.7, 0.0, 0.2], [0.1, 0.2, -0.3, 0.9]])
    quat = np.column_stack([P.polymul(factor, g[:, i]) for i in range(4)])
    for poly, cofactor in ((c, base), (as_rows(c), as_rows(base)), (quat, g)):
        quotients = list(_quotients(_columns(poly), alpha, beta))
        assert _division_multiplicity(poly, alpha, beta) == len(quotients) == k
        last = _ascending(quotients[-1], np.shape(cofactor))  # the k-th quotient is the cofactor
        assert np.allclose(last, cofactor, rtol=0.0, atol=1e-12)
    off = c.copy()
    off[0] += 1e-3  # a nonzero remainder
    for poly in (off, as_rows(off)):
        assert _division_multiplicity(poly, alpha, beta) == len(list(_quotients(_columns(poly), alpha, beta))) == 0


@pytest.mark.parametrize("width", [1, 4], ids=["real", "quaternion"])
def test_division_loop_matches_the_numpy_rows_bitwise(width):
    # (real factor)^k times a random cofactor, k = 0..4, at scales 1e-3..1e3,
    # a third of them with a perturbed remainder: one division and the loop
    # of quotients against the numpy rows, bit for bit
    rng = np.random.default_rng(23 + width)
    counts = []
    for _ in range(200):
        alpha, beta = rng.uniform(-1.5, 1.5), 0.0 if rng.random() < 0.4 else rng.uniform(0.1, 1.5)
        factor = np.array(_real_factor(alpha, beta))
        cofactor = rng.normal(size=(rng.integers(1, 6), width)) * 10.0 ** rng.integers(-3, 4)
        power = P.polypow(factor, rng.integers(0, 5))
        c = np.column_stack([P.polymul(power, col) for col in cofactor.T])
        if rng.random() < 0.3:
            c[0] += rng.normal(size=width) * 10.0 ** -rng.integers(4, 12)
        c = c[:, 0] if width == 1 else c
        q, rem = _divide(_columns(c), factor[::-1].tolist())
        want_q, want_rem = numpy_divide(c, factor)
        assert _ascending(q, want_q.shape).tobytes() == want_q.tobytes()
        assert _ascending(rem, want_rem.shape).tobytes() == want_rem.tobytes()
        got = [_ascending(q, np.shape(w)) for q, w in zip(_quotients(_columns(c), alpha, beta),
                                                           numpy_quotients(c, alpha, beta))]
        want = list(numpy_quotients(c, alpha, beta))
        assert len(got) == len(want) == _division_multiplicity(c, alpha, beta)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        counts.append(len(want))
    assert set(counts) >= {0, 1, 2, 3, 4}


def test_division_counts_match_the_numpy_rows_on_root_finding(monkeypatch):
    # the counts behind the multiplicity suite and the certified spheres
    polys = _corpus_zero_polynomials() + [_high_multiplicity_coeffs()]
    for seed in (1, 2):
        polys += _multiplicity_suite_coeffs(monkeypatch, seed)
    for c in polys:
        for alpha, beta, _ in root_spheres(c):
            want = list(numpy_quotients(c, alpha, beta))
            got = list(_quotients(_columns(c), alpha, beta))
            assert len(got) == len(want)
            assert all(_ascending(g, w.shape).tobytes() == w.tobytes() for g, w in zip(got, want))


def _reduce_pair_by_count_then_divide(den, num, spheres):
    """The cancellation as it was specified first: count how often each
    sphere's real factor divides num by repeated ``numpy_divide`` of its
    quaternion rows and the relative remainder test, take k = min(den's
    count, num's), then divide both k times, den as its real coefficients."""
    kept = []
    for alpha, beta, mult in spheres:
        per = 1 if beta == 0.0 else 2
        factor = _real_factor(alpha, beta)
        count, cur = 0, num
        while cur.degree >= len(factor) - 1:
            quotient, rem = divide_rows(cur, factor)
            if rem.coefficient_scale() > TOL_DIVIDE * max(cur.coefficient_scale(), 1e-300):
                break
            count, cur = count + 1, quotient
        k = min(mult // per, count)
        for _ in range(k):
            den, _ = numpy_divide(den, factor)
            num, _ = divide_rows(num, factor)
        if mult > per * k:
            kept.append((alpha, beta, mult - per * k))
    return den, num, kept


def _power(f, k):
    out = real_poly(1.0)
    for _ in range(k):
        out = slice_product(out, f)
    return out


_REAL, _SPHERE, _OTHER = real_poly(-0.4, 1.0), characteristic_poly(Quaternion(-0.3, 0.5, 0.0, 0.0)), \
    characteristic_poly(Quaternion(0.1, 0.0, 0.7, 0.0))
_COFACTOR = SlicePolynomial([Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-0.4, 0.7, 0.0, 0.2), ONE])
# (name, den's factors, num's factors besides the quaternionic cofactor), as (factor, power) pairs
_REDUCE_CASES = (
    [(f"real-{m}", [(_REAL, m), (real_poly(-2.0, 1.0), 1)], [(_REAL, m)]) for m in range(1, 5)]
    + [(f"spherical-{m}", [(_SPHERE, m), (real_poly(-2.0, 1.0), 1)], [(_SPHERE, m)]) for m in range(1, 5)]
    + [("num-fewer-than-den", [(_REAL, 3), (_SPHERE, 2)], [(_REAL, 1), (_SPHERE, 1)]),
       ("num-more-than-den", [(_REAL, 1), (_SPHERE, 1)], [(_REAL, 3), (_SPHERE, 2)]),
       ("not-in-num", [(_OTHER, 1), (_REAL, 2)], [(_REAL, 2)])]
)


@pytest.mark.parametrize("den_factors, num_factors", [c[1:] for c in _REDUCE_CASES], ids=[c[0] for c in _REDUCE_CASES])
def test_reduce_pair_matches_count_then_divide_bit_for_bit(den_factors, num_factors):
    den, num = real_poly(1.0), _COFACTOR
    for factor, k in den_factors:
        den = slice_product(den, _power(factor, k))
    for factor, k in num_factors:
        num = slice_product(num, _power(factor, k))
    den = den.real_coeffs()
    spheres = root_spheres(den)
    got, want = _reduce_pair(den, num, spheres), _reduce_pair_by_count_then_divide(den, num, spheres)
    assert got[0].dtype == want[0].dtype == np.float64 and got[0][-1] == 1.0
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array(got[1].coeffs).tobytes() == np.array(want[1].coeffs).tobytes()
    assert got[2] == want[2]
    # both lose the same factors, and den keeps the kept spheres' roots
    assert 0 < len(den) - len(got[0]) == num.degree - got[1].degree
    assert len(got[0]) - 1 == sum(m for *_, m in got[2])


# -- zero spheres and classification ----------------------------------------


def zero_spheres(f):
    """(alpha, beta, total multiplicity) of each zero record of f."""
    return [(z.alpha, z.beta, z.multiplicity) for z in classify_zeros(f)]


def test_zero_spheres_examples():
    # x^2+1 is slice-preserving, so its own roots +-i give the sphere at
    # (0,1) total multiplicity 2 (Delta^2 divides N = Delta^2)
    (sph,) = zero_spheres(real_poly(1, 0, 1))
    assert sph[0] == pytest.approx(0.0, abs=1e-12)
    assert sph[1] == pytest.approx(1.0)
    assert sph[2] == 2
    # combined over the conjugate pair: N((x-i)(x-j)) = (x^2+1)^2 puts
    # multiplicity 2 on each of +-i, 4 on the sphere, halved to 2
    prod = slice_product(lin(0, 1, 0, 0), lin(0, 0, 1, 0))
    (sph,) = zero_spheres(prod)
    assert (sph[1], sph[2]) == (pytest.approx(1.0), 2)
    mixed = slice_product(real_poly(-0.5, 1.0), lin(0, 1, 0, 0))
    spheres = sorted(zero_spheres(mixed), key=lambda s: s[1])
    assert spheres[0][0] == pytest.approx(0.5) and spheres[0][2] == 1
    assert spheres[1][1] == pytest.approx(1.0) and spheres[1][2] == 1


def test_zero_spheres_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        zero_spheres(SlicePolynomial([]))


def test_classify_spherical():
    recs = classify_zeros(real_poly(1, 0, 1))
    assert len(recs) == 1 and recs[0].kind == "spherical"
    assert recs[0].multiplicity == 2  # Delta^2 divides N = Delta^2
    assert recs[0].representative.isclose(I)


def test_classify_isolated_with_uniqueness_scan():
    prod = slice_product(lin(0, 1, 0, 0), lin(0, 0, 1, 0))
    recs = classify_zeros(prod)
    assert len(recs) == 1 and recs[0].kind == "isolated"
    assert recs[0].representative.isclose(I)
    assert recs[0].multiplicity == 2
    # brute-force scan of the sphere confirms i is the only zero
    rng = np.random.default_rng(1)
    best = min(
        prod.eval(Quaternion(0, *(v / np.linalg.norm(v)))).abs()
        for v in rng.normal(size=(200, 3))
    )
    at_i = prod.eval(I).abs()
    assert at_i <= 1e-13 and best > 1e-3 or best <= 1e-13


def test_classify_real_triple():
    recs = classify_zeros(real_poly(-0.5, 1.0) ** 3)
    assert len(recs) == 1 and recs[0].kind == "real"
    assert recs[0].multiplicity == 3
    assert recs[0].representative.re() == pytest.approx(0.5, abs=1e-9)


# -- total multiplicity -------------------------------------------------------


def test_total_multiplicity_examples():
    assert total_multiplicity(lin(0, 1, 0, 0), I) == 1
    assert total_multiplicity(real_poly(1, 0, 1), I) == 2
    sq = slice_product(lin(0, 1, 0, 0), lin(0, 1, 0, 0))
    assert total_multiplicity(sq, I) == 2
    assert total_multiplicity(sq, J) == 2  # same sphere
    assert total_multiplicity(sq, Quaternion.real(1.0)) == 0


def test_total_multiplicity_is_zero_just_off_a_zero_sphere():
    # Delta_y divides N(f) only when y is on a zero sphere, so y = q (1 + eps)
    # is no zero once the remainder passes TOL_DIVIDE, even within 1e-6 of q
    q, p = Quaternion(0.3, 0.4, 0.0, 0.5), Quaternion(0.2, 0.1, 0.0, 0.3)
    f = slice_product(SlicePolynomial.linear(q), SlicePolynomial.linear(p))
    for y in (q, p):
        assert [total_multiplicity(f, y * (1.0 + eps)) for eps in (0.0, 1e-12)] == [1, 1]
        assert [total_multiplicity(f, y * (1.0 + eps)) for eps in (1e-8, 1e-7, 1e-6)] == [0, 0, 0]


def test_multiplicity_suite_finds_roots_once_per_polynomial(monkeypatch):
    import slicereg.verify as verify

    calls = []
    monkeypatch.setattr("slicereg.zeros_poles.root_spheres", lambda c: calls.append(1) or root_spheres(c))
    res = verify.suite_multiplicity(1, n_cases=10)
    assert res.passed and len(res.rows) > 10
    assert len(calls) == 10  # f's zero polynomial; N(f)'s counts come by division


def test_total_multiplicity_division_oracle():
    # independent oracle: by definition the total multiplicity is the
    # number of exact divisions of N(f) by Delta_y
    for f in (
        slice_product(lin(0, 1, 0, 0), lin(0, 0, 1, 0)),
        real_poly(1, 0, 1),
        lin(0, 1, 0, 0),
        slice_product(lin(0, 1, 0, 0), lin(0, 1, 0, 0)),
    ):
        cur = normal(f)
        count = 0
        delta = characteristic_poly(I)
        while True:
            q, rem = divide_rows(cur, [c.w for c in delta.coeffs])
            if rem.coefficient_scale() > 1e-9 * max(cur.coefficient_scale(), 1e-300):
                break
            count += 1
            cur = q
        assert count == total_multiplicity(f, I)


def test_multiplicity_doubling_random_products():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = real_poly(1.0)
        for _ in range(rng.integers(1, 4)):
            kind = rng.integers(0, 3)
            if kind == 0:
                f = f * real_poly(-rng.uniform(0.2, 0.8), 1.0)
            elif kind == 1:
                v = rng.normal(size=4)
                v = v / np.linalg.norm(v) * rng.uniform(0.3, 0.9)
                f = f * SlicePolynomial.linear(Quaternion.from_array(v))
            else:
                f = f * characteristic_poly(Quaternion(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.8), 0, 0))
        nf = normal(f)
        for rec in classify_zeros(f):
            assert total_multiplicity(nf, rec.representative) == 2 * rec.multiplicity


def test_multiplicity_sum_matches_degree():
    f = real_poly(-0.3, 1.0) * characteristic_poly(Quaternion(0.1, 0.5, 0, 0)) * lin(0, 0, 0.6, 0)
    assert sum(r.multiplicity for r in classify_zeros(f)) == f.degree


def test_multiplicity_sum_over_corpus():
    import json

    from slicereg.io import load_function

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    manifest = json.loads((corpus / "polynomials.json").read_text())
    for entry in manifest["cases"]:
        f = load_function(corpus / entry["file"])
        assert sum(r.multiplicity for r in classify_zeros(f)) == f.degree, entry["name"]


# -- hard cases from the ledger: families of scripts/root_probe.py ----------------


def test_real_rooted_product_is_root_found_on_its_own_coefficients():
    # root finding on N(f) = f^2 doubled every root, and real draw 1 at
    # degree 8 raised ClassificationInconsistencyError there
    roots = family_roots("real", 8, 2)[1]
    f = product(roots)
    recs = classify_zeros(f)
    assert [r.kind for r in recs] == ["real"] * 8 and [r.multiplicity for r in recs] == [1] * 8
    assert [r.alpha for r in recs] == pytest.approx(sorted(q.w for q in roots), abs=1e-10)
    assert abs(jensen_check(f, 1.0, 48, diagnostics=False).residual) <= 1e-12


def test_close_real_roots_are_not_merged_into_a_double_one():
    # -0.33511 and -0.33237 of real draw 5 at degree 12 once came back as one
    # double zero at -0.33380 (residual 1.4e-3, no named error); a cluster
    # that wide is two roots
    f = product(family_roots("real", 12, 6)[5])
    with pytest.raises(ClassificationInconsistencyError):
        root_spheres(f.real_coeffs())
    with pytest.raises(ClassificationInconsistencyError):
        jensen_check(f, 1.0, 48, diagnostics=False)


def _passes_or_raises_a_named_error(roots):
    assert judge(real_rooted(roots), NEXT_TO_MULTIPLE_TOL)[0] != "wrong"


# Hypothesis derives its derandomized examples from this test's source: an
# edit draws others.  The ledger's next-to-multiple entries are what it found.
@settings(derandomize=True, deadline=None)
@given(st.lists(st.builds(lambda a, sign: sign * a, st.floats(0.2, 0.9), st.sampled_from([-1.0, 1.0])),
                min_size=2, max_size=8))
def test_real_rooted_products_pass_or_raise_a_named_error(roots):
    _passes_or_raises_a_named_error(roots)


def test_dyadic_products_are_exact_in_binary64():
    for case in LEDGER:
        if case.make is dyadic_function:
            assert dyadic_product(*case.args)[1], case.name


def test_dyadic_records_oracle_examples():
    q, p = (1, 3, 0, 0), (1, 0, 3, 0)  # distinct points of one sphere
    beta = math.sqrt(9 / 64)
    assert dyadic_records([(q, 2)]) == [("isolated", 0.125, beta, 2)]
    assert dyadic_records([(q, 1), ((1, -3, 0, 0), 1)]) == [("spherical", 0.125, beta, 2)]  # Delta_q
    assert dyadic_records([(q, 1), ((1, -3, 0, 0), 2)]) == [("spherical", 0.125, beta, 3)]
    assert dyadic_records([(q, 2), (p, 1)]) == [("isolated", 0.125, beta, 3)]
    assert dyadic_records([((2, 0, 0, 0), 3), (q, 1)]) == [("isolated", 0.125, beta, 1), ("real", 0.25, 0.0, 3)]
    f = dyadic_function([(q, 1), ((1, -3, 0, 0), 1), ((-4, 0, 0, 0), 2)])
    assert records_match(classify_zeros(f), [("real", -0.5, 0.0, 2), ("spherical", 0.125, beta, 2)])
    assert not records_match(classify_zeros(f), [("real", -0.5, 0.0, 2), ("isolated", 0.125, beta, 2)])
    assert not records_match(classify_zeros(f), [("real", -0.5, 0.0, 2)])


def test_dyadic_records_match_the_exact_oracle():
    """Every dyadic draw but the ledger's pinned ones matches its exact
    records or raises a named error; 371 of 400 match."""
    pinned = [case.args[0] for case in LEDGER if case.records]
    outcomes = {seed: judge(dyadic_function(roots), exact=dyadic_records(roots))[0]
                for seed, roots in enumerate(map(dyadic_roots, range(DYADIC_DRAWS))) if roots not in pinned}
    assert len(outcomes) == DYADIC_DRAWS - len(pinned)
    assert [seed for seed, o in outcomes.items() if o == "wrong"] == []
    assert list(outcomes.values()).count("pass") >= DYADIC_MATCHES


@pytest.mark.parametrize("seed", [0, 3])
def test_high_degree_annuli_draws_find_every_sphere(seed):
    # the tolerance ladder returned residuals -20.64 and -7.20 here with no
    # named error: on seed 0 it dropped the sphere at 0.049 +- 1.938i and
    # invented a real zero at -0.1045
    roots = family_roots("annuli", 20, seed + 1)[seed]
    f = product(roots)
    spheres = sorted(zero_spheres(f))
    assert [m for *_, m in spheres] == [1] * 20
    want = sorted((q.w, q.abs_im()) for q in roots)
    assert np.abs(np.array([s[:2] for s in spheres]) - np.array(want)).max() <= 1e-9
    assert abs(jensen_check(f, 1.0, 48, diagnostics=False).residual) <= 1e-11


def _isolated_products(n):
    """n products of 2-4 linear factors x - q, q random quaternions: their zeros are isolated."""
    rng = np.random.default_rng(41)
    out = []
    for _ in range(n):
        f = real_poly(1.0)
        for _ in range(rng.integers(2, 5)):
            f = f * lin(*rng.uniform(-0.9, 0.9, 4))
        out.append(f)
    return out


def test_classify_zeros_evaluates_every_isolated_candidate_in_one_call(monkeypatch):
    # one eval per function, of a pair of all its candidates, and each
    # candidate's |f| as its own one-point evaluation gives it, bit for bit
    calls, eval_pair = [], SlicePolynomial.eval

    def record(self, x):
        value = eval_pair(self, x)
        calls.append((self, x, value))
        return value

    monkeypatch.setattr(SlicePolynomial, "eval", record)
    isolated = 0
    for f in _isolated_products(40):
        calls.clear()
        records = [r for r in classify_zeros(f) if r.kind == "isolated"]
        isolated += len(records)
        assert len(calls) == (1 if records else 0)
        if records:
            num, x, value = calls[0]
            assert x[0].shape == (len(records),)
            for k, rec in enumerate(records):
                alone = eval_pair(num, rec.representative)
                assert np.sqrt(pnorm2(value))[k].tobytes() == np.float64(alone.abs()).tobytes()
    assert isolated > 60


def test_classify_zeros_raises_a_failing_candidate_ahead_of_a_later_sphere(monkeypatch):
    f = _isolated_products(1)[0]
    first = next(r for r in classify_zeros(f) if r.kind == "isolated")
    units, validate = [], zeros_poles.validate_unit

    def second_is_no_unit(j):
        units.append(j)
        if len(units) == 2:
            raise InvalidUnitError("not a unit")
        return validate(j)

    monkeypatch.setattr(zeros_poles, "validate_unit", second_is_no_unit)
    with pytest.raises(ClassificationInconsistencyError, match=r"has no unit J\*"):
        classify_zeros(f)
    units.clear()
    monkeypatch.setattr(SlicePolynomial, "eval", lambda self, x: tuple(np.ones_like(c) for c in x))
    with pytest.raises(ClassificationInconsistencyError,
                       match=rf"candidate isolated zero at sphere \({first.alpha:.6g}, {first.beta:.6g}\) does not"):
        classify_zeros(f)


def test_near_pair_draws_pass_or_raise_a_named_error():
    # 13 of these draws let InvalidUnitError, no SliceRegError, escape
    # classify_zeros: J* = -F1 F2^-1 is no unit on the pair's sphere
    outcomes = [judge(near_pair(seed))[0] for seed in range(NEAR_PAIR_DRAWS)]
    assert [seed for seed, o in enumerate(outcomes) if o == "wrong"] == []
    assert {o: outcomes.count(o) for o in set(outcomes)} == NEAR_PAIR_OUTCOMES


def test_near_pair_seed_5_exits_3_with_a_named_error(tmp_path, capsys):
    from slicereg.cli import main
    from slicereg.io import function_to_dict

    f = near_pair(5)
    assert f.degree == 4
    with pytest.raises(ClassificationInconsistencyError, match=r"has no unit J\*"):
        classify_zeros(f)
    path = tmp_path / "near_pair.json"
    path.write_text(json.dumps(function_to_dict(f)))
    for command in ("jensen", "zeros"):
        assert main([command, "--fn", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: sphere (")


@pytest.mark.parametrize("scale", [1e12, 1e6, 1e-6, 1e-9, 1e-10, 1e-11, 3e-12])
def test_scaling_keeps_a_quaternionic_polynomial_quaternionic(scale):
    # (1 + scale) once floored the slice-preserving test: at scale <= 1e-10
    # the imaginary parts were dropped and the check raised InvalidUnitError
    base = lin(-0.2, -0.5, -0.3, -0.1) * lin(0.4, -0.1, 0.6, -0.2)  # zeros 0.2+0.5i+0.3j+0.1k, -0.4+0.1i-0.6j+0.2k
    f = SlicePolynomial([c * scale for c in base.coeffs])
    assert not f.is_slice_preserving()
    want, got = classify_zeros(base), classify_zeros(f)
    assert [(r.kind, r.multiplicity) for r in got] == [("isolated", 1)] * 2
    assert all(r.representative.isclose(w.representative, 1e-14) for r, w in zip(got, want))
    assert abs(jensen_check(f, 1.0, 48, diagnostics=False).residual) <= 1e-13


# -- semiregular construction --------------------------------------------------


def test_a_monic_denominator_leaves_the_numerator_undivided():
    # x / 1.0 is x: a monic den keeps num as given; any other lead divides both
    num = lin(0.2, 0.5, 0.3, 0.1)
    assert SemiregularFunction(real_poly(1.0), num).num is as_semiregular(num).num is num
    halved = SemiregularFunction(real_poly(2.0), num)
    assert halved.num.coeffs == tuple(c / 2.0 for c in num.coeffs) and halved.den.tolist() == [1.0]


def test_semiregular_reduction_real_factor():
    den = real_poly(-0.5, 1.0) * real_poly(0.3, 1.0)
    num = real_poly(-0.5, 1.0) * real_poly(1.0, 0.0, 1.0)
    f = SemiregularFunction(den, num)
    assert len(f.den) - 1 == 1  # (x - 0.5) cancelled
    assert abs(horner(f.den, -0.3)) <= 1e-12


def test_semiregular_reduction_full_sphere_factor():
    delta = characteristic_poly(Quaternion(0, 0.7, 0, 0))
    den = delta * real_poly(-0.4, 1.0)
    num = delta * lin(0.1, 0.2, 0, 0)
    f = SemiregularFunction(den, num)
    assert len(f.den) - 1 == 1


def test_semiregular_keeps_partial_vanishing():
    # numerator vanishing at one point of the pole sphere is structure,
    # not a common factor
    den = real_poly(1.0, 0.0, 1.0)
    num = SlicePolynomial([I, ONE])  # x + i, vanishes only at -i
    f = SemiregularFunction(den, num)
    assert len(f.den) - 1 == 2


def test_den_spheres_lose_the_cancelled_multiplicity():
    delta = characteristic_poly(Quaternion(0, 0.7, 0, 0))
    den = real_poly(-0.5, 1.0) ** 2 * real_poly(0.3, 1.0) * delta ** 2
    f = SemiregularFunction(den, real_poly(-0.5, 1.0) * delta * lin(0.1, 0.2, 0, 0))
    assert len(f.den) - 1 == 4
    assert [(round(a, 9), round(b, 9), m) for a, b, m in f.den_spheres] == [(-0.3, 0.0, 1), (0.0, 0.7, 2), (0.5, 0.0, 1)]
    assert np.array(f.den_spheres) == pytest.approx(np.array(root_spheres(f.den)), abs=1e-9)
    # a zero numerator cancels nothing; den's spheres are still found
    assert len(SemiregularFunction(den, SlicePolynomial([])).den_spheres) == 3
    assert as_semiregular(lin(0.1, 0.2, 0, 0)).den_spheres == ()


def _assert_monic_real_array(den):
    assert isinstance(den, np.ndarray) and den.dtype == np.float64 and den.ndim == 1 and not den.flags.writeable
    assert den[-1] == 1.0  # exactly: the constructor divides by the leading coefficient


def test_den_is_its_monic_real_coefficients():
    from slicereg.io import load_function

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    entries = json.loads((corpus / "rationals.json").read_text())["cases"]
    for entry in entries:
        f = load_function(corpus / entry["file"])
        _assert_monic_real_array(f.den)
        assert len(f.den) - 1 == sum(m for *_, m in f.den_spheres)
    polynomial = as_semiregular(lin(0.1, 0.2, 0, 0))
    _assert_monic_real_array(polynomial.den)
    assert polynomial.den.tolist() == [1.0]
    # 3 (x - 0.5)^2 (x + 2) over (x - 0.5) q: one x - 0.5 cancels, and the
    # leading 3 is divided out of both
    f = SemiregularFunction(real_poly(-0.5, 1.0) ** 2 * real_poly(2.0, 1.0) * real_poly(3.0),
                            real_poly(-0.5, 1.0) * lin(0.2, 0.3, -0.1, 0.4))
    _assert_monic_real_array(f.den)
    assert f.den == pytest.approx([-1.0, 1.5, 1.0], abs=1e-15)
    assert f.num.degree == 1 and f.num.coefficient(1).isclose(ONE * (1.0 / 3.0))


def test_semiregular_eval_order():
    den = real_poly(0.25, 0, 1.0)
    num = SlicePolynomial([J, ONE])
    f = SemiregularFunction(den, num)
    x = Quaternion(0.3, 0.7, -0.2, 0.1)
    expect = den.eval(x).inverse() * num.eval(x)
    assert (evaluate(f, x) - expect).abs() <= 1e-13


# -- pole structure -------------------------------------------------------------


def test_pole_structure_remark_function():
    f = SemiregularFunction(real_poly(1, 0, 1), SlicePolynomial([I, ONE]))
    recs = analyze(f, 2.0).poles
    assert len(recs) == 1
    rec = recs[0]
    assert rec.kind == "spherical_nonuniform"
    assert rec.order == 1
    assert rec.spherical_order == 2
    assert rec.exceptional_point.isclose(-I)
    assert rec.exceptional_order == 0
    assert rec.isolated_multiplicity == 1


def test_pole_structure_real_pole():
    f = SemiregularFunction(real_poly(-0.5, 1.0), real_poly(1.0))
    recs = analyze(f, 1.0).poles
    assert len(recs) == 1 and recs[0].kind == "real"
    assert recs[0].order == 1
    assert recs[0].representative.re() == pytest.approx(0.5)


def test_pole_structure_uniform_and_counts():
    f = SemiregularFunction(real_poly(0.25, 0, 1.0) * real_poly(-0.5, 1.0), real_poly(1.0))
    recs = analyze(f, 1.0).poles
    kinds = sorted(r.kind for r in recs)
    assert kinds == ["real", "spherical_uniform"]
    (sphere,) = [r for r in recs if r.kind == "spherical_uniform"]
    assert sphere.spherical_order == 2


def test_pole_structure_nonuniform_higher_order():
    # den Delta^2, num vanishes once at 0.6i: generic order 2, exceptional 1
    delta = characteristic_poly(Quaternion(0, 0.6, 0, 0))
    f = SemiregularFunction(delta * delta, lin(0, 0.6, 0, 0))
    recs = analyze(f, 1.0).poles
    assert len(recs) == 1
    rec = recs[0]
    assert rec.kind == "spherical_nonuniform"
    assert rec.order == 2
    assert rec.spherical_order == 4
    assert rec.exceptional_order == 1
    assert rec.isolated_multiplicity == 1


def test_pole_structure_region_filter():
    f = SemiregularFunction(real_poly(4.0, 0, 1.0), real_poly(-0.5, 1.0))
    assert analyze(f, 1.0).poles == ()
    assert len(analyze(f, 3.0).poles) == 1


def test_pole_structure_takes_the_exceptional_point_from_the_zero_record():
    f = SemiregularFunction(real_poly(1, 0, 1), SlicePolynomial([I, ONE]))
    analysis = analyze(f, 2.0)
    (zero,) = analysis.zeros
    (pole,) = analysis.poles
    assert pole.exceptional_point is zero.representative
    assert pole.isolated_multiplicity == zero.multiplicity
    assert analysis.free_zeros == []


@pytest.mark.parametrize("eps, kind, free", [
    (0.0, "spherical_nonuniform", 1),
    (1e-7, "spherical_uniform", 2),
    (1e-6, "spherical_uniform", 2),
])
def test_only_a_zero_whose_factor_divides_den_is_an_exceptional_point(eps, kind, free):
    # f = Delta_b^{-1} (x - q)(x - p), b = 0.6 j, |q| = 0.6 (1 + eps): off the
    # pole sphere, Delta_q divides neither den nor Delta_b, so q stays a free
    # zero and the pole stays uniform
    q = Quaternion(0.0, 0.6, 0.8, 0.0) * (0.6 * (1.0 + eps))
    num = slice_product(SlicePolynomial.linear(q), lin(0.2, 0.1, 0.0, 0.3))
    analysis = analyze(SemiregularFunction(characteristic_poly(Quaternion(0, 0, 0.6, 0)), num), 1.0)
    (pole,) = analysis.poles
    assert pole.kind == kind
    assert len(analysis.free_zeros) == free


def test_zero_polynomial_is_normal_or_num_itself_and_never_squared(monkeypatch):
    from slicereg import quadrature

    quaternionic = slice_product(lin(0.2, 0.1, 0.0, 0.3), lin(0.5, 0.0, -0.4, 0.1))
    c, divisor = as_semiregular(quaternionic).zero_polynomial
    assert divisor == 2 and np.array_equal(c, normal(quaternionic).real_coeffs())
    real = real_poly(-0.3, 0.2, 1.5, -0.7)
    c, divisor = as_semiregular(real).zero_polynomial
    assert divisor == 1 and np.array_equal(c, [-0.3, 0.2, 1.5, -0.7])
    # a slice-preserving f of degree 40: the means read f itself, not its degree-80 square
    c = np.zeros(41)
    c[[0, 40]] = 1.0, 0.5
    f = as_semiregular(SlicePolynomial.from_real(c))
    assert f.zero_polynomial[0].shape == (41,) and f.zero_polynomial[1] == 1
    lengths = []
    monkeypatch.setattr(quadrature, "horner", lambda p, z: lengths.append(len(p)) or horner(p, z))
    means = quadrature.boundary_means(f, 0.5, 8)
    assert max(lengths) == 41 and math.isfinite(means.mean_log_normal)


@pytest.mark.parametrize("eps, kind", [(0.0, "spherical_nonuniform"), (1e-7, "spherical_uniform")])
def test_pole_structure_matches_a_zero_to_its_sphere_by_division(eps, kind):
    # the zero record's real factor must divide the pole sphere's at
    # TOL_DIVIDE: a record 1e-7 off the sphere is not its exceptional point
    rep = Quaternion(0.0, 0.0, 0.6 * (1.0 + eps), 0.0)
    zero = ZeroRecord("isolated", rep, 0.0, 0.6 * (1.0 + eps), 1)
    (pole,) = pole_structure([(0.0, 0.6, 2)], [zero], 1.0)
    assert pole.kind == kind and pole.spherical_order == 2
    assert pole.exceptional_point is (rep if eps == 0.0 else None)


def test_numerator_vanishing_on_a_whole_pole_sphere_is_inconsistent():
    delta = characteristic_poly(Quaternion(0, 0, 0.6, 0))
    # The constructor cancels delta, so keep the pair unreduced: a numerator
    # vanishing on a whole pole sphere is the state the pole_structure raise
    # exists to detect.
    f = unreduced(delta.real_coeffs(), slice_product(delta, lin(0.3, 0.2, 0, -0.1)))
    with pytest.raises(ClassificationInconsistencyError, match="whole pole sphere"):
        analyze(f, 1.0)


def test_pole_inequality_invariant():
    # i_f >= spherical_order/2 - ord(z_j) > 0 on nonuniform spheres
    for f in (
        SemiregularFunction(real_poly(1, 0, 1), SlicePolynomial([I, ONE])),
        SemiregularFunction(
            characteristic_poly(Quaternion(0, 0.6, 0, 0)) ** 2, lin(0, 0.6, 0, 0)
        ),
    ):
        for rec in analyze(f, 2.0).poles:
            if rec.kind == "spherical_nonuniform":
                lower = rec.spherical_order / 2 - rec.exceptional_order
                assert rec.isolated_multiplicity >= lower > 0


# -- order oracle -----------------------------------------------------------------


def estimate_point_order(f: SemiregularFunction, y: Quaternion, rng, n_rays: int = 8) -> float:
    """Growth exponent of |f| into y: median slope of log|f| against
    log(dist) along seeded rays.  Positive values estimate pole orders,
    negative values zero orders; the scalar oracle, from values of f
    alone, that the algebraic orders are held to."""
    slopes = []
    ts = np.geomspace(1e-3, 1e-5, 7)
    for _ in range(n_rays):
        d = rng.normal(size=4)
        dq = Quaternion.from_array(d / np.linalg.norm(d))
        vals = [math.log(max(evaluate(f, y + dq * float(t)).abs(), 1e-300)) for t in ts]
        slopes.append(-np.polyfit(np.log(ts), vals, 1)[0])
    return float(np.median(slopes))


def test_limit_growth_oracle_orders():
    rng = np.random.default_rng(3)
    f = SemiregularFunction(real_poly(1, 0, 1), SlicePolynomial([I, ONE]))
    # generic point of the pole sphere: order 1
    est = estimate_point_order(f, J, rng)
    assert est == pytest.approx(1.0, abs=0.1)
    # exceptional point: order 0 (bounded)
    est0 = estimate_point_order(f, -I, rng)
    assert abs(est0) <= 0.1
    g = SemiregularFunction(real_poly(-0.5, 1.0) ** 2, real_poly(1.0))
    est2 = estimate_point_order(g, Quaternion.real(0.5), rng)
    assert est2 == pytest.approx(2.0, abs=0.1)


# -- Blaschke factors ---------------------------------------------------------------


def test_blaschke_real_examples():
    g = blaschke_real(0.5, 1.0)
    assert evaluate(g, Quaternion.real(0.5)).abs() <= 1e-14
    assert evaluate(g, Quaternion.real(1.0)).abs() == pytest.approx(1.0)
    assert evaluate(g, Quaternion.real(0.0)).abs() == pytest.approx(0.5)


def test_blaschke_real_boundary_modulus():
    g = blaschke_real(0.5, 1.0)
    rng = np.random.default_rng(4)
    for v in rng.normal(size=(20, 4)):
        x = Quaternion.from_array(v / np.linalg.norm(v))
        assert abs(evaluate(g, x).abs() - 1.0) <= 1e-10


def test_blaschke_real_invalid():
    with pytest.raises(InvalidPoleError):
        blaschke_real(0.0, 1.0)
    with pytest.raises(InvalidPoleError):
        blaschke_real(1.2, 1.0)


def test_blaschke_spherical_instance():
    g = blaschke_spherical(I, 2.0)
    assert g.den.tolist() == pytest.approx([16.0, 0.0, 1.0])
    assert [c.w for c in g.num.coeffs] == pytest.approx([4.0, 0.0, 4.0])
    assert evaluate(g, I).abs() <= 1e-14
    assert evaluate(g, Quaternion(0, 0, 2, 0)).abs() == pytest.approx(1.0)
    assert evaluate(g, Quaternion.real(0.0)).abs() == pytest.approx(0.25)  # |b|^2/r^2


def test_blaschke_spherical_boundary_modulus():
    b = Quaternion(0.3, 0.2, 0.5, 0.1)
    r = 1.5
    g = blaschke_spherical(b, r)
    rng = np.random.default_rng(5)
    for v in rng.normal(size=(50, 4)):
        x = Quaternion.from_array(r * v / np.linalg.norm(v))
        assert abs(evaluate(g, x).abs() - 1.0) <= 1e-10


def test_blaschke_spherical_invalid():
    with pytest.raises(InvalidPoleError):
        blaschke_spherical(Quaternion.real(0.5), 1.0)  # real base point
    with pytest.raises(InvalidPoleError):
        blaschke_spherical(I * 2.0, 1.0)  # outside


# -- regularization ---------------------------------------------------------------------


def test_regularize_remark_function():
    f = SemiregularFunction(real_poly(1, 0, 1), SlicePolynomial([I, ONE]))
    g, h = regularize(f, 2.0)
    assert h.den.tolist() == pytest.approx([16.0, 0.0, 1.0])
    assert h.num.coefficient(0).isclose(I * 4.0)
    assert h.num.coefficient(1).isclose(ONE * 4.0)
    # |g| = 1 on the boundary
    rng = np.random.default_rng(6)
    for v in rng.normal(size=(20, 4)):
        x = Quaternion.from_array(2.0 * v / np.linalg.norm(v))
        assert abs(evaluate(g, x).abs() - 1.0) <= 1e-10


def test_regularize_polynomial_passthrough():
    p = as_semiregular(real_poly(-0.5, 1.0))
    g, h = regularize(p, 1.0)
    assert g.num.degree == 0 and len(g.den) == 1
    assert h.num.degree == 1


def test_regularize_real_pole_cancellation():
    f = SemiregularFunction(real_poly(-0.5, 1.0), real_poly(1, 0, 1))
    g, h = regularize(f, 1.0)
    # h is finite near the old pole
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = Quaternion.real(0.5) + Quaternion.from_array(rng.normal(size=4)) * 1e-4
        assert evaluate(h, x).abs() < 50.0
    # values agree with g*f away from the pole
    x = Quaternion(0.2, 0.3, 0.1, -0.2)
    assert (evaluate(h, x) - evaluate(g, x) * evaluate(f, x)).abs() <= 1e-10


def test_regularize_matches_zero_sets_for_uniform_poles():
    zero = Quaternion(0.2, 0.4, 0, 0)
    f = SemiregularFunction(real_poly(0.25, 0, 1.0), characteristic_poly(zero))
    g, h = regularize(f, 1.0)
    recs_f = classify_zeros(f.num)
    recs_h = classify_zeros(h.num)
    inside_f = sorted((r.alpha, r.beta, r.multiplicity) for r in recs_f if r.point_radius < 1.0)
    inside_h = sorted(
        (round(r.alpha, 8), round(r.beta, 8), r.multiplicity)
        for r in recs_h
        if r.point_radius < 1.0
    )
    assert [(round(a, 8), round(b, 8), m) for a, b, m in inside_f] == inside_h


def test_regularize_errors():
    on_boundary = SemiregularFunction(real_poly(1.0, 0, 1.0), real_poly(1.0))
    with pytest.raises(PoleOnBoundaryError):
        regularize(on_boundary, 1.0)
    outside = SemiregularFunction(real_poly(4.0, 0, 1.0), real_poly(1.0))
    with pytest.raises(PoleOutsideRegionError):
        regularize(outside, 1.0)


# At small r the division test's TOL_DIVIDE is absolute in r: Delta_b and its
# reflection Delta_{r^2 b^-1} divide each other to within it although |b| is
# well outside the boundary band.  The Blaschke pairs must stay unreduced.
def test_blaschke_spherical_near_boundary_at_small_r_keeps_its_zero():
    r = 1e-3
    b = J * (r - 1e-7)
    g = blaschke_spherical(b, r)
    assert (len(g.den) - 1, g.num.degree) == (2, 2)
    assert evaluate(g, b).abs() <= 1e-9
    f = SemiregularFunction(characteristic_poly(b), real_poly(1.0))
    g, h = regularize(f, r)
    assert (len(g.den) - 1, g.num.degree) == (2, 2)
    for x in (Quaternion.real(0.5 * r), Quaternion(0.1 * r, 0.3 * r, 0.0, -0.2 * r)):
        gf = evaluate(g, x) * evaluate(f, x)
        assert (evaluate(h, x) - gf).abs() <= 1e-9 * gf.abs()
