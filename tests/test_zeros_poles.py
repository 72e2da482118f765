import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from slicereg.errors import (
    ClassificationInconsistencyError,
    InvalidPoleError,
    PoleOnBoundaryError,
    PoleOutsideRegionError,
    ZeroPolynomialError,
)
from slicereg import zeros_poles
from slicereg.quaternions import I, J, ONE, Quaternion
from slicereg.slicepoly import SlicePolynomial, horner, normal, slice_product
from slicereg.zeros_poles import (
    SemiregularFunction,
    _division_multiplicity,
    analyze,
    blaschke_real,
    blaschke_spherical,
    characteristic_poly,
    classify_zeros,
    divide_by_real,
    regularize,
    root_spheres,
    total_multiplicity,
    zero_spheres,
)


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
    c = np.array([1.0])
    for _ in range(4):
        c = np.convolve(c, [1.0, 0.0, 1.0])
    for _ in range(3):
        c = np.convolve(c, [1.0, -0.5])
    spheres = root_spheres(c[::-1])
    by_beta = sorted(spheres, key=lambda s: s[1])
    assert by_beta[0][2] == 3 and by_beta[0][1] == 0.0
    assert by_beta[0][0] == pytest.approx(0.5, abs=1e-7)
    assert by_beta[1][2] == 8
    assert by_beta[1][1] == pytest.approx(1.0, abs=1e-7)


# Oracles for the root finder's bitwise identity: the Newton loop that
# evaluated p at every z twice, and the tolerance ladder that validated
# every cluster of every rung afresh.


def _newton_three_evaluations(c, z0, mult, real_root):
    """The Newton polish that evaluates p(z) for the step and again for the
    residual.  Returns (z, converged, evaluations), where evaluations counts
    p and p' once per point they are taken at: one more than twice the steps."""
    d = c
    for _ in range(mult - 1):
        d = zeros_poles._poly_deriv(d)
    if len(d) <= 1:
        return z0, False, 0
    dp = zeros_poles._poly_deriv(d)
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


def _root_spheres_revalidating(coeffs):
    """``root_spheres`` with every cluster of every rung validated afresh."""
    c = zeros_poles._poly_trim(np.asarray(coeffs, dtype=float))
    deg = len(c) - 1
    roots = np.roots(c[::-1])
    for tol_mult in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        pts = np.array([complex(r.real, abs(r.imag)) for r in roots])
        spheres = []
        for members in zeros_poles._cluster_folded(pts, zeros_poles.TOL_CLUSTER * tol_mult):
            res = zeros_poles._validate_cluster(c, np.array([pts[k] for k in members]))
            if res is None:
                spheres = []
                break
            spheres.append(res)
        if spheres and sum(m for _, _, m in spheres) == deg and zeros_poles._all_distinct(spheres):
            return sorted(spheres, key=lambda t: (round(t[0], 9), round(t[1], 9)))
    raise ClassificationInconsistencyError("no rung reconciles the multiplicities")


def _high_multiplicity_coeffs():
    """Ascending coefficients of (x^2+1)^4 (x-0.5)^3."""
    c = np.array([1.0])
    for _ in range(4):
        c = np.convolve(c, [1.0, 0.0, 1.0])
    for _ in range(3):
        c = np.convolve(c, [1.0, -0.5])
    return c[::-1]


def _multiplicity_suite_coeffs(monkeypatch, seed, n_cases=10):
    """The real polynomials whose roots a seeded multiplicity suite finds."""
    import slicereg.verify as verify

    seen = []
    monkeypatch.setattr(verify, "root_spheres", lambda c: seen.append(np.array(c)) or root_spheres(c))
    verify.suite_multiplicity(seed, n_cases=n_cases)
    monkeypatch.undo()
    return seen


def _newton_inputs(monkeypatch, polys):
    """Every (c, z0, mult, real_root) that root finding on polys hands to Newton."""
    calls = []
    newton = zeros_poles._newton_on_derivative

    def record(c, z0, mult, real_root):
        calls.append((c, z0, mult, real_root))
        return newton(c, z0, mult, real_root)

    monkeypatch.setattr(zeros_poles, "_newton_on_derivative", record)
    for c in polys:
        root_spheres(c)
    monkeypatch.undo()
    return calls


def test_newton_reuses_the_residual_bit_for_bit(monkeypatch):
    polys = [_high_multiplicity_coeffs()]
    for seed in (1, 2):
        polys += _multiplicity_suite_coeffs(monkeypatch, seed)
    calls = _newton_inputs(monkeypatch, polys)
    assert len(calls) > 50 and {real for *_, real in calls} == {True, False}
    counted, evaluations = [], []
    monkeypatch.setattr(zeros_poles, "horner", lambda c, z: counted.append(1) or horner(c, z))
    for c, z0, mult, real_root in calls:
        want_z, want_converged, want_evaluations = _newton_three_evaluations(c, z0, mult, real_root)
        counted.clear()
        z, converged = zeros_poles._newton_on_derivative(c, z0, mult, real_root)
        assert converged == want_converged
        assert np.array(z).tobytes() == np.array(want_z).tobytes()
        assert len(counted) == want_evaluations  # p once per z, p' once per step
        evaluations.append(want_evaluations)
    assert 1 + 2 * 60 in evaluations  # non-converging runs take the whole budget


def test_root_spheres_validates_each_cluster_once(monkeypatch):
    c = _high_multiplicity_coeffs()
    validate = zeros_poles._validate_cluster
    seen = []
    monkeypatch.setattr(zeros_poles, "_validate_cluster",
                        lambda c, pts: seen.append(tuple(pts)) or validate(c, pts))
    want = _root_spheres_revalidating(c)
    revalidations = len(seen)
    seen.clear()
    assert root_spheres(c) == want
    assert len(seen) == len(set(seen)) < revalidations


def test_root_spheres_matches_revalidating_ladder(monkeypatch):
    polys = [_high_multiplicity_coeffs()]
    for seed in (1, 2, 3):
        polys += _multiplicity_suite_coeffs(monkeypatch, seed)
    for c in polys:
        assert root_spheres(c) == _root_spheres_revalidating(c)


def test_divide_by_real():
    f = slice_product(lin(0, 1, 0, 0), characteristic_poly(Quaternion(0.2, 0.5, 0, 0)))
    q, rem = divide_by_real(f, [0.29, -0.4, 1.0])
    assert rem.coefficient_scale() <= 1e-12
    assert q.degree == 1
    # quaternionic coefficients and a nonzero remainder: q * d + rem = g
    g = SlicePolynomial([Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-0.4, 0.7, 0.0, 0.2),
                         Quaternion(0.1, 0.2, -0.3, 0.9), Quaternion(1.0, -0.5, 0.25, 0.0)])
    d = real_poly(0.29, -0.4, 1.0)
    q, rem = divide_by_real(g, [c.w for c in d.coeffs])
    assert (q.degree, rem.degree) == (1, 1) and rem.coefficient_scale() > 0.1
    back = slice_product(q, d) + rem
    assert back.degree == g.degree
    assert all(a.isclose(b, 1e-14) for a, b in zip(back.coeffs, g.coeffs))


def test_division_multiplicity_remainder_test_is_relative():
    # the remainder 5e-9 x of x^2 + 5e-9 x + 1 by x^2 + 1 is below an
    # absolute 1e-8 but far above TOL_DIVIDE relative to the dividend
    assert _division_multiplicity(np.array([1.0, 5e-9, 1.0]), 0.0, 1.0) == 0


@pytest.mark.parametrize("alpha, beta", [(0.4, 0.0), (-0.3, 0.5)], ids=["real-factor", "quadratic-factor"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_division_multiplicity_real_and_quaternion_rows_agree(alpha, beta, k):
    factor = P.polypow([-alpha, 1.0] if beta == 0.0 else [alpha * alpha + beta * beta, -2.0 * alpha, 1.0], k)
    c = P.polymul(factor, [0.7, -0.2, 1.0])

    def as_rows(real):
        return np.column_stack([real, np.zeros((len(real), 3))])

    # the factor is real, hence central: factor^k * g is a componentwise product
    g = np.array([[0.3, -0.2, 0.5, 0.1], [-0.4, 0.7, 0.0, 0.2], [0.1, 0.2, -0.3, 0.9]])
    quat = np.column_stack([P.polymul(factor, g[:, i]) for i in range(4)])
    for poly in (c, as_rows(c), quat):
        assert _division_multiplicity(poly, alpha, beta) == k
    off = c.copy()
    off[0] += 1e-3  # a nonzero remainder
    assert _division_multiplicity(off, alpha, beta) == _division_multiplicity(as_rows(off), alpha, beta) == 0


# -- zero spheres and classification ----------------------------------------


def test_zero_spheres_examples():
    # N(x^2+1) = (x^2+1)^2: the sphere at (0,1) carries multiplicity 4
    # in N when the conjugate pair is counted jointly (m = mult/2 = 2)
    (sph,) = zero_spheres(real_poly(1, 0, 1))
    assert sph[0] == pytest.approx(0.0, abs=1e-12)
    assert sph[1] == pytest.approx(1.0)
    assert sph[2] == 4
    # combined over the conjugate pair: N((x-i)(x-j)) = (x^2+1)^2 puts
    # multiplicity 2 on each of +-i, so the sphere carries 4 in N
    prod = slice_product(lin(0, 1, 0, 0), lin(0, 0, 1, 0))
    (sph,) = zero_spheres(prod)
    assert (sph[1], sph[2]) == (pytest.approx(1.0), 4)
    mixed = slice_product(real_poly(-0.5, 1.0), lin(0, 1, 0, 0))
    spheres = sorted(zero_spheres(mixed), key=lambda s: s[1])
    assert spheres[0][0] == pytest.approx(0.5) and spheres[0][2] == 2
    assert spheres[1][1] == pytest.approx(1.0) and spheres[1][2] == 2


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


def test_total_multiplicity_reads_given_spheres(monkeypatch):
    # the caller's spheres give the same counts as a fresh root-finding pass
    sq = slice_product(lin(0, 1, 0, 0), lin(0, 1, 0, 0))
    cases = [(sq, zero_spheres(sq)), (real_poly(1, 0, 1), root_spheres(np.array([1.0, 0.0, 1.0])))]
    want = [[total_multiplicity(f, y) for y in (I, J, ONE)] for f, _ in cases]

    def no_root_finding(coeffs):
        raise AssertionError("root_spheres called although spheres were given")

    monkeypatch.setattr("slicereg.zeros_poles.root_spheres", no_root_finding)
    assert [[total_multiplicity(f, y, spheres) for y in (I, J, ONE)] for f, spheres in cases] == want


def test_multiplicity_suite_finds_roots_once_per_polynomial(monkeypatch):
    import slicereg.verify as verify

    calls = []
    monkeypatch.setattr(verify, "root_spheres", lambda c: calls.append(1) or root_spheres(c))
    monkeypatch.setattr("slicereg.zeros_poles.root_spheres",
                        lambda c: pytest.fail("root-finding pass outside the suite's own"))
    res = verify.suite_multiplicity(1, n_cases=10)
    assert res.passed and len(res.rows) > 10
    assert len(calls) <= 2 * 10  # f (when slice-preserving) and N(f), once each


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
            q, rem = divide_by_real(cur, [c.w for c in delta.coeffs])
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
    from pathlib import Path

    from slicereg.io import load_function

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    manifest = json.loads((corpus / "polynomials.json").read_text())
    for entry in manifest["cases"]:
        f = load_function(corpus / entry["file"])
        assert sum(r.multiplicity for r in classify_zeros(f)) == f.degree, entry["name"]


# -- semiregular construction --------------------------------------------------


def test_semiregular_reduction_real_factor():
    den = real_poly(-0.5, 1.0) * real_poly(0.3, 1.0)
    num = real_poly(-0.5, 1.0) * real_poly(1.0, 0.0, 1.0)
    f = SemiregularFunction(den, num)
    assert f.den.degree == 1  # (x - 0.5) cancelled
    assert f.den.eval(Quaternion.real(-0.3)).abs() <= 1e-12


def test_semiregular_reduction_full_sphere_factor():
    delta = characteristic_poly(Quaternion(0, 0.7, 0, 0))
    den = delta * real_poly(-0.4, 1.0)
    num = delta * lin(0.1, 0.2, 0, 0)
    f = SemiregularFunction(den, num)
    assert f.den.degree == 1


def test_semiregular_keeps_partial_vanishing():
    # numerator vanishing at one point of the pole sphere is structure,
    # not a common factor
    den = real_poly(1.0, 0.0, 1.0)
    num = SlicePolynomial([I, ONE])  # x + i, vanishes only at -i
    f = SemiregularFunction(den, num)
    assert f.den.degree == 2


def test_semiregular_eval_order():
    den = real_poly(0.25, 0, 1.0)
    num = SlicePolynomial([J, ONE])
    f = SemiregularFunction(den, num)
    x = Quaternion(0.3, 0.7, -0.2, 0.1)
    expect = den.eval(x).inverse() * num.eval(x)
    assert (f.eval(x) - expect).abs() <= 1e-13


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
    # pole sphere, q is within the 1e-6 sphere match but Delta_q does not
    # divide den, so q stays a free zero and the pole stays uniform
    q = Quaternion(0.0, 0.6, 0.8, 0.0) * (0.6 * (1.0 + eps))
    num = slice_product(SlicePolynomial.linear(q), lin(0.2, 0.1, 0.0, 0.3))
    analysis = analyze(SemiregularFunction(characteristic_poly(Quaternion(0, 0, 0.6, 0)), num), 1.0)
    (pole,) = analysis.poles
    assert pole.kind == kind
    assert len(analysis.free_zeros) == free


def test_numerator_vanishing_on_a_whole_pole_sphere_is_inconsistent():
    delta = characteristic_poly(Quaternion(0, 0, 0.6, 0))
    # The constructor cancels delta, so keep the pair unreduced: a numerator
    # vanishing on a whole pole sphere is the state the pole_structure raise
    # exists to detect.
    f = SemiregularFunction._unreduced(delta, slice_product(delta, lin(0.3, 0.2, 0, -0.1)))
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
        vals = [math.log(max(f.eval(y + dq * float(t)).abs(), 1e-300)) for t in ts]
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
    assert g.eval(Quaternion.real(0.5)).abs() <= 1e-14
    assert g.eval(Quaternion.real(1.0)).abs() == pytest.approx(1.0)
    assert g.eval(Quaternion.real(0.0)).abs() == pytest.approx(0.5)


def test_blaschke_real_boundary_modulus():
    g = blaschke_real(0.5, 1.0)
    rng = np.random.default_rng(4)
    for v in rng.normal(size=(20, 4)):
        x = Quaternion.from_array(v / np.linalg.norm(v))
        assert abs(g.eval(x).abs() - 1.0) <= 1e-10


def test_blaschke_real_invalid():
    with pytest.raises(InvalidPoleError):
        blaschke_real(0.0, 1.0)
    with pytest.raises(InvalidPoleError):
        blaschke_real(1.2, 1.0)


def test_blaschke_spherical_instance():
    g = blaschke_spherical(I, 2.0)
    assert [c.w for c in g.den.coeffs] == pytest.approx([16.0, 0.0, 1.0])
    assert [c.w for c in g.num.coeffs] == pytest.approx([4.0, 0.0, 4.0])
    assert g.eval(I).abs() <= 1e-14
    assert g.eval(Quaternion(0, 0, 2, 0)).abs() == pytest.approx(1.0)
    assert g.eval(Quaternion.real(0.0)).abs() == pytest.approx(0.25)  # |b|^2/r^2


def test_blaschke_spherical_boundary_modulus():
    b = Quaternion(0.3, 0.2, 0.5, 0.1)
    r = 1.5
    g = blaschke_spherical(b, r)
    rng = np.random.default_rng(5)
    for v in rng.normal(size=(50, 4)):
        x = Quaternion.from_array(r * v / np.linalg.norm(v))
        assert abs(g.eval(x).abs() - 1.0) <= 1e-10


def test_blaschke_spherical_invalid():
    with pytest.raises(InvalidPoleError):
        blaschke_spherical(Quaternion.real(0.5), 1.0)  # real base point
    with pytest.raises(InvalidPoleError):
        blaschke_spherical(I * 2.0, 1.0)  # outside


# -- regularization ---------------------------------------------------------------------


def test_regularize_remark_function():
    f = SemiregularFunction(real_poly(1, 0, 1), SlicePolynomial([I, ONE]))
    g, h = regularize(f, 2.0)
    assert [c.w for c in h.den.coeffs] == pytest.approx([16.0, 0.0, 1.0])
    assert h.num.coefficient(0).isclose(I * 4.0)
    assert h.num.coefficient(1).isclose(ONE * 4.0)
    # |g| = 1 on the boundary
    rng = np.random.default_rng(6)
    for v in rng.normal(size=(20, 4)):
        x = Quaternion.from_array(2.0 * v / np.linalg.norm(v))
        assert abs(g.eval(x).abs() - 1.0) <= 1e-10


def test_regularize_polynomial_passthrough():
    p = SemiregularFunction.from_polynomial(real_poly(-0.5, 1.0))
    g, h = regularize(p, 1.0)
    assert g.num.degree == 0 and g.den.degree == 0
    assert h.num.degree == 1


def test_regularize_real_pole_cancellation():
    f = SemiregularFunction(real_poly(-0.5, 1.0), real_poly(1, 0, 1))
    g, h = regularize(f, 1.0)
    # h is finite near the old pole
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = Quaternion.real(0.5) + Quaternion.from_array(rng.normal(size=4)) * 1e-4
        assert h.eval(x).abs() < 50.0
    # values agree with g*f away from the pole
    x = Quaternion(0.2, 0.3, 0.1, -0.2)
    assert (h.eval(x) - g.eval(x) * f.eval(x)).abs() <= 1e-10


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
    assert (g.den.degree, g.num.degree) == (2, 2)
    assert g.eval(b).abs() <= 1e-9
    f = SemiregularFunction(characteristic_poly(b), real_poly(1.0))
    g, h = regularize(f, r)
    assert (g.den.degree, g.num.degree) == (2, 2)
    for x in (Quaternion.real(0.5 * r), Quaternion(0.1 * r, 0.3 * r, 0.0, -0.2 * r)):
        gf = g.eval(x) * f.eval(x)
        assert (h.eval(x) - gf).abs() <= 1e-9 * gf.abs()
