"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  Corpus runs are shared through module-scoped fixtures;
quadrature order, steps, and tolerances are the contract values, not
tuned per test.
"""

import json
import math
import time
from pathlib import Path

import pytest

from slicereg.cli import main
from slicereg.io import load_function
from slicereg.jensen import jensen_check
from slicereg.verify import run_suite

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 7


def _announce(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _run_corpus(manifest_name: str, seed: int = SEED):
    manifest = json.loads((CORPUS / manifest_name).read_text())
    reports = {}
    t0 = time.time()
    for entry in manifest["cases"]:
        f = load_function(CORPUS / entry["file"])
        reports[entry["name"]] = jensen_check(f, entry["r"], 48, seed=seed)
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def poly_reports():
    return _run_corpus("polynomials.json")


@pytest.fixture(scope="module")
def rational_reports():
    return _run_corpus("rationals.json")


def test_criterion_1_regular_jensen(poly_reports):
    reports, elapsed = poly_reports
    worst = max(abs(r.residual) for r in reports.values())
    manifest = json.loads((CORPUS / "polynomials.json").read_text())
    radii = {c["r"] for c in manifest["cases"]}
    degrees = set()
    kinds = set()
    for entry in manifest["cases"]:
        f = load_function(CORPUS / entry["file"])
        degrees.add(f.degree)
        for rec in reports[entry["name"]].zeros:
            kinds.add(rec["kind"])
    ok = (
        len(reports) >= 12
        and worst <= 1e-6
        and elapsed <= 60.0
        and radii <= {0.8, 1.0, 1.5}
        and kinds == {"real", "spherical", "isolated"}
        and min(degrees) >= 1
        and max(degrees) == 8
    )
    _announce(
        1,
        ok,
        f"{len(reports)} polynomial cases, max |residual| = {worst:.3e} <= 1e-6, "
        f"runtime {elapsed:.1f}s <= 60s, zero kinds {sorted(kinds)}",
    )


def test_criterion_2_semiregular_jensen(rational_reports):
    reports, _ = rational_reports
    worst = max(abs(r.residual) for r in reports.values())
    remark = reports["remark_nonuniform"]
    detail = remark.diagnostics["nonuniform_poles"][0]
    uniform = 2.0 * math.log(2.0) + 15.0 / 8.0  # spherical order x unit term at b = i, r = 2
    cancellation = (
        detail["order_cancellation"]
        and detail["uniform_pole_value"] == pytest.approx(uniform, abs=1e-12)
        and detail["exceptional_a_term"] == pytest.approx(uniform / 2.0, abs=1e-12)
        and detail["exceptional_a_term"] + detail["net_contribution"]
        == pytest.approx(detail["uniform_pole_value"], abs=1e-12)
    )
    ok = len(reports) >= 6 and worst <= 1e-6 and cancellation
    _announce(
        2,
        ok,
        f"{len(reports)} rational cases, max |residual| = {worst:.3e} <= 1e-6; "
        f"remark sphere: b-term {detail['pole_b_term']:.6f}, a-term "
        f"{detail['exceptional_a_term']:.6f}, i_f = spherical order / 2 confirmed",
    )


def test_criterion_3_delta4_closed_form():
    res = run_suite("delta4-at-0", SEED)
    ok = res.passed and res.summary["max_closed_vs_fd"] <= 1e-4 and res.summary["anchor_error"] <= 1e-12
    _announce(
        3,
        ok,
        f"closed form vs Richardson FD max error {res.summary['max_closed_vs_fd']:.3e} <= 1e-4 "
        f"over 20 seeded polynomials; anchor x+1 -> 4 exact",
    )


def test_criterion_4_boundary_identity(poly_reports):
    reports, _ = poly_reports
    worst = max(r.diagnostics["boundary_identity_max"] for r in reports.values())
    ok = worst <= 1e-9
    _announce(4, ok, f"log|N(f)| = log|f| + log|f o S_f| at every node, max residual {worst:.3e} <= 1e-9")


def test_criterion_5_sf_bijectivity(poly_reports):
    reports, _ = poly_reports
    worst = max(r.diagnostics["sf_roundtrip_max"] for r in reports.values())
    points = min(r.diagnostics["sf_roundtrip_points"] for r in reports.values())
    ok = worst <= 1e-9 and points >= 1000
    _announce(
        5,
        ok,
        f"S_f inverse roundtrip max error {worst:.3e} <= 1e-9 on {points} seeded boundary points per entry",
    )


def test_criterion_6_multiplicity_doubling():
    res = run_suite("multiplicity", SEED)
    ok = res.passed and res.summary["cases"] >= 50
    _announce(
        6,
        ok,
        f"total multiplicity doubling exact on {res.summary['cases']} seeded factor products "
        f"({res.summary['failures']} failures)",
    )


def test_criterion_7_differential_suites():
    lines = []
    ok = True
    for name in ("crf", "gamma", "harmonic", "biharmonic", "bilaplacian-logN"):
        res = run_suite(name, SEED)
        ok = ok and res.passed
        lines.append(f"{name}: ratio {res.summary['convergence_ratio']:.2f}")
    _announce(7, ok, "order-2 convergence and terminal residuals for " + "; ".join(lines))


def test_criterion_8_quadrature_validity():
    res = run_suite("quadrature", SEED)
    ok = res.passed
    _announce(
        8,
        ok,
        f"measure error {res.summary['max_measure_rel_error']:.3e} <= 1e-10 rel; "
        f"distance to the exact mean {res.summary['max_cross_method_error']:.3e} <= 1e-12",
    )


def test_criterion_9_representative_independence(poly_reports, rational_reports):
    worst = 0.0
    for reports, _ in (poly_reports, rational_reports):
        for r in reports.values():
            worst = max(worst, r.diagnostics["representative_spread"])
    ok = worst <= 1e-12
    _announce(9, ok, f"spherical terms identical across 5 random representatives, spread {worst:.3e} <= 1e-12")


def test_criterion_10_determinism(tmp_path):
    args = [
        "jensen",
        "--corpus",
        str(CORPUS / "rationals.json"),
        "--format",
        "json",
        "--seed",
        "11",
        "--n",
        "32",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    ok = a.read_bytes() == b.read_bytes()
    _announce(10, ok, "identical (config, seed) produce byte-identical reports")
