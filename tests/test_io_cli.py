import json
import math
import sys
from pathlib import Path

import pytest

from slicereg import zeros_poles
from slicereg.cli import main
from slicereg.io import (
    InputFormatError,
    function_to_dict,
    load_function,
    parse_function,
    parse_polynomial,
    render_json,
    render_report_text,
    render_reports_csv,
)
from slicereg.jensen import jensen_check
from slicereg.quaternions import I, ONE, Quaternion
from slicereg.slicepoly import SlicePolynomial
from slicereg.zeros_poles import SemiregularFunction, analyze, as_semiregular

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CASE_RADIUS = {
    entry["file"]: entry["r"]
    for manifest in ("polynomials.json", "rationals.json")
    for entry in json.loads((CORPUS / manifest).read_text())["cases"]
}
RATIONALS = sorted(name for name in CASE_RADIUS if name.startswith("rat_"))


# -- parsing -----------------------------------------------------------------


def test_parse_polynomial_mixed_entries():
    p = parse_polynomial({"coeffs": [1.5, [0.0, 1.0, 0.0, 0.0], -2]})
    assert p.coefficient(0).isclose(Quaternion.real(1.5))
    assert p.coefficient(1).isclose(I)
    assert p.coefficient(2).isclose(Quaternion.real(-2.0))


def test_parse_rational():
    f = parse_function(
        {"num": {"coeffs": [[0, 1, 0, 0], 1.0]}, "den": {"coeffs": [1.0, 0.0, 1.0]}}
    )
    assert isinstance(f, SemiregularFunction)
    assert f.den.degree == 2


def test_parse_errors():
    with pytest.raises(InputFormatError):
        parse_polynomial({"nope": []})
    with pytest.raises(InputFormatError):
        parse_polynomial({"coeffs": [[1, 2]]})
    with pytest.raises(InputFormatError):
        parse_function({"num": {"coeffs": [1.0]}})
    with pytest.raises(InputFormatError):
        parse_function({"num": {"coeffs": [1.0]}, "den": {"coeffs": [[0, 1, 0, 0]]}})


def test_roundtrip_through_dict():
    f = SlicePolynomial([I, ONE])
    back = parse_function(function_to_dict(f))
    assert all((a - b).abs() == 0 for a, b in zip(back.coeffs, f.coeffs))
    rat = SemiregularFunction(SlicePolynomial.from_real([1, 0, 1]), f)
    back2 = parse_function(function_to_dict(rat))
    assert isinstance(back2, SemiregularFunction)


def test_load_function_errors(tmp_path):
    with pytest.raises(InputFormatError):
        load_function(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(InputFormatError) as err:
        load_function(bad)
    assert "1:" in str(err.value)  # line diagnostics


def test_renderers():
    payload = {"b": 1.0, "a": [1, 2], "nested": {"x": "y"}}
    js = render_json(payload)
    assert js.startswith("{") and json.loads(js) == payload
    txt = render_report_text(payload)
    assert "nested:" in txt
    csv_text = render_reports_csv([{"a": 1, "b": {"c": 2}}])
    assert csv_text.splitlines()[0] == "a,b"


# -- CLI ----------------------------------------------------------------------


def test_cli_jensen_single_file(tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"coeffs": [-0.5, 1.0]}))
    code = main(["jensen", "--fn", str(fn), "--r", "1", "--n", "24"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_jensen_corpus_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "jensen",
            "--corpus",
            str(CORPUS / "rationals.json"),
            "--format",
            "json",
            "--no-diagnostics",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["passed"] is True
    assert data["summary"]["count"] >= 6
    manifest = json.loads((CORPUS / "rationals.json").read_text())["cases"]
    assert [c["name"] for c in data["cases"]] == [e["name"] for e in manifest]


def test_cli_exit_codes(tmp_path, capsys):
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps({"coeffs": [-1.0, 1.0]}))
    assert main(["jensen", "--fn", str(boundary), "--r", "1"]) == 2
    err = capsys.readouterr().err
    assert "HypothesisViolation" in err

    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    assert main(["jensen", "--fn", str(bad)]) == 3

    assert main(["jensen", "--corpus", str(tmp_path / "missing.json")]) == 3

    # the cases run in manifest order and the first failing one sets the code:
    # the boundary zero (2) comes before the unreadable file (3), and no report is written
    fine = _fine_case(tmp_path)
    manifest, out = tmp_path / "manifest.json", tmp_path / "report.json"
    for files, code in ((["fine.json", "boundary.json", "bad.json"], 2),
                        (["fine.json", "bad.json", "boundary.json"], 3)):
        manifest.write_text(json.dumps({"cases": [{"file": f, "r": 1.0} for f in files]}))
        capsys.readouterr()
        assert main(["jensen", "--corpus", str(manifest), "--no-diagnostics", "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("HypothesisViolation:" if code == 2 else "input error:")
        assert not out.exists()

    # tolerance failure: demand an absurd tolerance
    assert main(["jensen", "--fn", fine, "--r", "1", "--n", "24", "--tol", "1e-18", "--no-diagnostics"]) == 1


def _fine_case(tmp_path):
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps({"coeffs": [0.64, 0.0, 1.0]}))
    return str(fine)


@pytest.mark.parametrize(
    "manifest",
    [
        {"cases": [{"name": "no file"}]},
        [{"file": "fine.json"}],
        {"cases": [{"file": "fine.json", "r": "abc"}]},
        {"cases": [{"file": "fine.json", "n": 4.7}]},
        {"cases": [{"file": "fine.json", "n": 48.0}]},
        {"cases": [{"file": "fine.json", "n": "48"}]},
        {"cases": [{"file": "fine.json", "n": True}]},
        {"cases": [{"file": "fine.json", "r": "1.0"}]},
        {"cases": [{"file": "fine.json", "r": True}]},
    ],
    ids=["case-without-file", "top-level-list", "non-numeric-r", "fractional-n", "float-n", "string-n",
         "bool-n", "string-r", "bool-r"],
)
def test_cli_jensen_rejects_malformed_manifest(tmp_path, capsys, manifest):
    _fine_case(tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["jensen", "--corpus", str(path), "--no-diagnostics"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: ") and "Traceback" not in err


def test_cli_jensen_manifest_takes_integer_r_and_n(tmp_path, capsys):
    _fine_case(tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"cases": [{"file": "fine.json", "r": 1, "n": 40}]}))
    main(["jensen", "--corpus", str(path), "--no-diagnostics", "--format", "json"])
    config = json.loads(capsys.readouterr().out)["cases"][0]["config"]
    assert (config["r"], config["n"]) == (1.0, 40)


def test_cli_rejects_zero_bijectivity_points(tmp_path, capsys):
    assert main(["jensen", "--fn", _fine_case(tmp_path), "--bijectivity-points", "0"]) == 3
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_rejects_too_few_nodes(tmp_path, capsys):
    assert main(["jensen", "--fn", _fine_case(tmp_path), "--n", "2"]) == 3
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_rejects_nonpositive_radius(tmp_path, capsys):
    fn = _fine_case(tmp_path)
    for r in ("-1", "0", "nan"):
        assert main(["jensen", "--fn", fn, "--r", r]) == 3
        assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
def test_cli_jensen_rejects_bad_tolerance(tmp_path, capsys, tol):
    assert main(["jensen", "--fn", _fine_case(tmp_path), f"--tol={tol}", "--no-diagnostics"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "tol" in err


@pytest.mark.parametrize("command", ["jensen", "verify-ops"])
def test_cli_rejects_negative_seed(tmp_path, capsys, command):
    args = ["jensen", "--fn", _fine_case(tmp_path)] if command == "jensen" else ["verify-ops", "--suite", "gamma"]
    assert main([*args, "--seed=-3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "seed" in err


def test_cli_near_boundary_keeps_the_given_order(tmp_path, capsys):
    fn = tmp_path / "near.json"
    fn.write_text(json.dumps({"coeffs": [0.9702989999999999, 0.0, 1.0]}))  # sphere at 0.985
    code = main(["jensen", "--fn", str(fn), "--r", "1", "--format", "json", "--tol", "1e-12", "--no-diagnostics"])
    (case,) = json.loads(capsys.readouterr().out)["cases"]
    assert code == 0
    assert case["config"]["n"] == 48
    assert case["warnings"] == []
    assert abs(case["residual"]) <= 1e-12


def test_cli_reports_the_oracle_only_with_diagnostics(capsys):
    fn = str(CORPUS / "poly_spherical.json")
    reports = {}
    for flags in ([], ["--no-diagnostics"]):
        assert main(["jensen", "--fn", fn, "--r", "1", "--format", "json", "--bijectivity-points", "1", *flags]) == 0
        (case,) = json.loads(capsys.readouterr().out)["cases"]
        reports[bool(flags)] = case
    diagnostics = reports[False]["diagnostics"]
    assert diagnostics["oracle_orders"] == [16, 12]
    assert diagnostics["oracle_nodes"] > 0 and diagnostics["oracle_nodes"] % (2 * 12 * 12) == 0
    assert not {"oracle_orders", "oracle_nodes"} & set(reports[True]["diagnostics"])
    for key in ("lhs", "rhs", "residual", "breakdown", "zeros", "poles"):
        assert reports[False][key] == reports[True][key]


def test_convergence_study_prints_a_row_per_corpus_case():
    import subprocess

    root = Path(__file__).resolve().parent.parent
    names = [c["name"] for m in ("polynomials.json", "rationals.json")
             for c in json.loads((root / "corpus" / m).read_text())["cases"]]
    out = subprocess.run([sys.executable, str(root / "scripts" / "convergence_study.py"), "--orders", "12", "24"],
                         capture_output=True, text=True, check=True).stdout
    rows = out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == names
    assert all(len(row.split()) == 5 for row in rows)  # case, r, gap, two residuals


def test_report_digests_prints_a_digest_per_reference_report():
    import subprocess

    root = Path(__file__).resolve().parent.parent
    functions = [p for p in (root / "corpus").glob("*.json") if p.name not in ("polynomials.json", "rationals.json")]
    out = subprocess.run([sys.executable, str(root / "scripts" / "report_digests.py")],
                         capture_output=True, text=True, check=True).stdout
    rows = [row.split("  ") for row in out.splitlines()]
    names = [name for _, name in rows]
    assert len(names) == 9 + len(functions) + 2 + 10 and len(set(names)) == len(names)
    assert [n for n in names if n.startswith("error-")] == names[-10:]  # failing calls come last
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in rows)
    assert sorted(n for n in names if n.startswith("zeros-")) == sorted(f"zeros-{p.stem}.json" for p in functions)


def test_suite_times_times_one_suite():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "scripts" / "suite_times.py"
    spec = importlib.util.spec_from_file_location("suite_times", path)
    suite_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite_times)
    times = suite_times.suite_seconds(["gamma"])
    assert list(times) == ["gamma"] and 0.0 < times["gamma"] < 60.0
    assert suite_times.REPEATS == 9 and suite_times.SEED == 1


def test_cli_zeros(capsys):
    code = main(["zeros", "--fn", str(CORPUS / "rat_remark_nonuniform.json"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["zeros"] == []
    (pole,) = data["poles"]
    assert pole["kind"] == "spherical_nonuniform"
    assert pole["order"] == 1
    assert pole["exceptional_order"] == 0
    assert pole["isolated_multiplicity"] == 1


def test_cli_zeros_rejects_bad_radius(capsys):
    fn = str(CORPUS / "rat_remark_nonuniform.json")
    for r in ("-1", "0", "nan"):
        assert main(["zeros", "--fn", fn, "--r", r]) == 3
        assert capsys.readouterr().err.startswith("input error: ")
    assert main(["zeros", "--fn", fn, "--r", "inf"]) == 0


def test_cli_zeros_rejects_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["zeros", "--fn", str(missing)]) == 3
    assert capsys.readouterr().err == f"input error: no such file: {missing}\n"


@pytest.mark.parametrize("name", RATIONALS)
def test_cli_zeros_match_jensen_check(name, capsys):
    """The zeros command and jensen_check read one analysis: jensen's zero
    list is every zero record inside the ball, and the zeros command lists
    the records that no nonuniform pole sphere claimed as its exceptional
    point."""
    path, r = CORPUS / name, CASE_RADIUS[name]
    assert main(["zeros", "--fn", str(path), "--r", repr(r), "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    f = load_function(path)
    report = json.loads(render_json(jensen_check(f, r, 12, diagnostics=False).to_dict()))
    assert listed["poles"] == report["poles"]
    records = json.loads(render_json([z.to_dict() for z in analyze(f, math.inf).zeros]))
    assert report["zeros"] == [z for z in records if math.hypot(*z["sphere"]) < r]
    exceptional = [p["exceptional_point"] for p in listed["poles"] if p["kind"] == "spherical_nonuniform"]
    assert listed["zeros"] == [z for z in records if z["representative"] not in exceptional]
    assert len(listed["zeros"]) + len(exceptional) == len(records)


def _count_root_spheres(monkeypatch) -> list:
    """Record every root_spheres call, through each slicereg namespace that binds it."""
    calls = []
    original = zeros_poles.root_spheres

    def counted(coeffs):
        calls.append(len(coeffs))
        return original(coeffs)

    for name, module in list(sys.modules.items()):
        if name.startswith("slicereg") and getattr(module, "root_spheres", None) is original:
            monkeypatch.setattr(module, "root_spheres", counted)
    return calls


@pytest.mark.parametrize("name", ["rat_nonuniform_with_real_zero.json", "poly_deg8_all_kinds.json"])
def test_one_root_finding_per_polynomial(name, monkeypatch, capsys):
    path, r = CORPUS / name, CASE_RADIUS[name]
    f = load_function(path)
    fs = as_semiregular(f)
    positive = sum(p.degree > 0 for p in (fs.num, fs.den))
    calls = _count_root_spheres(monkeypatch)
    jensen_check(f, r, bijectivity_points=50)
    assert len(calls) == positive
    calls.clear()
    load_function(path)  # a rational's common factors are cancelled at load
    at_load = len(calls)
    calls.clear()
    assert main(["jensen", "--fn", str(path), "--r", repr(r), "--bijectivity-points", "50"]) == 0
    assert len(calls) == at_load + positive


def test_cli_zeros_polynomial(capsys):
    code = main(["zeros", "--fn", str(CORPUS / "poly_isolated_pair.json"), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    (rec,) = data["zeros"]
    assert rec["kind"] == "isolated"
    assert rec["total_multiplicity"] == 2


def test_cli_verify_ops_single_suite(capsys):
    code = main(["verify-ops", "--suite", "delta4-at-0", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_verify_ops_unknown_suite(capsys):
    assert main(["verify-ops", "--suite", "nope"]) == 3
    assert capsys.readouterr().err.startswith("input error: unknown suite 'nope'; choose from crf, ")


def test_cli_verify_ops_lets_a_key_error_inside_a_suite_propagate(monkeypatch):
    import slicereg.verify as verify

    def broken(seed):
        raise KeyError("bug inside a suite")

    monkeypatch.setitem(verify.SUITES, "gamma", broken)
    for suite in ("gamma", "all"):
        with pytest.raises(KeyError, match="bug inside a suite"):
            main(["verify-ops", "--suite", suite])


def test_cli_verify_ops_maps_a_library_error_inside_a_suite(monkeypatch, tmp_path, capsys):
    import slicereg.verify as verify
    from slicereg.errors import ClassificationInconsistencyError

    def broken(seed):
        raise ClassificationInconsistencyError("inconsistent inside a suite")

    monkeypatch.setitem(verify.SUITES, "gamma", broken)
    out = tmp_path / "report.json"
    assert main(["verify-ops", "--suite", "gamma", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: inconsistent inside a suite\n"
    assert not out.exists()


def test_cli_verify_ops_row_outputs(capsys):
    assert main(["verify-ops", "--suite", "gamma", "--seed", "7", "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    for col in ("identity", "point", "h", "residual", "expected_order"):
        assert col in header
    assert main(["verify-ops", "--suite", "gamma", "--seed", "7", "--format", "json", "--rows"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert len(data["suites"][0]["rows"]) > 0


def test_cli_verify_ops_all_json_matches_text(tmp_path):
    js, txt = tmp_path / "v.json", tmp_path / "v.txt"
    code_json = main(["verify-ops", "--suite", "all", "--format", "json", "--out", str(js)])
    code_text = main(["verify-ops", "--suite", "all", "--format", "text", "--out", str(txt)])
    data = json.loads(js.read_text())
    verdict = txt.read_text().splitlines()[-1]
    assert verdict in ("PASS", "FAIL")
    assert data["passed"] is (verdict == "PASS")
    assert code_json == code_text
    assert [s["passed"] for s in data["suites"]] == [
        line.startswith("[PASS]") for line in txt.read_text().splitlines() if line.startswith("[")
    ]


def test_cli_determinism(tmp_path):
    """Running a manifest twice in one process writes the same bytes,
    diagnostics (the product-rule oracle) included, at the default n."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for manifest in ("polynomials.json", "rationals.json"):
        args = ["jensen", "--corpus", str(CORPUS / manifest), "--format", "json", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert "boundary_identity_max" in a.read_text()
        assert a.read_bytes() == b.read_bytes(), manifest
