import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import slicereg
from slicereg import zeros_poles
from slicereg.cli import main
from slicereg.io import (
    InputFormatError,
    function_to_dict,
    load_function,
    parse_function,
    parse_polynomial,
    render_json,
    render_reports_csv,
    report_text_lines,
)
from slicereg.jensen import jensen_check
from slicereg.quaternions import I, ONE, InvalidUnitError, Quaternion
from slicereg.slicepoly import NormalNotRealError, SlicePolynomial
from slicereg.zeros_poles import SemiregularFunction, analyze, as_semiregular

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CASE_RADIUS = {
    entry["file"]: entry["r"]
    for manifest in ("polynomials.json", "rationals.json")
    for entry in json.loads((CORPUS / manifest).read_text())["cases"]
}
RATIONALS = sorted(name for name in CASE_RADIUS if name.startswith("rat_"))
SIMPLE = str(CORPUS / "poly_real_simple.json")  # its one zero lies at 0.5


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
    assert f.den.tolist() == [1.0, 0.0, 1.0]


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


def _rational_cases() -> list[tuple[str, dict]]:
    """(name, record) of every corpus rational and of both near-boundary workload functions at seed 1."""
    sys.path.insert(0, str(CORPUS.parent / "perfbench"))
    from workloads import near_boundary_functions

    cases = [(e["file"], json.loads((CORPUS / e["file"]).read_text()))
             for e in json.loads((CORPUS / "rationals.json").read_text())["cases"]]
    return cases + list(near_boundary_functions(1).items())


def test_den_and_num_survive_a_roundtrip_through_dict():
    cases = _rational_cases()
    assert len(cases) == 9 and sum("den" in record for _, record in cases) == 8
    for name, record in cases:
        f = parse_function(record)
        a, b = as_semiregular(f), as_semiregular(parse_function(function_to_dict(f)))
        assert a.den.tobytes() == b.den.tobytes(), name
        assert np.array(a.num.coeffs).tobytes() == np.array(b.num.coeffs).tobytes(), name


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
    txt = "\n".join(report_text_lines(payload))
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


def test_main_reuses_one_parser_and_its_reports_do_not_drift(tmp_path, monkeypatch):
    """Two ``main`` calls in one process parse with one parser, and a call
    in between (other subcommand, other options) leaves no state in it:
    the repeated jensen call writes the same bytes, one case, not two."""
    import argparse

    from slicereg import cli

    parsers = []
    parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args, **kw: parsers.append(self) or parse(self, *args, **kw))
    argv = ["jensen", "--fn", str(CORPUS / "poly_deg8_all_kinds.json"), "--format", "json", "--out"]
    assert main([*argv, str(tmp_path / "first.json")]) == 0
    assert main(["zeros", "--fn", SIMPLE, "--r", "2", "--out", str(tmp_path / "zeros.json")]) == 0
    assert main([*argv, str(tmp_path / "second.json")]) == 0
    assert len(parsers) == 3 and all(p is cli.build_parser() for p in parsers)
    first = (tmp_path / "first.json").read_bytes()
    assert first == (tmp_path / "second.json").read_bytes()
    assert len(json.loads(first)["cases"]) == 1


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


def _function_file_commands(tmp_path, text):
    """jensen --fn, zeros --fn and a one-case manifest, each on a function file holding text."""
    fn = tmp_path / "f.json"
    fn.write_text(text)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"cases": [{"file": "f.json", "r": 1.0}]}))
    return [["jensen", "--fn", str(fn)], ["zeros", "--fn", str(fn)], ["jensen", "--corpus", str(manifest)]]


@pytest.mark.parametrize("text", ["5", "null", "3.5", "true", '"coeffs"', "[]"])
def test_cli_rejects_function_file_that_is_not_an_object(tmp_path, capsys, text):
    for argv in _function_file_commands(tmp_path, text):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "JSON object" in err, argv


@pytest.mark.parametrize("text", ['{"coeffs": [1e400]}', '{"coeffs": [NaN, 1]}', '{"coeffs": [-Infinity, 1]}',
                                  '{"coeffs": [[0.5, NaN, 0, 0], 1]}', '{"coeffs": [1, [0, 0, 1e999, 0]]}',
                                  '{"num": {"coeffs": [1, 1]}, "den": {"coeffs": [NaN, 1]}}'])
def test_cli_rejects_non_finite_coefficients(tmp_path, capsys, text):
    for argv in _function_file_commands(tmp_path, text):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "must be finite" in err, argv


@pytest.mark.parametrize("argv, message", [
    (["jensen", "--fn", "{tmp}"], "cannot read {tmp}: Is a directory"),
    (["zeros", "--fn", "{tmp}"], "cannot read {tmp}: Is a directory"),
    (["jensen", "--fn", "{tmp}/latin1.json"], "{tmp}/latin1.json: not UTF-8 text"),
    (["zeros", "--fn", "{tmp}/latin1.json"], "{tmp}/latin1.json: not UTF-8 text"),
    (["jensen", "--corpus", "{tmp}/names-a-directory.json"], "cannot read {tmp}/sub: Is a directory"),
    (["jensen", "--fn", SIMPLE, "--out", "{tmp}/missing/r.json"], "cannot write {tmp}/missing/r.json"),
    (["zeros", "--fn", SIMPLE, "--out", "{tmp}/missing/r.json"], "cannot write {tmp}/missing/r.json"),
    (["verify-ops", "--suite", "gamma", "--out", "{tmp}/missing/r.json"], "cannot write {tmp}/missing/r.json"),
], ids=["jensen-directory", "zeros-directory", "jensen-not-utf8", "zeros-not-utf8", "manifest-directory",
        "jensen-out", "zeros-out", "verify-ops-out"])
def test_cli_unreadable_input_or_unwritable_out_is_an_input_error(tmp_path, capsys, argv, message):
    (tmp_path / "latin1.json").write_bytes(b'{"coeffs": [1.0, "\xe9"]}')
    (tmp_path / "sub").mkdir()
    (tmp_path / "names-a-directory.json").write_text(json.dumps({"cases": [{"file": "sub"}]}))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {message.format(tmp=tmp_path)}")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["jensen", "--fn", SIMPLE],
    ["jensen", "--corpus", str(CORPUS / "polynomials.json"), "--format", "json"],
    ["zeros", "--fn", SIMPLE],
    ["verify-ops"],
    ["verify-ops", "--suite", "quadrature", "--format", "csv"],
], ids=["jensen-fn", "jensen-corpus", "zeros", "verify-ops-all", "verify-ops-quadrature"])
def test_cli_missing_out_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    import slicereg.cli
    import slicereg.verify

    def never(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    for module, name in ((slicereg.cli, "jensen_check"), (slicereg.cli, "analyze"), (slicereg.cli, "load_function"),
                         (slicereg.verify, "run_suite")):
        monkeypatch.setattr(module, name, never)
    out = tmp_path / "missing" / "r.json"
    assert main([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: cannot write {out}: No such file or directory\n" and captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_cli_out_that_cannot_be_written_fails_at_write_time(tmp_path, capsys):
    # the directory exists, so the early check passes; writing still fails
    assert main(["verify-ops", "--suite", "gamma", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: cannot write {tmp_path}: Is a directory\n" and captured.out == ""


def test_parse_coefficient_rejects_integer_beyond_float_range():
    with pytest.raises(InputFormatError, match="too large"):
        parse_polynomial({"coeffs": [10**400, 1]})


@pytest.mark.parametrize("record, index", [({"coeffs": [1e150, 1, 1e-160]}, 2),
                                           ({"coeffs": [[1e-200, 1e-200, 0, 0], 1]}, 0),
                                           ({"coeffs": [1e200, 1]}, 0)],
                         ids=["squares-below-the-least-normal", "quaternion-below", "squares-to-inf"])
def test_cli_rejects_coefficients_whose_squared_norm_is_out_of_range(tmp_path, capsys, record, index):
    # every nonzero coefficient is kept, so its squared norm must be a normal double
    for argv in _function_file_commands(tmp_path, json.dumps(record)):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"coefficient {index} is out of range" in err, argv


@pytest.mark.parametrize("record", [{"coeffs": [1.3e154, 1.3e154]}, {"coeffs": [[1e154, 0, 0, 0], [0, 1e154, 0, 0]]}],
                         ids=["real", "quaternionic"])
def test_cli_rejects_a_numerator_whose_norm_sum_squares_to_inf(tmp_path, capsys, record):
    # each coefficient's squared norm is a double, but N(num) and the stems' A
    # square sums of them; the real one's only zero is at -1, far inside r = 2
    jensen, zeros, _ = _function_file_commands(tmp_path, json.dumps(record))
    for argv in ([*jensen, "--r", "2"], zeros):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "numerator is out of range" in err, argv


@pytest.mark.parametrize("diagnostics", [[], ["--no-diagnostics"]], ids=["diagnostics", "no-diagnostics"])
def test_cli_corpus_reruns_in_one_process_write_the_same_bytes(tmp_path, diagnostics):
    # the second run of each manifest reads the sample rows, Gauss-Legendre
    # angles and S^2 grids that the first one cached
    for manifest in ("polynomials", "rationals"):
        outs = [tmp_path / f"{manifest}-{k}.json" for k in range(2)]
        for out in outs:
            argv = ["jensen", "--corpus", str(CORPUS / f"{manifest}.json"), "--seed", "3", *diagnostics]
            assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes(), manifest


def test_cli_means_that_overflow_name_their_node_in_one_line(tmp_path):
    # at r = 1e5 the stems of 1e150 (1 + x) reach 1e155, so A = |F1|^2 + |F2|^2
    # and exp(2 log|N(f)|) overflow: the means raise their named error, and
    # stderr holds its one line, with the node as plain floats and no numpy
    # warning before it
    import os
    import subprocess

    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"coeffs": [1e150, 1e150]}))
    env = {**os.environ, "PYTHONPATH": str(Path(slicereg.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-m", "slicereg", "jensen", "--fn", str(fn), "--r", "1e5"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 3 and out.stdout == ""
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert out.stderr.startswith("error: integrand not finite on the sphere through polar node 0 = Quaternion(99999.97")
    assert "np.float64" not in out.stderr and "RuntimeWarning" not in out.stderr


def _zero_spheres(tmp_path, capsys, coeffs):
    """(|alpha + i beta|, total multiplicity) of each zero record ``zeros`` prints for coeffs."""
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"coeffs": coeffs}))
    assert main(["zeros", "--fn", str(fn), "--format", "json"]) == 0
    return [(abs(complex(*z["sphere"])), z["total_multiplicity"]) for z in json.loads(capsys.readouterr().out)["zeros"]]


def test_cli_keeps_coefficients_far_below_the_largest(tmp_path, capsys):
    # e^x to degree 20: its coefficients 1/k! for k = 16-20 lie below 1e-13 of the first
    spheres = _zero_spheres(tmp_path, capsys, [1.0 / math.factorial(k) for k in range(21)])
    assert sum(m for _, m in spheres) == 20 and 6.4 < min(s for s, _ in spheres) < 6.5
    # the means read log|f| off f's own coefficients, not off their square
    assert main(["jensen", "--fn", str(tmp_path / "f.json"), "--r", "8", "--tol", "1e-12"]) == 0
    capsys.readouterr()
    # 1 + 1e-14 x^10: ten roots at radius 10^1.4 = 25.1, on five spheres
    spheres = _zero_spheres(tmp_path, capsys, [1.0] + [0.0] * 9 + [1e-14])
    assert [m for _, m in spheres] == [2] * 5 and all(abs(s - 10**1.4) <= 1e-9 for s, _ in spheres)


@pytest.mark.parametrize("text", ['{"coeffs": [true, -1]}', '{"coeffs": [[1, false, 0, 0], 1]}',
                                  '{"coeffs": [["0.5", "0", "0", "0"], 1]}'])
def test_cli_rejects_coefficients_that_are_not_numbers(tmp_path, capsys, text):
    # JSON true/false load as bool, an int subclass, yet are not JSON numbers
    for argv in _function_file_commands(tmp_path, text):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "4-element array of numbers" in err, argv


@pytest.mark.parametrize("record, message", [
    ({"coeffs": [1.0] * 70}, "degree 69 exceeds cap 64"),
    ({"coeffs": [[1.0, 0.1, 0.0, 0.0]] + [0.0] * 39 + [0.5]}, "N(num) would exceed the cap 64"),
    ({"num": {"coeffs": [[1.0, 0.1, 0.0, 0.0]] + [0.0] * 39 + [0.5]}, "den": {"coeffs": [0.25, 1.0]}},
     "N(num) would exceed the cap 64"),
])
def test_cli_rejects_degree_beyond_the_cap(tmp_path, capsys, record, message):
    # a quaternionic numerator of degree 40 parses, but its N(f) has degree 80
    for argv in _function_file_commands(tmp_path, json.dumps(record)):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err, argv


def test_cli_jensen_takes_a_slice_preserving_numerator_past_half_the_cap(tmp_path, capsys):
    # degree 40: N(num) = num^2 has degree 80, past the cap, and is never
    # formed as a SlicePolynomial
    jensen, zeros, corpus = _function_file_commands(tmp_path, json.dumps({"coeffs": [1.0] + [0.0] * 39 + [0.5]}))
    assert main(zeros) == 0
    assert main(corpus) == 0 and "PASS" in capsys.readouterr().out  # r = 1, with diagnostics
    assert main([*jensen, "--r", "0.5", "--no-diagnostics", "--format", "json"]) == 0
    (case,) = json.loads(capsys.readouterr().out)["cases"]
    assert abs(case["residual"]) <= 1e-12
    # at r = 0.5 |f'_s| < 1e-10 on the whole sphere: the S_f roundtrip has no
    # point to sample, which the report says, and the rest of it stands
    assert main([*jensen, "--r", "0.5", "--format", "json"]) == 0
    (with_diagnostics,) = json.loads(capsys.readouterr().out)["cases"]
    assert with_diagnostics["residual"] == case["residual"]
    diag = with_diagnostics["diagnostics"]
    assert diag["sf_roundtrip_points"] == 0 and diag["sf_roundtrip_max"] is None
    assert diag["boundary_identity_max"] <= 1e-12
    assert with_diagnostics["warnings"] == ["S_f roundtrip checked on 0 of 1000 points: too few sampled boundary"
                                            " points lie in the S_f domain"]
    assert main([*jensen, "--r", "0.5"]) == 0
    assert "warning: S_f roundtrip checked on 0 of 1000 points" in capsys.readouterr().out


@pytest.mark.parametrize("record", [{"coeffs": [0]}, {"coeffs": []},
                                    {"num": {"coeffs": [0.0]}, "den": {"coeffs": [0.25, 1.0]}}])
def test_cli_zero_polynomial_has_no_zero_records(tmp_path, capsys, record):
    jensen, zeros, _ = _function_file_commands(tmp_path, json.dumps(record))
    assert main(zeros) == 3
    assert capsys.readouterr().err == "error: zero set of the zero polynomial is everything\n"
    assert main(jensen) == 2  # f(0) = 0 is checked before any root finding
    assert capsys.readouterr().err.startswith("HypothesisViolation: zero at the origin")


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


PACKAGE_MODULES = ["slicereg"] + sorted(f"slicereg.{p.stem}" for p in Path(slicereg.__file__).parent.glob("*.py")
                                         if p.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


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


def test_cli_never_imports_numpy_polynomial():
    # the Gauss-Legendre rules are built in house: a CLI run leaves numpy's
    # lazily loaded polynomial package unimported
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from slicereg.cli import main\n"
            "main(['jensen', '--fn', 'corpus/poly_deg8_all_kinds.json', '--no-diagnostics'])\n"
            "main(['verify-ops', '--suite', 'quadrature'])\n"
            "print('numpy.polynomial' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


# modules no command needs: the sampled diagnostics and the verify corpora
# draw without numpy's random package, and a corpus runs on one plain thread
UNUSED_MODULES = "('numpy.random', 'concurrent.futures', 'logging')"


def test_jensen_diagnostics_never_import_numpy_random():
    # the sampled diagnostics draw from the seeded sequence of
    # quadrature.s3_points, so no jensen run loads numpy's random package;
    # neither a corpus, run on a worker thread, nor zeros loads an executor
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import os, sys\n"
            "from slicereg.cli import main\n"
            "for manifest in ('polynomials', 'rationals'):\n"
            "    main(['jensen', '--corpus', f'corpus/{manifest}.json', '--seed', '3', '--out', os.devnull])\n"
            "main(['jensen', '--fn', 'corpus/poly_deg8_all_kinds.json', '--out', os.devnull])\n"
            "main(['zeros', '--fn', 'corpus/rat_remark_nonuniform.json', '--out', os.devnull])\n"
            f"print([m for m in {UNUSED_MODULES} if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_verify_ops_never_imports_numpy_random():
    # the suites draw their corpora from verify.Stream, over the standard
    # library's random module, so verify-ops does not load numpy's
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import os, sys\n"
            "from slicereg.cli import main\n"
            "main(['verify-ops', '--suite', 'all', '--seed', '7', '--out', os.devnull])\n"
            f"print([m for m in {UNUSED_MODULES} if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_the_package_root_loads_no_submodule():
    # the library is used through its submodules; the root holds the version
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import sys, slicereg\n"
            "print(slicereg.__version__)\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('slicereg.')))\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [slicereg.__version__, "[]"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are counted in /proc")
def test_importing_the_cli_joins_the_idle_blas_threads():
    # numpy's OpenBLAS starts worker threads that spin before they sleep;
    # importing the CLI leaves the process one thread, and a threaded
    # product afterwards still runs and is right
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import os, numpy\n"
            "import slicereg.cli\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            "a = numpy.ones((400, 400))\n"
            "print((a @ a == 400.0).all())\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["1", "True"]


def test_jensen_and_the_parser_never_import_the_verification_suites():
    # only verify-ops needs slicereg.verify and the finite-difference stencils
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from slicereg.cli import main\n"
            "try:\n"
            "    main(['verify-ops', '--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "main(['jensen', '--fn', 'corpus/poly_deg8_all_kinds.json'])\n"
            "main(['zeros', '--fn', 'corpus/rat_remark_nonuniform.json'])\n"
            "print(sorted(m for m in ('slicereg.verify', 'slicereg.diffops') if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert "crf, gamma, harmonic, biharmonic" in " ".join(out.stdout.split())  # the --help text
    assert out.stdout.splitlines()[-1] == "[]"


def test_help_lists_the_suites_of_verify():
    import slicereg.cli as cli
    from slicereg.verify import SUITE_ORDER

    assert list(cli.VERIFY_SUITES) == SUITE_ORDER


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
    assert len(names) == 10 + len(functions) + 3 + 4 + 4 + 4 + 37 + 24 and len(set(names)) == len(names)
    assert [n for n in names if n.startswith("error-")] == names[-61:-24]  # then the failing calls
    assert [n for n in names if n.startswith("hard-")] == names[-24:]  # the ledger's exact inputs come last
    assert [n for n in names if n.startswith("coeffs-")] == names[-65:-61]  # the small coefficients before the errors
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in rows)
    assert sorted(n for n in names if n.startswith("zeros-") and n.endswith(".json")) == sorted(
        f"zeros-{p.stem}.json" for p in functions)


def _load_script(name):
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_times_times_one_suite():
    suite_times = _load_script("suite_times")
    costs = suite_times.suite_costs(["gamma", "quadrature"])
    assert list(costs) == ["s", "peak_rss_mb"] and all(list(c) == ["gamma", "quadrature"] for c in costs.values())
    assert all(0.0 < t < 60.0 for t in costs["s"].values())
    rss = costs["peak_rss_mb"]
    assert 1.0 < rss["gamma"] <= rss["quadrature"] < 4096.0  # the process's peak so far, in MB
    assert suite_times.REPEATS == 10 and suite_times.SEED == 1


def test_suite_times_counts_the_fastest_tree_of_each_round():
    suite_times = _load_script("suite_times")
    run = lambda t: {"s": dict.fromkeys(suite_times.SUITE_ORDER, t)}
    fast, slow = run(1.0), run(2.0)
    wins = suite_times.rounds_fastest({"a": [fast] * 3 + [slow] * 7, "b": [slow] * 3 + [fast] * 7})
    assert wins == {"a": dict.fromkeys([*suite_times.SUITE_ORDER, "total"], 3),
                    "b": dict.fromkeys([*suite_times.SUITE_ORDER, "total"], 7)}


def test_cold_start_times_one_command_in_a_fresh_process():
    cold_start = _load_script("cold_start")
    trees = cold_start.parse_trees([])
    assert list(trees) == ["checkout"] and (trees["checkout"] / "src" / "slicereg").is_dir()
    result = cold_start.measure(trees, ["jensen --fn deg8 --no-diagnostics"], 1)
    timing = result["jensen --fn deg8 --no-diagnostics"]["checkout"]
    assert 0.0 < timing["median_s"] < 60.0 and timing["iqr_s"] == 0.0 and len(timing["samples_s"]) == 1
    assert cold_start.parse_trees(["parent=/tmp/a", "/tmp/b"]) == {"parent": Path("/tmp/a"), "b": Path("/tmp/b")}
    assert {"python -c pass", "import numpy", "verify-ops"} <= set(cold_start.COMMANDS)


def test_gauss_legendre_probe_times_and_checks_both_rules():
    probe = _load_script("gauss_legendre_probe")
    assert probe.ORDERS == (4, 12, 16, 24, 48, 128, 256, 1024) and probe.MAX_REFERENCE_ORDER == 256
    for method in probe.METHODS:
        errors = probe.errors(method, 12)
        assert errors["node_abs_error"] <= 2.3e-16 and errors["weight_rel_error"] <= 1e-13, method
        seconds = probe.call_seconds(method, 12)
        assert 0.0 < seconds["warm_s"] < 1.0 and 0.0 < seconds["cold_s"] < 1.0, method


def test_root_probe_sorts_each_draw_into_one_outcome():
    import hard_cases
    from slicereg.errors import ZeroAtOriginError

    root_probe = _load_script("root_probe")
    assert (root_probe.R, root_probe.N, root_probe.DRAWS, root_probe.TOL) == (1.0, 48, 10, 1e-9)
    assert root_probe.probe("real", 4, count=2) == {"pass": 2, "named_error": 0, "silent_wrong": 0}
    assert root_probe.probe("quaternionic", 8, count=1) == {"pass": 1, "named_error": 0, "silent_wrong": 0}
    assert root_probe.probe("annuli", 12, count=1) == {"pass": 1, "named_error": 0, "silent_wrong": 0}
    assert hard_cases.FAMILIES["annuli"][1] == (12, 16, 20, 24, 32)
    f = hard_cases.product(hard_cases.family_roots("real", 6, 1)[0])
    assert f.degree == 6 and f.is_slice_preserving(0.0)
    assert hard_cases.judge(SlicePolynomial.from_real([0.0, 1.0])) == ("named", ZeroAtOriginError)  # f(0) = 0
    # dyadic draw 0: (x - q)^{*4} (x - p)^{*5}, components in eighths, exact in binary64
    assert hard_cases.dyadic_roots(0) == [((0, -6, -2, 2), 4), ((6, -2, 1, -1), 5)]
    assert root_probe.probe_dyadic(count=1) == {"pass": 1, "named_error": 0, "silent_wrong": 0, "inexact": 0,
                                                "wrong_records": 0}
    assert not hard_cases.dyadic_product([((2**60 + 1, 0, 0, 0), 1)])[1]  # 2^57 + 1/8 rounds


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
    positive = (fs.num.degree > 0) + (len(fs.den) > 1)
    calls = _count_root_spheres(monkeypatch)
    jensen_check(f, r, bijectivity_points=50)
    assert len(calls) == (fs.num.degree > 0)  # den's spheres come with f, from its load
    calls.clear()
    assert main(["jensen", "--fn", str(path), "--r", repr(r), "--bijectivity-points", "50"]) == 0
    assert len(calls) == positive  # load included


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


@pytest.mark.parametrize("error, base", [(InvalidUnitError, ValueError), (NormalNotRealError, RuntimeError)])
def test_cli_verify_ops_maps_a_named_error_inside_a_suite_to_exit_3(error, base, monkeypatch, capsys):
    import slicereg.verify as verify

    def broken(seed):
        raise error("named failure inside a suite")

    assert issubclass(error, base)
    monkeypatch.setitem(verify.SUITES, "gamma", broken)
    assert main(["verify-ops", "--suite", "gamma"]) == 3
    assert capsys.readouterr().err == "error: named failure inside a suite\n"


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


# one quick call per (command, format) pair, and where to make its computation raise
OUTPUT_PAIRS = [(["jensen", "--fn", SIMPLE, "--fn", str(CORPUS / "poly_real_negative.json"), "--no-diagnostics"],
                 fmt, "slicereg.cli.jensen_check") for fmt in ("json", "csv", "text")] + [
    (["zeros", "--fn", SIMPLE], fmt, "slicereg.cli.analyze") for fmt in ("json", "text")] + [
    (["verify-ops", "--suite", "gamma"], fmt, None) for fmt in ("json", "csv", "text")]


@pytest.mark.parametrize("argv, fmt, compute", OUTPUT_PAIRS, ids=[f"{a[0]}-{fmt}" for a, fmt, _ in OUTPUT_PAIRS])
def test_main_writes_the_report_once_and_nothing_when_a_command_raises(argv, fmt, compute, monkeypatch, tmp_path):
    import slicereg.verify as verify
    from slicereg.errors import ClassificationInconsistencyError

    writes = []

    class Stdout:
        def write(self, text):
            writes.append(("stdout", text))
            return len(text)

    write_text = Path.write_text
    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr(Path, "write_text", lambda path, text: writes.append((path, text)) or write_text(path, text))
    out = tmp_path / "report"
    assert main([*argv, "--format", fmt]) == 0
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert len(writes) == 2 and writes[0][1]  # one write a call: stdout, then the --out file
    assert writes == [("stdout", writes[0][1]), (out, writes[0][1])]

    def broken(*args, **kwargs):
        raise ClassificationInconsistencyError("inconsistent inside the command")

    out.unlink()
    if compute is None:
        monkeypatch.setitem(verify.SUITES, "gamma", broken)
    else:
        monkeypatch.setattr(compute, broken)
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 3
    assert len(writes) == 2 and not out.exists()


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
