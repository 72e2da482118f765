#!/usr/bin/env python3
"""SHA-256 digests of the reference CLI reports.

Runs ``slicereg.cli.main`` in process for each report below and prints
one ``<sha256>  <name>`` line per report:

- ``jensen --corpus`` on both manifests at ``--seed 0`` and ``3``, as
  json and csv, and on both manifests as text;
- ``zeros --format json`` on every corpus function file, and ``zeros
  --format text`` on ``ZEROS_TEXT``;
- ``jensen --format json`` and ``zeros --format json`` on each of
  ``shared_factor_functions()`` of ``tests/hard_cases.py``, two rationals
  whose num and den share real factors, written to a temporary directory
  that the reports name as ``<tmp>``;
- ``verify-ops --suite all --format json --rows`` at seeds 1 and 7, and
  ``verify-ops --suite all --seed 1`` as text (the report the benchmark
  parses) and as csv.

Then come the runs of ``SMALL_COEFFICIENTS``, functions with coefficients
far below their largest, a digest of ``f"{exit_code}\n{stdout}{stderr}"``
each: ``zeros`` and ``jensen --r 8`` on the degree-20 Taylor polynomial of
e^x, ``jensen --r 100`` on 1 + 1e-14 x^10, and ``jensen`` on a
coefficient that no double can square.

After them it prints one line per failing call, a digest of
``f"{exit_code}\n{stderr}"``: bad jensen options, a zero on the
sphere, a missing function file, a function file read as a manifest,
a bad zeros ``--r``, an unknown suite and a negative verify-ops seed.
Then ``jensen --fn`` and ``zeros --fn`` run on each of ``BAD_FUNCTIONS``,
and ``jensen --fn --r 2`` and ``zeros --fn`` on each of ``OVERFLOWING``,
written to a temporary directory that stderr names as ``<tmp>``.  Last
come three unreadable or unwritable paths: a directory as ``--fn``, a
function file that is not UTF-8, and an ``--out`` under a missing
directory.  An exception that escapes ``cli.main`` is digested as
``uncaught <Type>: <message>``.

Last, ``jensen --fn`` and ``zeros --fn`` as json on each exact (dyadic)
input of ``tests/hard_cases.py``'s ledger, and ``jensen --fn`` as json on
its ``SP_BOUNDARY`` entries, a digest of ``f"{exit_code}\n{stdout}{stderr}"``
each, so that a change to the root finder or the boundary means shows per case.

Paths are given relative to the checkout, so two checkouts print the
same digest for the same report bytes, and ``diff`` of two outputs
shows which reports or error messages moved.

Usage: python scripts/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from slicereg.cli import main as cli_main
from slicereg.io import function_to_dict

from hard_cases import LEDGER, dyadic_function, shared_factor_functions

MANIFESTS = ("polynomials", "rationals")
ZEROS_TEXT = ("rat_remark_nonuniform", "rat_nonuniform_with_real_zero", "poly_isolated_pair")
SIMPLE = "corpus/poly_real_simple.json"  # its one zero lies at 0.5
QUATERNIONIC_DEGREE_40 = [[1.0, 0.1, 0.0, 0.0]] + [0.0] * 39 + [0.5]  # N of it has degree 80
REAL_DEGREE_40 = [1.0] + [0.0] * 39 + [0.5]  # slice-preserving, so N of it (degree 80) is not capped
BAD_FUNCTIONS = {
    "bool-coeff": {"coeffs": [True, -1]},
    "bool-component": {"coeffs": [[1, False, 0, 0], 1]},
    "string-components": {"coeffs": [["0.5", "0", "0", "0"], 1]},
    "degree-69": {"coeffs": [1.0] * 70},
    "quaternionic-degree-40": {"coeffs": QUATERNIONIC_DEGREE_40},
    "real-degree-40": {"coeffs": REAL_DEGREE_40},
    "zero-coeff": {"coeffs": [0]},
    "no-coeffs": {"coeffs": []},
    "zero-numerator": {"num": {"coeffs": [0.0]}, "den": {"coeffs": [0.25, 1.0]}},
    "quaternionic-den": {"num": {"coeffs": [1.0]}, "den": {"coeffs": [[0.25, 0.5, 0.0, 0.0], 1.0]}},
}
# each coefficient's squared norm is a double, but not the square of their sum, which N(num) reaches
OVERFLOWING = {
    "real-sum-overflows": {"coeffs": [1.3e154, 1.3e154]},
    "quaternionic-sum-overflows": {"coeffs": [[1e154, 0, 0, 0], [0, 1e154, 0, 0]]},
}
# slice-preserving multiple spheres next to the boundary, whose means read f's own coefficients
SP_BOUNDARY = ("sp-boundary-sphere-m2-1.001", "sp-boundary-sphere-m3-0.99")

# (record, options of each run): each coefficient is kept, or the file rejected
SMALL_COEFFICIENTS = {
    "exp-degree-20": ({"coeffs": [1.0 / math.factorial(k) for k in range(21)]}, [["zeros"], ["jensen", "--r", "8"]]),
    "one-plus-1e-14-x10": ({"coeffs": [1.0] + [0.0] * 9 + [1e-14]}, [["jensen", "--r", "100"]]),
    "unsquarable-coeff": ({"coeffs": [1e150, 1.0, 1e-160]}, [["jensen"]]),
}


def function_runs(tmp: Path, records: dict[str, dict]) -> list[tuple[str, list[str]]]:
    """``jensen`` and ``zeros --format json`` on each function record, written into the directory tmp."""
    for stem, record in records.items():
        (tmp / f"{stem}.json").write_text(json.dumps(record))
    return [(f"{stem}-{command}.json", [command, "--fn", str(tmp / f"{stem}.json"), "--format", "json"])
            for stem in records for command in ("jensen", "zeros")]


def reports(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every report, in print order; writes
    ``shared_factor_functions()`` into the directory tmp."""
    runs = []
    for manifest in MANIFESTS:
        for seed in (0, 3):
            for fmt in ("json", "csv"):
                runs.append((f"jensen-{manifest}-seed{seed}.{fmt}",
                             ["jensen", "--corpus", f"corpus/{manifest}.json", "--seed", str(seed), "--format", fmt]))
    for manifest in MANIFESTS:
        runs.append((f"jensen-{manifest}-seed0.txt", ["jensen", "--corpus", f"corpus/{manifest}.json", "--format", "text"]))
    manifests = {f"{m}.json" for m in MANIFESTS}
    for path in sorted(p for p in (ROOT / "corpus").glob("*.json") if p.name not in manifests):
        runs.append((f"zeros-{path.stem}.json", ["zeros", "--fn", f"corpus/{path.name}", "--format", "json"]))
    for stem in ZEROS_TEXT:
        runs.append((f"zeros-{stem}.txt", ["zeros", "--fn", f"corpus/{stem}.json", "--format", "text"]))
    runs += function_runs(tmp, shared_factor_functions())
    for seed in (1, 7):
        runs.append((f"verify-ops-seed{seed}.json",
                     ["verify-ops", "--suite", "all", "--format", "json", "--rows", "--seed", str(seed)]))
    for fmt in ("text", "csv"):
        runs.append((f"verify-ops-seed1.{fmt}", ["verify-ops", "--suite", "all", "--format", fmt, "--seed", "1"]))
    return runs


def small_coefficient_runs(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every run on ``SMALL_COEFFICIENTS``, in print order."""
    runs = []
    for stem, (record, options) in SMALL_COEFFICIENTS.items():
        path = tmp / f"coeffs-{stem}.json"
        path.write_text(json.dumps(record))
        for command, *flags in options:
            name = "-".join([f"coeffs-{stem}", command, *(flag.lstrip("-") for flag in flags)])
            runs.append((f"{name}.json", [command, "--fn", str(path), *flags, "--format", "json"]))
    return runs


def failures(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every failing call, in print order; writes
    ``BAD_FUNCTIONS`` into the directory tmp."""
    bad_options = {"tol-nan": ["--tol", "nan"], "n2": ["--n", "2"], "no-points": ["--bijectivity-points", "0"],
                   "seed-1": ["--seed=-1"], "zero-on-sphere": ["--r", "0.5"]}
    runs = [(f"error-jensen-{name}", ["jensen", "--fn", SIMPLE, *flags]) for name, flags in bad_options.items()] + [
        ("error-jensen-missing-file", ["jensen", "--fn", "corpus/missing.json"]),
        ("error-jensen-function-as-manifest", ["jensen", "--corpus", SIMPLE]),
        ("error-zeros-r0", ["zeros", "--fn", SIMPLE, "--r", "0"]),
        ("error-verify-ops-unknown-suite", ["verify-ops", "--suite", "nope"]),
        ("error-verify-ops-seed-1", ["verify-ops", "--seed=-1"]),
    ]
    for stem, record in BAD_FUNCTIONS.items():
        path = tmp / f"{stem}.json"
        path.write_text(json.dumps(record))
        runs += [(f"error-{command}-{stem}", [command, "--fn", str(path)]) for command in ("jensen", "zeros")]
    for stem, record in OVERFLOWING.items():
        path = tmp / f"{stem}.json"
        path.write_text(json.dumps(record))
        runs += [(f"error-jensen-{stem}", ["jensen", "--fn", str(path), "--r", "2"]),
                 (f"error-zeros-{stem}", ["zeros", "--fn", str(path)])]
    not_utf8 = tmp / "not-utf8.json"
    not_utf8.write_bytes(b'\xff{"coeffs": [1.0]}')
    return runs + [
        ("error-jensen-directory", ["jensen", "--fn", "corpus"]),
        ("error-jensen-not-utf8", ["jensen", "--fn", str(not_utf8)]),
        ("error-jensen-out-missing-dir", ["jensen", "--fn", SIMPLE, "--out", str(tmp / "missing" / "r.json")]),
    ]


def hard_cases(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every call on the ledger's dyadic and ``SP_BOUNDARY`` entries, in print order."""
    runs = function_runs(tmp, {f"hard-{case.name}": function_to_dict(case.make(*case.args))
                               for case in LEDGER if case.make is dyadic_function})
    for case in (case for case in LEDGER if case.name in SP_BOUNDARY):
        path = tmp / f"hard-{case.name}.json"
        path.write_text(json.dumps(function_to_dict(case.make(*case.args))))
        runs.append((f"hard-{case.name}-jensen.json", ["jensen", "--fn", str(path), "--format", "json"]))
    return runs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _outcome(argv: list[str], with_stdout: bool) -> str:
    """``f"{exit_code}\n{stdout}{stderr}"`` of one call, stdout only if
    with_stdout, or ``uncaught <Type>: <message>``."""
    try:
        code, out, err = _call(argv)
    except Exception as exc:
        return f"uncaught {type(exc).__name__}: {exc}"
    return f"{code}\n{out if with_stdout else ''}{err}"


def main() -> None:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in reports(Path(tmp)):
            print(f"{_digest(_call(argv)[1].replace(tmp, '<tmp>'))}  {name}")
        for runs, with_stdout in ((small_coefficient_runs, True), (failures, False), (hard_cases, True)):
            for name, argv in runs(Path(tmp)):
                print(f"{_digest(_outcome(argv, with_stdout).replace(tmp, '<tmp>'))}  {name}")


if __name__ == "__main__":
    main()
