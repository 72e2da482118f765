#!/usr/bin/env python3
"""SHA-256 digests of the reference CLI reports.

Runs ``slicereg.cli.main`` in process for each report below and prints
one ``<sha256>  <name>`` line per report:

- ``jensen --corpus`` on both manifests at ``--seed 0`` and ``3``, as
  json and csv, and the polynomial manifest as text;
- ``zeros --format json`` on every corpus function file;
- ``verify-ops --suite all --format json --rows`` at seeds 1 and 7.

After them it prints one line per failing call, a digest of
``f"{exit_code}\n{stderr}"``: bad jensen options, a zero on the
sphere, a missing function file, a function file read as a manifest,
a bad zeros ``--r``, an unknown suite and a negative verify-ops seed.

Paths are given relative to the checkout, so two checkouts print the
same digest for the same report bytes, and ``diff`` of two outputs
shows which reports or error messages moved.

Usage: python scripts/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicereg.cli import main as cli_main

MANIFESTS = ("polynomials", "rationals")
SIMPLE = "corpus/poly_real_simple.json"  # its one zero lies at 0.5


def reports() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every report, in print order."""
    runs = []
    for manifest in MANIFESTS:
        for seed in (0, 3):
            for fmt in ("json", "csv"):
                runs.append((f"jensen-{manifest}-seed{seed}.{fmt}",
                             ["jensen", "--corpus", f"corpus/{manifest}.json", "--seed", str(seed), "--format", fmt]))
    runs.append(("jensen-polynomials-seed0.txt", ["jensen", "--corpus", "corpus/polynomials.json", "--format", "text"]))
    manifests = {f"{m}.json" for m in MANIFESTS}
    for path in sorted(p for p in (ROOT / "corpus").glob("*.json") if p.name not in manifests):
        runs.append((f"zeros-{path.stem}.json", ["zeros", "--fn", f"corpus/{path.name}", "--format", "json"]))
    for seed in (1, 7):
        runs.append((f"verify-ops-seed{seed}.json",
                     ["verify-ops", "--suite", "all", "--format", "json", "--rows", "--seed", str(seed)]))
    return runs


def failures() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every failing call, in print order."""
    bad_options = {"tol-nan": ["--tol", "nan"], "n2": ["--n", "2"], "no-points": ["--bijectivity-points", "0"],
                   "seed-1": ["--seed=-1"], "zero-on-sphere": ["--r", "0.5"]}
    return [(f"error-jensen-{name}", ["jensen", "--fn", SIMPLE, *flags]) for name, flags in bad_options.items()] + [
        ("error-jensen-missing-file", ["jensen", "--fn", "corpus/missing.json"]),
        ("error-jensen-function-as-manifest", ["jensen", "--corpus", SIMPLE]),
        ("error-zeros-r0", ["zeros", "--fn", SIMPLE, "--r", "0"]),
        ("error-verify-ops-unknown-suite", ["verify-ops", "--suite", "nope"]),
        ("error-verify-ops-seed-1", ["verify-ops", "--seed=-1"]),
    ]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    os.chdir(ROOT)
    for name, argv in reports():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main(argv)
        print(f"{_digest(buf.getvalue())}  {name}")
    for name, argv in failures():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        outcome = f"{code}\n{err.getvalue()}"
        print(f"{_digest(outcome)}  {name}")


if __name__ == "__main__":
    main()
