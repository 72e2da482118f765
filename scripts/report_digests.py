#!/usr/bin/env python3
"""SHA-256 digests of the reference CLI reports.

Runs ``slicereg.cli.main`` in process for each report below and prints
one ``<sha256>  <name>`` line per report:

- ``jensen --corpus`` on both manifests at ``--seed 0`` and ``3``, as
  json and csv, and the polynomial manifest as text;
- ``zeros --format json`` on every corpus function file;
- ``verify-ops --suite all --format json --rows`` at seeds 1 and 7.

Paths are given relative to the checkout, so two checkouts print the
same digest for the same report bytes, and ``diff`` of two outputs
shows which reports moved.

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


def main() -> None:
    os.chdir(ROOT)
    for name, argv in reports():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main(argv)
        print(f"{hashlib.sha256(buf.getvalue().encode()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
