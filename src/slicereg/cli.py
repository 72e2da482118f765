"""Command-line harness.

Subcommands:
  jensen      evaluate the Jensen formula for function files or a corpus
              manifest; exit 0 iff every residual is within tolerance
  zeros       print classified zero/pole records for a function file
  verify-ops  run the seeded verification suites (differential
              identities, quadrature, multiplicities)

Each subcommand validates its options, computes, and returns its exit
code with its report views: the json payload, the csv rows (jensen and
verify-ops) and the text lines.  ``main`` is the one output path beside
the one error policy: it renders the view that ``--format`` names and
writes it once, to stdout or ``--out``; and it maps every error to
stderr and an exit code: 0 success, 1 tolerance failure, 2 hypothesis
violation, 3 input error or any other library error.  A command that
raises writes no report.
Reports are deterministic for a fixed (config, seed): rerunning the same
command yields byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import sys
import threading
from pathlib import Path

from .errors import HypothesisViolationError, SliceRegError
from .io import (
    InputFormatError,
    load_function,
    render_json,
    render_reports_csv,
    report_text_lines,
)
from .jensen import DEFAULT_N, jensen_check
from .quadrature import MIN_ORDER
from .zeros_poles import analyze

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3
# ``verify.SUITE_ORDER``, for the help text: only verify-ops imports
# ``verify`` and ``diffops``
VERIFY_SUITES = ("crf", "gamma", "harmonic", "biharmonic", "bilaplacian-logN", "delta4-at-0", "quadrature",
                 "multiplicity")


def _stop_idle_blas_threads() -> None:
    """Join the worker threads of the OpenBLAS that numpy loaded, found among
    the process's mappings (Linux only).  Each spins on a core for about 0.1 s
    after the load, and no command gives them work; a later threaded BLAS
    call starts them again, as after a fork."""
    with contextlib.suppress(OSError, AttributeError), open("/proc/self/maps") as maps:
        for path in sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}):
            ctypes.CDLL(path).blas_thread_shutdown_()


_stop_idle_blas_threads()  # once a process, before any command runs


def _emit(text: str | None, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        if text is None:  # only check that the directory exists
            Path(out).parent.stat()
        else:
            Path(out).write_text(text)
    except OSError as exc:  # a missing directory, no permission, ...
        raise InputFormatError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _manifest_cases(path: Path, r: float, n: int) -> list[tuple[Path, float, int, str]]:
    """(file, r, n, name) per case of a manifest {"cases": [{"file": ..., "r", "n", "name"}, ...]}."""
    manifest = json.loads(path.read_text())
    entries = manifest.get("cases", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) and isinstance(e.get("file"), str) for e in entries):
        raise ValueError('expected {"cases": [{"file": <path>, ...}, ...]}')
    cases = []
    for e in entries:
        case_r, case_n = e.get("r", r), e.get("n", n)
        # exact types: JSON true/false load as bool, an int subclass
        if type(case_n) is not int or type(case_r) not in (int, float):
            raise ValueError(f"{e['file']}: need a number r and an integer n, got r={case_r!r}, n={case_n!r}")
        cases.append((path.parent / e["file"], float(case_r), case_n, e.get("name", e["file"])))
    return cases


def cmd_jensen(args: argparse.Namespace) -> tuple[int, dict]:
    if not (math.isfinite(args.tol) and args.tol > 0.0) or args.seed < 0:
        raise InputFormatError(f"need a finite --tol > 0 and --seed >= 0 (got tol={args.tol}, seed={args.seed})")
    cases: list[tuple[Path, float, int, str]] = []
    if args.corpus:
        manifest_path = Path(args.corpus)
        try:
            cases = _manifest_cases(manifest_path, args.r, args.n)
        except (OSError, ValueError, TypeError, OverflowError) as exc:
            raise InputFormatError(f"{manifest_path}: {exc}") from exc
    for fn in args.fn or []:
        cases.append((Path(fn), args.r, args.n, Path(fn).name))
    if not cases:
        raise InputFormatError("no function files given (use --fn or --corpus)")
    for _, r, n, name in cases:
        if not (math.isfinite(r) and r > 0.0) or n < MIN_ORDER or args.bijectivity_points < 1:
            raise InputFormatError(f"{name}: need a finite r > 0, n >= {MIN_ORDER} and --bijectivity-points"
                                   f" >= 1 (got r={r}, n={n}, {args.bijectivity_points} points)")

    def run_one(case):
        path, r, n, name = case
        report = jensen_check(load_function(path), r, n, seed=args.seed, diagnostics=not args.no_diagnostics,
                              bijectivity_points=args.bijectivity_points)
        passed = bool(abs(report.residual) <= args.tol)
        return report.to_dict() | {"name": name, "file": str(path), "passed": passed, "tolerance": args.tol}

    outcome = []

    def run_all():
        try:
            outcome.append([run_one(case) for case in cases])
        except BaseException as exc:  # raised below, in the calling thread, where main maps it to an exit code
            outcome.append(exc)

    if len(cases) == 1:
        run_all()
    else:
        # Same loop on one worker thread: the benchmark's span tracer
        # (perfbench/tracer.py) files a case's spans under the case its
        # thread last loaded only on a thread with no open span.  One case
        # stays on this thread, which saves a thread start and the thread's
        # own malloc arena; the benchmark has both sides, near-boundary runs
        # one case and corpus-diag a corpus.
        worker = threading.Thread(target=run_all)
        worker.start()
        worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    payloads = outcome[0]

    all_passed = all(p["passed"] for p in payloads)
    max_abs = max(abs(p["residual"]) for p in payloads)
    summary = {"count": len(payloads), "passed": all_passed, "max_abs_residual": max_abs, "tolerance": args.tol}
    # render_reports_csv sorts the columns
    rows = ({k: p[k] for k in ("name", "file", "lhs", "rhs", "residual", "passed")}
            | {k: p["config"][k] for k in ("r", "n")} for p in payloads)
    lines = []
    for p in payloads:
        lines.append(f"[{'PASS' if p['passed'] else 'FAIL'}] {p['name']}: residual={p['residual']:+.3e} "
                     f"(r={p['config']['r']}, n={p['config']['n']})")
        lines += (f"    warning: {w}" for w in p["warnings"])
    lines.append(f"{'PASS' if all_passed else 'FAIL'}: {len(payloads)} case(s), "
                 f"max |residual| = {max_abs:.3e}, tolerance {args.tol:g}")
    views = {"json": {"cases": payloads, "summary": summary}, "csv": rows, "text": lines}
    return EXIT_OK if all_passed else EXIT_TOLERANCE, views


def cmd_zeros(args: argparse.Namespace) -> tuple[int, dict]:
    if not args.r > 0.0:  # also rejects nan; +inf, the default, searches everywhere
        raise InputFormatError(f"need --r > 0 (got r={args.r})")
    analysis = analyze(load_function(args.fn), args.r)
    payload = {
        "file": str(args.fn),
        "zeros": [rec.to_dict() for rec in analysis.free_zeros],
        "poles": [p.to_dict() for p in analysis.poles],
    }
    return EXIT_OK, {"json": payload, "text": report_text_lines(payload)}


def cmd_verify_ops(args: argparse.Namespace) -> tuple[int, dict]:
    if args.seed < 0:
        raise InputFormatError(f"need --seed >= 0 (got seed={args.seed})")
    from .verify import SUITE_ORDER, SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        raise InputFormatError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_ORDER)}")
    names = SUITE_ORDER if args.suite == "all" else [args.suite]
    results = [run_suite(name, args.seed) for name in names]
    all_passed = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "suites": [{"suite": r.name, "passed": r.passed, "summary": r.summary,
                    "rows": [row.to_dict() for row in r.rows] if args.rows else []} for r in results],
        "passed": all_passed,
    }
    rows = (row.to_dict() | {"suite": r.name} for r in results for row in r.rows)
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] suite {r.name}")
        lines += (f"    {k}: {v}" for k, v in r.summary.items())
    lines.append("PASS" if all_passed else "FAIL")
    return EXIT_OK if all_passed else EXIT_TOLERANCE, {"json": payload, "csv": rows, "text": lines}


@functools.cache  # one parser a process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicereg",
        description="Quaternionic Jensen formula verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pj = sub.add_parser("jensen", help="evaluate the Jensen formula")
    pj.add_argument("--fn", action="append", help="function file (repeatable)")
    pj.add_argument("--corpus", help="corpus manifest json")
    pj.add_argument("--r", type=float, default=1.0, help="ball radius (default 1)")
    pj.add_argument("--n", type=int, default=DEFAULT_N,
                    help="nodes per panel of the polar rule; the oracle's orders are (ceil(n/3), "
                         "ceil(n/4)) per panel and on S^2, at least 4 each and at most (16, 12)")
    pj.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    pj.add_argument("--seed", type=int, default=0, help="seed of the diagnostics' sample points on S^3")
    pj.add_argument("--bijectivity-points", type=int, default=1000)
    pj.add_argument("--no-diagnostics", action="store_true", help="skip sampled diagnostics")
    pj.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pj.add_argument("--out", help="write the report to this path instead of stdout")
    pj.set_defaults(func=cmd_jensen)

    pz = sub.add_parser("zeros", help="classify zeros and poles")
    pz.add_argument("--fn", required=True, help="function file")
    pz.add_argument("--r", type=float, default=math.inf, help="pole search radius")
    pz.add_argument("--format", choices=("json", "text"), default="text")
    pz.add_argument("--out")
    pz.set_defaults(func=cmd_zeros)

    pv = sub.add_parser("verify-ops", help="run verification suites")
    pv.add_argument("--suite", default="all", help="suite name or 'all': " + ", ".join(VERIFY_SUITES))
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--rows", action="store_true", help="include per-case residual rows in json")
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify_ops)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place that writes a report or maps an error to stderr and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.out:  # a missing --out directory fails before any work
            _emit(None, args.out)
        code, views = args.func(args)
        if args.format == "json":
            report = render_json(views["json"])
        elif args.format == "csv":  # rows come as a generator, built only here
            report = render_reports_csv(list(views["csv"]))
        else:
            report = "".join(f"{line}\n" for line in views["text"])
        _emit(report, args.out)
        return code
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisViolationError as exc:
        print(f"HypothesisViolation: {exc.hypothesis}: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SliceRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
