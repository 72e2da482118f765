#!/usr/bin/env python3
"""Speed and accuracy of the in-house Gauss-Legendre kernel against numpy's
``leggauss``.

For every n in ``ORDERS`` and each method (``kernel``: the uncached
``slicereg.quadrature._gauss_legendre``; ``leggauss``:
``numpy.polynomial.legendre.leggauss``), a fresh interpreter times the
first call (cold) and the median of ``WARM_CALLS`` later calls (warm);
``numpy.polynomial`` is imported before the leggauss clock starts.  Up to
n = 256 both rules are compared with 40-digit mpmath: the largest node
error and the largest relative weight error.  A last set of fresh
interpreters times ``import numpy.polynomial`` after numpy is loaded.
Writes ``BENCH_gauss_legendre.json`` in the checkout root (or --out).

Usage: python scripts/gauss_legendre_probe.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicereg.quadrature import _gauss_legendre  # noqa: E402

ORDERS = (4, 12, 16, 24, 48, 128, 256, 1024)
MAX_REFERENCE_ORDER = 256
WARM_CALLS = 7
IMPORT_REPEATS = 7
METHODS = ("kernel", "leggauss")


def _rule(method: str):
    if method == "kernel":
        return _gauss_legendre
    import numpy.polynomial.legendre

    return numpy.polynomial.legendre.leggauss


def call_seconds(method: str, n: int) -> dict[str, float]:
    """Cold and warm wall seconds of one rule of order n in this process."""
    rule = _rule(method)
    start = time.perf_counter()
    rule(n)
    cold = time.perf_counter() - start
    warm = []
    for _ in range(WARM_CALLS):
        start = time.perf_counter()
        rule(n)
        warm.append(time.perf_counter() - start)
    return {"cold_s": cold, "warm_s": statistics.median(warm)}


def reference(n: int, x0: float) -> tuple[float, float]:
    """The node of order n next to x0 and its weight, by Newton on the
    three-term recurrence in 40-digit mpmath, as floats."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(3):  # from a double's 1e-16, past 40 digits
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            dp = n * (p_prev - x * p) / (1 - x * x)
            x -= p / dp
        return float(x), float(2 / ((1 - x * x) * dp * dp))


def errors(method: str, n: int) -> dict[str, float]:
    """Largest absolute node error and relative weight error against
    ``reference``, each node seeded by the method's own."""
    x, w = _rule(method)(n)
    want = np.array([reference(n, xk) for xk in x])
    return {"node_abs_error": float(np.max(np.abs(x - want[:, 0]))),
            "weight_rel_error": float(np.max(np.abs(w / want[:, 1] - 1.0)))}


def _fresh(*args: str) -> dict:
    out = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def import_seconds() -> float:
    """Wall seconds of ``import numpy.polynomial`` with numpy loaded."""
    start = time.perf_counter()
    import numpy.polynomial  # noqa: F401

    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_gauss_legendre.json")
    parser.add_argument("--child", nargs=2, metavar=("METHOD", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--import-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.import_child:
        print(json.dumps({"import_s": import_seconds()}))
        return
    if args.child:
        print(json.dumps(call_seconds(args.child[0], int(args.child[1]))))
        return
    rows = []
    for n in ORDERS:
        row = {"n": n}
        for method in METHODS:
            row[method] = _fresh("--child", method, str(n))
            if n <= MAX_REFERENCE_ORDER:
                row[method].update(errors(method, n))
        rows.append(row)
    imports = [_fresh("--import-child")["import_s"] for _ in range(IMPORT_REPEATS)]
    result = {
        "what": "Gauss-Legendre rules: the in-house kernel against numpy leggauss; seconds are wall "
                "time in a fresh interpreter, errors are against 40-digit mpmath",
        "command": "python scripts/gauss_legendre_probe.py",
        "host": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "warm_calls": WARM_CALLS,
        "orders": rows,
        "import_numpy_polynomial_s": {"median": statistics.median(imports), "min": min(imports),
                                      "max": max(imports), "repeats": IMPORT_REPEATS},
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result["import_numpy_polynomial_s"]))


if __name__ == "__main__":
    main()
