"""Measure every workload, untraced and traced, and record a baseline.

    python3 perfbench/baseline.py --label <name> [--seed 1]

Runs ``run.py`` for each workload in BENCHMARK.json, once with
``--trace 0`` and once with ``--trace 1``, at the spec's
``run_seconds``.  Prints every metric by name, value, unit and sample
count, and writes ``perfbench/baselines/BENCH_<label>.json`` with the
machine, versions, sample counts, per-case outcomes and the full result
of each run.  A baseline file is never overwritten: a new measurement
gets a new label.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NOTES = [
    "Each workload run is one fresh process per pass; values are medians over the passes "
    "(sample counts under 'samples'). The ROADMAP 'Recent' figures were single runs.",
    "The tier-1 test run (about 85 s) is not a workload: the test pipeline already runs and gates it.",
    "near-boundary fails the 1e-6 tolerance at n=128 by design of the inputs (a sphere at 0.99 r); "
    "the failure is reported in failed_share and residual_digits as measured.",
    "slicepoly.stem_scalar.calls counts SlicePolynomial.stem_components. Each scalar stem "
    "evaluation of a function (SemiregularFunction.stem_components) calls it twice on the "
    "numerator, so about 84k function-level evaluations on corpus-diag show as about 168k.",
]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *_, detail, result = proc.stdout.splitlines()
    return {"result": json.loads(result), "detail": json.loads(detail)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    out = HERE / "baselines" / f"BENCH_{args.label}.json"
    if out.exists():
        print(f"{out.relative_to(ROOT)} exists; choose another --label", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {}
    for w in spec["workloads"]:
        runs[w["name"]] = {f"trace{t}": run_one(w["name"], args.seed, seconds, t) for t in (0, 1)}

    print(f"{'workload':14s} {'metric':46s} {'value':>16s} {'unit':12s} samples")
    for name, by_trace in runs.items():
        for trace in ("trace0", "trace1"):
            run = by_trace[trace]
            samples = run["detail"]["samples"]
            for metric, m in run["result"]["metrics"].items():
                n = samples.get(metric, samples.get("traced_passes"))
                print(f"{name:14s} {metric:46s} {m['value']:16.6g} {m['unit']:12s} {n}")
            if not run["result"]["correct"]:
                print(f"{name:14s} INCORRECT: {run['detail']['problems']}")

    first = next(iter(runs.values()))["trace0"]["detail"]
    record = {
        "label": args.label,
        "command": f"python3 perfbench/baseline.py --label {args.label} --seed {args.seed}",
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": first["machine"],
        "run_seconds": seconds,
        "seed": args.seed,
        "notes": NOTES,
        "workloads": runs,
    }
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
