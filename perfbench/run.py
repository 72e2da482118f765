"""slicereg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-diag --seed 1 --seconds 20 --trace 0

Every sample is a fresh process (``worker.py``) that imports slicereg
from this checkout's ``src/``, generates the workload's inputs, and
drives ``slicereg.cli.main`` in process.  A run makes passes until
``--seconds`` have gone by (at least the workload's ``min_passes``),
starts a few set-up-only processes before each, and reports medians.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json:
wall and CPU time of one pass, peak RSS of the pass's process, set-up
time (interpreter start, imports, input generation) and
``residual_digits``, the worst accuracy over the pass's residuals.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, including ``trace_overhead_s`` and ``failed_share``.

Outputs are checked on every pass (see ``workloads.py``); reports must be
byte-identical across the passes of a run, traced or not, and traced
counts must repeat exactly.  The last stdout line is the result JSON;
the line before it records the machine, versions, sample counts and the
per-case outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import is_count, is_layer_metric  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES_PER_PASS = 3
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0  # no new pass starts if it could end past this
# per-layer figures that come from the run rather than from the spans
OUTSIDE_TRACE = ("trace_overhead_s", "failed_share", "cli.escalations")


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: Path, *, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir.relative_to(ROOT))]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def run_passes(workload: str, seed: int, workdir: Path, seconds: float, traced: bool) -> tuple[list, list]:
    """Passes until ``seconds`` have elapsed and there are at least the
    workload's ``min_passes`` (when traced: untraced/traced pairs, at
    least one).

    Untraced runs start ``PROBES_PER_PASS`` set-up-only processes before
    each pass, so the set-up samples spread over the whole run.  Returns
    (set-up probes, samples), each sample a tuple of one or two passes.
    """
    started = time.perf_counter()
    probes: list[dict] = []
    samples: list[tuple[dict, ...]] = []
    enough = 1 if traced else WORKLOADS[workload].min_passes
    while True:
        if traced:
            samples.append((spawn(workload, seed, workdir), spawn(workload, seed, workdir, trace=True)))
        else:
            probes += [spawn(workload, seed, workdir, setup_only=True) for _ in range(PROBES_PER_PASS)]
            samples.append((spawn(workload, seed, workdir),))
        elapsed = time.perf_counter() - started
        step = elapsed / len(samples)
        if (elapsed >= seconds and len(samples) >= enough) or elapsed + step > RUN_BUDGET_S:
            return probes, samples


def check_outputs(passes: list[dict], expect_pass: bool) -> tuple[bool, int, int, float, list[str]]:
    """(correct, attempted, failed, failed_share, problems) over all passes.

    ``failed`` counts cases whose run or report is broken; a clean report
    of a residual outside the tolerance counts only in ``failed_share``.
    """
    outcomes = [o for p in passes for o in p["outcomes"]]
    problems = sorted({f"{o['case']}: {msg}" for o in outcomes for msg in o["problems"]})
    if len({p["digest"] for p in passes}) != 1:
        problems.append("reports differ between passes of the same seed (traced or not)")
    attempted = len(outcomes)
    failed = sum(not o["ok"] for o in outcomes)
    over_tol = sum(not o["passed"] for o in outcomes)
    if expect_pass and over_tol:
        problems.append(f"{over_tol} case(s) outside the tolerance on a workload that passes")
    return not problems, attempted, failed, over_tol / attempted, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "slicereg" / "cli.py", ROOT / "corpus") if not p.exists()]
    if missing:
        print(f"not a slicereg checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    unknown = [m["name"] for m in spec["per_layer"]
               if m["name"] not in OUTSIDE_TRACE and not is_layer_metric(m["name"])]
    if unknown:
        print(f"BENCHMARK.json names per-layer metrics no span gives: {unknown}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        probes, samples = run_passes(args.workload, args.seed, workdir, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [s[0] for s in samples]
    passes = [p for s in samples for p in s]
    correct, attempted, failed, failed_share, problems = check_outputs(
        passes, WORKLOADS[args.workload].expect_pass
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info() | plain[0]["versions"],
        "failed_share": failed_share,
        "problems": problems,
        "cases": [{k: o[k] for k in ("case", "passed", "digits", "escalated")} for o in plain[0]["outcomes"]],
    }

    if args.trace:
        traced = [s[1] for s in samples]
        metrics, layer_problems = layer_metrics(spec, plain, traced, failed_share)
        problems.extend(layer_problems)
        correct = correct and not layer_problems
        detail["samples"] = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    else:
        digits = [o["digits"] for p in plain for o in p["outcomes"] if o["digits"] is not None]
        setups = [p["setup_s"] for p in probes + plain]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
            "residual_digits": min(digits, default=0.0),
        }
        if not digits:
            problems.append("no residual in any report")
            correct = False
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        detail["samples"] = {"wall_s": len(plain), "cpu_s": len(plain), "peak_rss_mb": len(plain),
                             "setup_s": len(setups), "residual_digits": len(digits)}
        detail["per_pass"] = {k: [p[k] for p in plain] for k in ("wall_s", "cpu_s", "peak_rss_mb")}

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(spec: dict, plain: list[dict], traced: list[dict], failed_share: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes; times are medians over
    them, counts must be equal in every traced pass."""
    problems = []
    escalations = [sum(o["escalated"] for o in t["outcomes"]) for t in traced]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_s":
            value = statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
        elif name == "failed_share":
            value = failed_share
        else:
            series = escalations if name == "cli.escalations" else [t["layers"].get(name, 0) for t in traced]
            if is_count(name):
                if len(set(series)) != 1:
                    problems.append(f"{name} differs between traced passes: {series}")
                value = series[0]
            else:
                value = statistics.median(series)
        out[name] = {"value": value, "unit": m["unit"]}
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
