"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per sample so that each pass has its
own interpreter start, imports and memory high-water mark.  It prints
one JSON line: the monotonic clock reading when set-up ended (the parent
subtracts its own reading taken just before the spawn), the pass's wall
and CPU time, the peak RSS, the checked outcomes, a digest of the report
bytes and, when traced, the per-layer figures.

    python3 perfbench/worker.py --workload corpus-diag --seed 1 \\
        --workdir perfbench/.work-x [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # --- set-up: imports and input generation ---------------------------
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import slicereg
    import slicereg.cli

    if Path(slicereg.__file__).resolve().parent != ROOT / "src" / "slicereg":
        print(f"slicereg imported from {slicereg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CHECKS, WORKLOADS, outcome

    workload = WORKLOADS[args.workload]
    calls = workload.prepare(Path(args.workdir), args.seed)
    t_ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    # --- the measured pass ----------------------------------------------
    for call in calls:
        call.report.unlink(missing_ok=True)  # a report must come from this pass
    tracer = None
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
    exits: list[int | str] = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for call in calls:
            try:
                exits.append(slicereg.cli.main(list(call.argv)))
            except Exception:  # noqa: BLE001 - a crash is a measured outcome
                exits.append(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    digest = hashlib.sha256()
    outcomes = []
    for call, code in zip(calls, exits):
        if isinstance(code, str) or not call.report.exists():
            problem = code if isinstance(code, str) else f"exit code {code}, no report written"
            outcomes.append(outcome(call.label, False, [problem]))
            continue
        data = call.report.read_bytes()
        digest.update(data)
        try:
            outcomes.extend(CHECKS[call.kind](code, data.decode()))
        except (KeyError, TypeError, ValueError) as exc:
            outcomes.append(outcome(call.label, False, [f"malformed report: {exc!r}"]))

    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "outcomes": outcomes,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "slicereg": slicereg.__version__},
    }
    if tracer is not None:
        result["layers"] = summarize(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
