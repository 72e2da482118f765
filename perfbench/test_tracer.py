"""Self-tests of the benchmark's tracer and input generator.

    python3 -m pytest -q perfbench

Tracing must not change what the CLI writes (acceptance criterion 10
applied to the tracer), its counts must repeat exactly, and it must
patch every namespace that imported a traced function.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import slicereg.cli as cli  # noqa: E402
import slicereg.jensen as jensen  # noqa: E402
import slicereg.quadrature as quadrature  # noqa: E402
from tracer import Target, Tracer, TracerError, is_count, summarize  # noqa: E402
from workloads import NEAR_RADIUS, near_boundary_functions  # noqa: E402

# small versions of the three workloads: a corpus through the thread
# pool with diagnostics, and finite-difference and quadrature suites
SMALL_CALLS = (
    ("jensen", "--corpus", str(ROOT / "corpus" / "rationals.json"), "--seed", "3",
     "--bijectivity-points", "40", "--format", "json"),
    ("verify-ops", "--suite", "gamma", "--seed", "3", "--format", "text"),
    ("verify-ops", "--suite", "delta4-at-0", "--seed", "3", "--format", "text"),
)


def run_small(out_dir: Path, tracer: Tracer | None = None) -> list[bytes]:
    reports = []
    for i, argv in enumerate(SMALL_CALLS):
        out = out_dir / f"report{i}"
        if tracer is None:
            cli.main([*argv, "--out", str(out)])
        else:
            with tracer:
                cli.main([*argv, "--out", str(out)])
        reports.append(out.read_bytes())
    return reports


def test_traced_reports_are_byte_identical_and_counts_repeat(tmp_path):
    plain = run_small(tmp_path)
    first, second = Tracer(), Tracer()
    assert run_small(tmp_path, first) == plain
    assert run_small(tmp_path, second) == plain

    counts = [{k: v for k, v in summarize(t.spans).items() if is_count(k)} for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["jensen.jensen_check.calls"] == 7  # the seven rational cases
    assert counts[0]["zeros_poles.root_spheres.calls"] > 0
    assert counts[0]["diffops.fd.calls"] > 0


def test_every_importing_namespace_is_patched_and_restored():
    original = quadrature.boundary_means
    with Tracer() as tracer:
        assert jensen.boundary_means is quadrature.boundary_means
        assert jensen.boundary_means is not original
        assert "slicereg.jensen.boundary_means" in tracer.patched
        assert "slicereg.cli.jensen_check" in tracer.patched
    assert jensen.boundary_means is original
    assert quadrature.boundary_means is original


def test_missing_name_fails_loudly():
    tracer = Tracer((Target("quadrature.gone", "slicereg.quadrature", "no_such_function"),))
    with pytest.raises(TracerError):
        tracer.install()
    assert tracer.patched == []


def test_concurrent_cases_keep_their_case_ids(tmp_path):
    tracer = Tracer()
    run_small(tmp_path, tracer)
    checks = [s for s in tracer.spans if s.name == "jensen.jensen_check"]
    assert len({s.case for s in checks}) == len(checks) == 7
    children = [s for s in tracer.spans
                if s.parent is not None and tracer.spans[s.parent].name == "jensen.jensen_check"]
    assert children
    assert all(s.case == tracer.spans[s.parent].case for s in children)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * len(SMALL_CALLS)
    assert threading.active_count() == 1


def test_near_boundary_inputs_follow_the_seed():
    from slicereg.io import parse_function
    from slicereg.jensen import boundary_gap

    assert near_boundary_functions(4) == near_boundary_functions(4)
    assert near_boundary_functions(4) != near_boundary_functions(5)
    for record in near_boundary_functions(4).values():
        # one sphere at NEAR_RADIUS, so the CLI escalates (gap < 0.02)
        assert boundary_gap(parse_function(record), 1.0) == pytest.approx(1.0 - NEAR_RADIUS)


def test_concurrent_recording_loses_no_span():
    import numpy as np
    import slicereg.quaternions as quaternions

    a = np.ones((3, 4))
    n_threads, n_calls = 8, 300

    def work():
        for _ in range(n_calls):
            quaternions.qmul_array(a, a)

    tracer = Tracer((Target("quaternions.qmul_array", "slicereg.quaternions", "qmul_array"),))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == n_threads * n_calls
    assert all(s.end >= s.start > 0.0 for s in tracer.spans)
