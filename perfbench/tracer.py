"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public slicereg functions (and the scalar stem method)
from outside the package: each wrapper records a span with its name,
start, end, parent span and case id, plus an optional work size taken
from the call.  Nothing under ``src/`` knows about it.

A function imported by name (``from .quadrature import boundary_means``)
is a separate binding in every module that imports it, so the tracer
patches every ``slicereg`` module namespace that holds the original
object, not only the defining module.  A target missing from its
defining module raises ``TracerError``: a later rename must fail the
traced run instead of silently reporting 0 calls.

Threads: the CLI runs corpus cases in a thread pool.  Each thread keeps
its own span stack.  A span opened on an empty stack takes the
outermost open span of the trace (the ``cli.main`` span) as its parent,
and its case id from the last case-opening call on that thread
(``load_function`` for a jensen case, ``run_suite`` for a verify
suite).  Spans of one case therefore share an id even when several
cases run at once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


class TracerError(RuntimeError):
    """A traced name no longer exists where the tracer expects it."""


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    work: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` in ``module``, optionally a
    ``Class.method`` path.  ``case`` maps the call arguments to a case
    id that this call opens; ``work`` maps the result to counts recorded
    on the span."""

    span: str
    module: str
    attr: str
    case: Callable[[tuple], str] | None = None
    work: Callable[[Any], dict] | None = None


def _rule_work(rule) -> dict:
    arrays = (rule.nodes, rule.weights, rule.alpha, rule.beta, rule.junits)
    return {"nodes": len(rule), "bytes": sum(a.nbytes for a in arrays)}


_FD = ("fd_partial", "fd_crf", "fd_crf_conj", "fd_gamma", "fd_laplace4",
       "fd_laplace4_richardson", "fd_bilaplace4", "fd_bilaplace4_richardson")

TARGETS: tuple[Target, ...] = (
    Target("cli.main", "slicereg.cli", "main"),
    Target("io.load_function", "slicereg.io", "load_function",
           case=lambda args: Path(args[0]).stem),
    Target("io.render_json", "slicereg.io", "render_json"),
    Target("jensen.jensen_check", "slicereg.jensen", "jensen_check"),
    Target("jensen.boundary_gap", "slicereg.jensen", "boundary_gap"),
    Target("quadrature.build_rule", "slicereg.quadrature", "build_rule", work=_rule_work),
    Target("quadrature.boundary_means", "slicereg.quadrature", "boundary_means"),
    Target("quadrature.boundary_identity_residual", "slicereg.quadrature",
           "boundary_identity_residual"),
    Target("quadrature.log_normal_values", "slicereg.quadrature", "log_normal_values"),
    Target("quadrature.sf_roundtrip_errors", "slicereg.quadrature", "sf_roundtrip_errors",
           work=lambda errors: {"points": len(errors)}),
    Target("quadrature.circular_reduction", "slicereg.quadrature", "circular_reduction"),
    Target("zeros_poles.root_spheres", "slicereg.zeros_poles", "root_spheres"),
    Target("zeros_poles.classify_zeros", "slicereg.zeros_poles", "classify_zeros"),
    Target("zeros_poles.pole_structure", "slicereg.zeros_poles", "pole_structure"),
    Target("slicepoly.normal", "slicereg.slicepoly", "normal"),
    Target("slicepoly.stem_scalar", "slicereg.slicepoly", "SlicePolynomial.stem_components"),
    Target("quaternions.qmul_array", "slicereg.quaternions", "qmul_array",
           work=lambda q: {"elements": q.size // 4}),  # quaternion products
    Target("verify.run_suite", "slicereg.verify", "run_suite", case=lambda args: str(args[0])),
) + tuple(Target("diffops.fd", "slicereg.diffops", name) for name in _FD)


class Tracer:
    """Records spans for every ``Target`` while installed.

    Use as a context manager: entering patches the targets, leaving
    restores the original bindings.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, target: Target, args: tuple) -> tuple[int, list]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.case = None
        if target.case is not None:
            local.case = target.case(args)
            case = local.case
        elif stack:
            case = self.spans[stack[-1]].case
        else:
            case = local.case
        with self._lock:
            parent = stack[-1] if stack else self._root
            idx = len(self.spans)
            self.spans.append(Span(target.span, time.perf_counter(), 0.0, parent, case))
            if parent is None:
                self._root = idx
        stack.append(idx)
        return idx, stack

    def _close(self, idx: int, stack: list) -> None:
        self.spans[idx].end = time.perf_counter()
        stack.pop()
        if idx == self._root:
            self._root = None

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, stack = self._open(target, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, stack)
            if target.work is not None:
                self.spans[idx].work = target.work(result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        # import everything first, so the namespace sweep sees every consumer
        resolved = []
        for target in self.targets:
            module = importlib.import_module(target.module)
            cls_name, _, name = target.attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or name not in vars(owner):
                raise TracerError(f"{target.module}.{target.attr} does not exist; update the tracer targets")
            resolved.append((target, owner, name, vars(owner)[name]))
        for target, owner, name, original in resolved:
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            # every slicereg namespace that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "slicereg" or mod_name.startswith("slicereg.")) and (
                    vars(mod).get(name) is original
                ):
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper: Callable) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def patched(self) -> list[str]:
        """``module.name`` of every binding currently patched."""
        return [f"{getattr(o, '__name__', o)}.{n}" for o, n, _ in self._restore]


# ---------------------------------------------------------------------------
# per-layer summary
# ---------------------------------------------------------------------------

# figures that count work rather than time it: they must repeat exactly
COUNT_SUFFIXES = (".calls", ".elements", ".escalations", ".rule_nodes",
                  ".rule_bytes_computed", ".stem_evals_per_point")
DERIVED = ("cli.self_s", "jensen.jensen_check.self_s", "quadrature.rule_nodes",
           "quadrature.rule_bytes_computed", "quadrature.sf_roundtrip.stem_evals_per_point")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def is_layer_metric(name: str) -> bool:
    """True if ``summarize`` can produce ``name``: a derived figure, a
    per-suite time, or ``<span>.<field>`` for a traced span."""
    spans = {t.span for t in TARGETS}
    return name in DERIVED or name.startswith("verify.suite.") or name.rsplit(".", 1)[0] in spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one traced pass.

    For every span name: ``<name>.calls`` and ``<name>.s``, counting
    only spans with no ancestor of the same name, so nested calls of
    one layer (the finite-difference stencils call each other) are not
    counted twice.  Self time is a span's duration minus the part of
    it that its child spans cover, on any thread.
    """
    children: dict[int, list[int]] = {}
    for idx, sp in enumerate(spans):
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(idx)

    def ancestors(idx: int):
        parent = spans[idx].parent
        while parent is not None:
            yield spans[parent]
            parent = spans[parent].parent

    out: dict[str, float] = {}
    for idx, sp in enumerate(spans):
        if any(a.name == sp.name for a in ancestors(idx)):
            continue
        out[f"{sp.name}.calls"] = out.get(f"{sp.name}.calls", 0) + 1
        out[f"{sp.name}.s"] = out.get(f"{sp.name}.s", 0.0) + (sp.end - sp.start)
        for key, value in sp.work.items():
            out[f"{sp.name}.{key}"] = out.get(f"{sp.name}.{key}", 0) + value
        if sp.name == "verify.run_suite":
            key = f"verify.suite.{sp.case}.s"
            out[key] = out.get(key, 0.0) + (sp.end - sp.start)
        if sp.name in ("cli.main", "jensen.jensen_check"):
            kids = [(max(spans[k].start, sp.start), min(spans[k].end, sp.end)) for k in children.get(idx, [])]
            prefix = "cli" if sp.name == "cli.main" else sp.name
            out[f"{prefix}.self_s"] = out.get(f"{prefix}.self_s", 0.0) + (sp.end - sp.start) - _covered(kids)

    stem_in_roundtrip = sum(
        1
        for idx, sp in enumerate(spans)
        if sp.name == "slicepoly.stem_scalar"
        and any(a.name == "quadrature.sf_roundtrip_errors" for a in ancestors(idx))
    )
    points = out.get("quadrature.sf_roundtrip_errors.points", 0)
    out["quadrature.sf_roundtrip.stem_evals_per_point"] = stem_in_roundtrip / points if points else 0.0
    out["quadrature.rule_nodes"] = out.pop("quadrature.build_rule.nodes", 0)
    out["quadrature.rule_bytes_computed"] = out.pop("quadrature.build_rule.bytes", 0)
    out["quaternions.qmul_array.elements"] = out.get("quaternions.qmul_array.elements", 0)
    return out
