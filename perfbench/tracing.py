"""Span tracing of the blockpr pipeline from outside the package.

A :class:`Tracer` replaces public functions at the module attributes where
the pipeline looks them up (``blockpr.pipeline.solve_blocks``,
``blockpr.solvers.wf_solve``, ...) with wrappers that record one span per
call: name, start, end, parent span, thread, process CPU time and a few
counts read off the return value. Spans stay in memory until
:meth:`Tracer.write`. The originals are restored when :meth:`Tracer.installed`
exits, so untraced solves run the unmodified code.

:func:`summarize_solve` and :func:`summarize_mono` turn the spans of one
traced solve into per-layer metrics. A layer's self time is its span's
duration minus the union of its child spans' intervals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field

from blockpr import pipeline, solvers

# (module, attribute) pairs wrapped by Tracer.installed(); the pipeline looks
# each name up at call time, so replacing the attribute catches every call.
PIPELINE_NAMES = ("solve_blocks", "solve_pr", "build_tuning_matrix", "unit_modulus_tune", "merge")
SOLVER_NAMES = ("wf_solve", "altproj_solve", "spectral_init", "pinv_factor")

# spans opened in a worker thread with no open span of their own hang under
# the innermost open span of this name (the thread pool's owner)
_FANOUT = "solve_blocks"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    cpu_start: float
    end: float = float("nan")
    cpu_end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _report_attrs(name, args, kwargs, result) -> dict:
    """Counts read off a solver's (estimate, SolverReport) return value."""
    if name not in ("wf_solve", "altproj_solve", "unit_modulus_tune"):
        return {}
    report = result[1]
    attrs = {"iterations": report.iterations, "restarts_used": report.restarts_used}
    if name == "wf_solve":
        params = kwargs.get("params", args[1] if len(args) > 1 else None)
        attrs["max_iters"] = (params or solvers.WFParams()).max_iters
    return attrs


class Tracer:
    """Collects spans; thread-safe for the pipeline's worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_fanout: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields the Span."""
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_fanout[-1] if self._open_fanout else None
            sp = Span(len(self.spans), name, parent, threading.get_ident(),
                      time.perf_counter(), time.process_time())
            self.spans.append(sp)
            if name == _FANOUT:
                self._open_fanout.append(sp.sid)
        stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu_end = time.process_time()
            stack.pop()
            if name == _FANOUT:
                with self._lock:
                    self._open_fanout.remove(sp.sid)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                sp.attrs.update(_report_attrs(name, args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the pipeline's named functions for the ``with`` body."""
        targets = [(pipeline, n) for n in PIPELINE_NAMES] + [(solvers, n) for n in SOLVER_NAMES]
        saved = [(mod, n, getattr(mod, n)) for mod, n in targets]
        try:
            for mod, n, fn in saved:
                setattr(mod, n, self._wrap(n, fn))
            yield self
        finally:
            for mod, n, fn in saved:
                setattr(mod, n, fn)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.sid, "name": sp.name, "parent": sp.parent, "thread": sp.thread,
                    "start": sp.start, "end": sp.end, "cpu_s": sp.cpu_end - sp.cpu_start,
                    **sp.attrs,
                }) + "\n")


def _union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Tree:
    def __init__(self, spans, root: Span):
        self.children: dict[int, list[Span]] = {}
        for sp in spans:
            if sp.parent is not None:
                self.children.setdefault(sp.parent, []).append(sp)
        self.nodes: list[Span] = []
        todo = [root]
        while todo:
            sp = todo.pop()
            self.nodes.append(sp)
            todo.extend(self.children.get(sp.sid, ()))

    def self_time(self, sp: Span) -> float:
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in self.children.get(sp.sid, ())]
        return sp.duration - _union_length([k for k in kids if k[1] > k[0]])

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.nodes if sp.name == name]

    def self_sum(self, name: str) -> float:
        return sum(self.self_time(sp) for sp in self.named(name))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(sp.attrs[key] for sp in self.named(name))


def summarize_solve(spans, root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced ``block_pr_solve`` under ``root``."""
    tree = _Tree(spans, root)
    (blocking,) = tree.named("solve_blocks")
    (merge,) = tree.named("merge")
    block_solves = [c for c in tree.children.get(blocking.sid, ()) if c.name == "solve_pr"]
    tune_spans = tree.named("unit_modulus_tune")
    wf = tree.named("wf_solve")
    build_s = sum(sp.duration for sp in tree.named("build_tuning_matrix"))
    tuning_s = merge.start - blocking.end
    return {
        "pipeline.blocking_s": blocking.duration,
        "pipeline.block_solve_sum_s": sum(sp.duration for sp in block_solves),
        "pipeline.blocking_cpu_ratio": (blocking.cpu_end - blocking.cpu_start) / blocking.duration,
        "pipeline.blocking_self_s": tree.self_time(blocking)
        + sum(tree.self_time(sp) for sp in block_solves),
        "solvers.spectral_init_s": tree.self_sum("spectral_init"),
        "solvers.wf_iter_s": tree.self_sum("wf_solve"),
        "solvers.wf_iters": tree.attr_sum("wf_solve", "iterations"),
        "solvers.wf_maxiter_blocks": sum(sp.attrs["iterations"] >= sp.attrs["max_iters"] for sp in wf),
        "solvers.ap_iter_s": tree.self_sum("altproj_solve"),
        "solvers.ap_iters": tree.attr_sum("altproj_solve", "iterations"),
        "solvers.factor_s": tree.self_sum("pinv_factor"),
        "pipeline.tuning_s": tuning_s,
        "pipeline.build_tuning_s": build_s,
        "solvers.tune_s": tree.self_sum("unit_modulus_tune"),
        "solvers.tune_restarts": tree.attr_sum("unit_modulus_tune", "restarts_used"),
        "solvers.tune_iters": tree.attr_sum("unit_modulus_tune", "iterations"),
        "pipeline.tuning_self_s": tuning_s - build_s - sum(sp.duration for sp in tune_spans),
        "pipeline.merge_s": merge.duration,
    }


def summarize_mono(spans, root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced monolithic ``solve_pr`` under ``root``."""
    tree = _Tree(spans, root)
    return {
        "mono.spectral_init_s": tree.self_sum("spectral_init"),
        "mono.wf_iter_s": tree.self_sum("wf_solve"),
        "mono.wf_iters": tree.attr_sum("wf_solve", "iterations"),
    }
