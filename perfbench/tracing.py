"""Per-layer tracing from outside the program: wrap module functions by name.

Each target is a function looked up in a sidonor module.  While installed, the
wrapper replaces that function object wherever a sidonor module binds it
(``from .x import f`` copies count), times each call with ``perf_counter`` and
attributes its duration to the enclosing wrapped call, so every span has a
self time (duration minus wrapped children).  A target whose module or name
no longer exists is reported as absent rather than failing the run.

Hot leaf functions (one eigensolve, one bracket evaluation) are aggregated
only; every other call is also kept as a span (name, parent, start, end).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _points_swept(counters, args, kwargs, result):
    counters["spectrum.points_swept"] += len(result.beta_grid)


def _reports(counters, args, kwargs, result):
    counters["spectrum.reports"] += len(result)


def _nulling_rows(counters, args, kwargs, result):
    counters["error_budget.nulling_rows"] += len(result)


def _csv_written(counters, args, kwargs, result):
    path, _header, rows = args[:3]
    counters["cli.bytes_written"] += os.path.getsize(path)
    counters["cli.rows_written"] += len(rows)


def _json_written(counters, args, kwargs, result):
    path, payload = args[:2]
    counters["cli.bytes_written"] += os.path.getsize(path)
    if isinstance(payload, dict):
        counters["cli.rows_written"] += sum(len(v) for v in payload.values() if isinstance(v, list))
    else:
        counters["cli.rows_written"] += len(payload)


@dataclass(frozen=True)
class Target:
    span: str              # span name, "<layer>.<what>"
    module: str
    attr: str
    leaf: bool = False     # aggregate only, no per-call span
    observe: Callable | None = None


TARGETS = (
    Target("cli.main", "sidonor.cli", "main"),
    Target("config.load", "sidonor.config", "load_config"),
    Target("spectrum.sweep", "sidonor.spectrum", "sweep_spectrum", observe=_points_swept),
    Target("spectrum.anticross", "sidonor.spectrum", "find_anticrossings", observe=_reports),
    Target("spectrum.refine", "sidonor.spectrum", "refine_beta_grid"),
    Target("spectrum.trace", "sidonor.spectrum", "adiabatic_transfer_trace"),
    Target("jacobi.solve", "sidonor.spectrum", "eigensolve_block", leaf=True),
    Target("error_budget.nulling", "sidonor.error_budget", "find_nulling_parameters",
           observe=_nulling_rows),
    Target("error_budget.bracket", "sidonor.error_budget", "dx2_bracket", leaf=True),
    Target("error_budget.report", "sidonor.error_budget", "relative_hic_error"),
    # emission has no public function; the two writers are its narrowest boundary
    Target("cli.write_csv", "sidonor.cli", "_write_csv", leaf=True, observe=_csv_written),
    Target("cli.write_json", "sidonor.cli", "_write_json", leaf=True, observe=_json_written),
)

COUNTERS = (
    "spectrum.points_swept",
    "spectrum.reports",
    "error_budget.nulling_rows",
    "cli.bytes_written",
    "cli.rows_written",
)


class Tracer:
    """Installs wrappers around ``TARGETS``; collects stats per invocation."""

    def __init__(self):
        self.targets = TARGETS
        self.absent: list[str] = []       # "module.attr" of targets not found
        self.unobserved: list[str] = []   # observers that no longer fit the call
        self.spans: list[tuple] = []      # (invocation, id, parent, name, start, end)
        self._patches: list[tuple] = []   # (module, attr, original)
        self._stack: list[list] = []      # frames [child_time, span_id]
        self._invocation = -1
        self.reset()

    def reset(self):
        """Start a new invocation: zero calls, times and counters."""
        self.calls = {t.span: 0 for t in self.targets}
        self.total = {t.span: 0.0 for t in self.targets}
        self.self_time = {t.span: 0.0 for t in self.targets}
        self.counters = {name: 0 for name in COUNTERS}
        self._invocation += 1

    def install(self):
        self.absent = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "sidonor" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _observe(self, target, args, kwargs, result):
        try:
            target.observe(self.counters, args, kwargs, result)
        except (TypeError, AttributeError, ValueError, IndexError, OSError):
            key = f"{target.module}.{target.attr}"
            if key not in self.unobserved:
                self.unobserved.append(key)

    def _wrap(self, target, fn):
        name, leaf, observe = target.span, target.leaf, target.observe
        stack, perf = self._stack, time.perf_counter
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    if stack:
                        stack[-1][0] += dur
                    tracer.calls[name] += 1
                    tracer.total[name] += dur
                    tracer.self_time[name] += dur
                if observe is not None:
                    tracer._observe(target, args, kwargs, result)
                return result

            return leaf_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(tracer.spans)]
            tracer.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[0]
                tracer.spans[frame[1]] = (tracer._invocation, frame[1], parent, name, t0, t1)
            if observe is not None:
                tracer._observe(target, args, kwargs, result)
            return result

        return span_wrapper

    def snapshot(self) -> dict:
        """This invocation's calls, total and self seconds per span, and counters."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }
