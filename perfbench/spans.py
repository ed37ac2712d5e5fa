"""In-memory spans and tracemalloc frames recorded around module-level calls.

The benchmark edits no library file. It swaps a module attribute that a
layer's caller looks up at call time (for example ``fmvscreen.bench.fks_scores``)
for a wrapper, and restores the attribute afterwards. The wrapper keeps the
call's arguments and result for the correctness checks and, when asked,
records a span or a tracemalloc frame around the call.

This module needs nothing beyond the standard library, so the child process
that runs the CLI can import it cheaply.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Closed spans kept in memory until the benchmark writes them out.

    A span is a dict with its name, start and end (``perf_counter_ns``), the id
    of the span that caused it, the item it belongs to, and counters. Every
    traced call runs on the main thread, so one stack gives each span its
    parent; a span opened on another thread is refused rather than misplaced.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.item = None
        self._ids = itertools.count(1)
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"span {name!r} opened off the main thread")
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "item": self.item,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "counters": {},
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(span)

    def current(self) -> dict:
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Take over spans recorded by a child process under ``parent``.

        The child's ids are renumbered; its root spans get ``parent`` as their
        cause. ``perf_counter_ns`` is the system-wide monotonic clock on Linux,
        so the child's times line up with ours.
        """
        renumber = {s["id"]: next(self._ids) for s in spans}
        for s in spans:
            s = dict(s, id=renumber[s["id"]], item=parent["item"])
            s["parent"] = renumber.get(s["parent"], parent["id"])
            self.spans.append(s)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy and self nanoseconds, and summed counters.

    Self time is a span's duration minus the durations of its children, which
    ran one after another inside it.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "busy_ns": 0, "self_ns": 0})
        dur = s["end_ns"] - s["start_ns"]
        row["calls"] += 1
        row["busy_ns"] += dur
        row["self_ns"] += dur - child_ns.get(s["id"], 0)
        for key, value in s["counters"].items():
            row[key] = row.get(key, 0) + value
    return out


class PeakTracker:
    """Largest traced memory during each open frame, with frames nested.

    ``tracemalloc`` keeps a single peak, which a frame must reset to see its
    own. Before each reset, the current peak is folded into every open frame,
    so no frame loses what happened before an inner frame began.
    """

    def __init__(self):
        self._open: dict[int, list[int]] = {}
        self._ids = itertools.count()

    def _fold_and_reset(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open.values():
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    def enter(self) -> int:
        current = self._fold_and_reset()
        token = next(self._ids)
        self._open[token] = [current, current]
        return token

    def exit(self, token: int) -> int:
        """Bytes the frame held at its peak beyond what was traced at entry."""
        self._fold_and_reset()
        entry, peak = self._open.pop(token)
        return peak - entry


class Probe:
    """What a wrapper does around one call.

    It always keeps ``(span name, args, kwargs, result)`` in ``calls`` for the
    checks; the caller clears the list per item. With a tracer it records a
    span and the layer's counters. With a peak tracker it records, per span
    name, the largest extra traced bytes of one call divided by
    ``item_cells``.
    """

    def __init__(self, tracer: Tracer | None = None, peaks: PeakTracker | None = None,
                 counters=None):
        self.tracer = tracer
        self.peaks = peaks
        self.counters = counters or {}
        self.calls: list[tuple] = []
        self.item_cells = 1
        self.layer_peak: dict[str, float] = {}

    def call(self, name, fn, args, kwargs):
        token = self.peaks.enter() if self.peaks else None
        span = self.tracer.open(name) if self.tracer else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                self.tracer.close(span)
            if token is not None:
                self.record_peak(name, self.peaks.exit(token))
        self.calls.append((name, args, kwargs, result))
        count = self.counters.get(name)
        if span is not None and count is not None:
            # counting takes time; a span of its own keeps it out of the
            # caller's self time
            with self.tracer.span("trace.bookkeeping"):
                span["counters"] = count(args, kwargs, result)
        return result

    def record_peak(self, name: str, extra_bytes: int) -> None:
        per_cell = extra_bytes / self.item_cells
        if per_cell > self.layer_peak.get(name, 0.0):
            self.layer_peak[name] = per_cell


class MissingTarget(AttributeError):
    """A wrapped name no longer exists, so its layer would silently read 0."""


def missing_targets(targets) -> list[str]:
    """The ``module.attribute`` names among ``targets`` that do not exist."""
    return [f"{module_name}.{attr}" for module_name, attr, _ in targets
            if not hasattr(importlib.import_module(module_name), attr)]


@contextmanager
def patched(targets, probe: Probe):
    """Route each ``(module, attribute, span name)`` target through ``probe``.

    A missing attribute raises ``MissingTarget``: a renamed or moved layer
    must fail the run, not read as a layer that did no work.
    """
    saved = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                raise MissingTarget(f"{module_name}.{attr}")
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(probe, name, fn))
        yield probe
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _wrap(probe: Probe, name: str, fn):
    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        return probe.call(name, fn, args, kwargs)

    return wrapper
