"""Spans recorded from the benchmark's own files.

The traced run wraps the seams of :mod:`perfbench.seams` with
:meth:`Tracer.install` and records one span per call: name, start, end,
the span that caused it, and the iteration it belongs to. A layer's
*self* time is its span's duration minus the part its child spans
cover; it is accumulated as spans close, so the per-layer numbers do
not depend on how many spans are kept for the trace file.

Spans stay in memory and are written by :meth:`Tracer.dump` when the
workload ends. Spans inside ``repro.obs`` are a later change.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Iterable, Optional

from perfbench import seams

#: spans kept for the trace file; calls beyond it are still timed and
#: counted, only their individual records are dropped
MAX_SPANS = 400_000


class Tracer:
    """Nested wall-clock spans with self-time accounting.

    Nesting is tracked for the thread that runs the workload (every
    seam is called from it); other threads — the service-mix clients —
    add finished, parentless spans with :meth:`record`.
    """

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent index or -1, iteration)``
        self.spans: list[Optional[tuple]] = []
        self.dropped = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.iteration: Any = None
        self.enabled = False
        self._stack: list[list] = []  # [span index, nanoseconds in children]
        self._patched: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        # workers forked while wrappers are installed inherit them; no
        # span crosses the fork (exec.* comes from the registry)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------
    def _open(self) -> list:
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)  # slot reserved in start order
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_ns[name] += duration - frame[1]
        self.calls[name] += 1
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, parent, self.iteration)

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (set-up
        calls into the public API, one whole iteration)."""
        if not self.enabled:
            yield
            return
        frame = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter_ns())

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished parentless span (safe from any thread)."""
        if not self.enabled:
            return
        with self._lock:
            self.self_ns[name] += end_ns - start_ns
            self.calls[name] += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (name, start_ns, end_ns, -1, self.iteration))
            else:
                self.dropped += 1

    def _wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            frame = tracer._open()
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, perf_counter_ns())

        return traced

    # -- seams ---------------------------------------------------------
    def install(self, table: dict[str, Iterable[str]]) -> list[str]:
        """Wrap every resolvable seam; returns the paths that are gone."""
        missing = []
        for name, paths in table.items():
            for path in paths:
                found = seams.resolve(path)
                if found is None or not callable(found[2]) or isinstance(
                        found[2], (staticmethod, classmethod)):
                    missing.append(path)
                    continue
                owner, attribute, original = found
                setattr(owner, attribute, self._wrap(name, original))
                self._patched.append((owner, attribute, original))
        return missing

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def tracing(self, table: dict[str, Iterable[str]], iteration: Any):
        """Wrappers installed and spans recorded for one iteration;
        everything is restored on the way out, so the next untraced
        iteration runs the program exactly as shipped."""
        missing = self.install(table)
        self.iteration = iteration
        self.enabled = True
        try:
            yield missing
        finally:
            self.enabled = False
            self.uninstall()

    # -- results -------------------------------------------------------
    def take_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(self seconds, calls)`` per span name since the last call."""
        seconds = {name: ns / 1e9 for name, ns in self.self_ns.items()}
        calls = dict(self.calls)
        self.self_ns.clear()
        self.calls.clear()
        return seconds, calls

    def dump(self, path: str, header: dict) -> None:
        document = dict(header)
        document["columns"] = ["name", "start_ns", "end_ns", "parent",
                               "iteration"]
        document["dropped_spans"] = self.dropped
        document["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(document, handle)
