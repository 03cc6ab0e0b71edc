"""In-memory span recording for the traced benchmark run.

A span is one timed call at a layer boundary: its name, start and end on
the ``time.perf_counter`` clock, the span that caused it and the thread
it ran on. Each thread keeps its own stack of open spans. A thread whose
stack is empty (a pool worker picking up a job) adopts ``root``, the span
that handed the work out, as its parent, so jobs run on pool threads are
children of the experiment that submitted them.
"""

import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects finished spans from every thread."""

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)
        return span

    def mark(self, key: str):
        """Remember the current time on this thread under ``key``."""
        setattr(self._local, "mark_" + key, time.perf_counter())

    def span_since(self, key: str, name: str) -> Span | None:
        """Record a span on this thread from mark ``key`` until now.

        Used where a layer's work runs in a closure the tracer cannot
        wrap: the span covers everything between two wrapped calls.
        Spans already finished inside that interval under the same
        parent become its children.
        """
        start = getattr(self._local, "mark_" + key, None)
        if start is None:
            return None
        setattr(self._local, "mark_" + key, None)
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        span = Span(next(self._ids), name, parent, threading.get_ident(), start, time.perf_counter())
        tid = span.thread
        with self._lock:
            for inner in reversed(self.spans):
                if inner.thread != tid:
                    continue
                if inner.start < start:
                    break
                if inner.parent == parent:
                    inner.parent = span.id
            self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        traced.__wrapped__ = fn
        return traced


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict:
    """Map span id -> list of its direct child spans."""
    kids = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, kids: dict) -> float:
    """Span duration minus the part of it that its children cover,
    whichever threads those children ran on."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in kids.get(span.id, ())
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(clipped)
