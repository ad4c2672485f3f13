"""Span recorder for the traced benchmark run; standard library only.

A span is ``(id, parent_id, name, start, end, attrs)`` with times in
seconds of ``time.perf_counter``.  Spans are kept in memory and written as
one JSON document when the run ends; self times are derived from that
document, never while the program runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    """Collects nested spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Opens a span; it stays a list until ``end`` closes it."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), parent, name, time.perf_counter(), None, {}]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[2]!r} closed out of order")
        stack.pop()
        # a tuple of atoms and a dict of atoms are not tracked by the cyclic
        # garbage collector, so a long trace does not slow collections down
        self.spans.append(tuple(span))

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recorded as a span; ``attrs(args, kwargs, result)`` may add
        counts to it after the call, outside the timed interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span[5].update(attrs(args, kwargs, result))
            return result

        return traced

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["id", "parent", "name", "start", "end", "attrs"],
                       "spans": sorted(self.spans, key=lambda s: s[0])}, fh)


def load(path) -> tuple[dict, list[list]]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["meta"], doc["spans"]


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


class SpanIndex:
    """Span tree queries: roots, ancestry and self times."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def parent(self, span: list) -> list | None:
        return self.by_id.get(span[1])

    def root(self, span: list) -> list:
        while span[1] in self.by_id:
            span = self.by_id[span[1]]
        return span

    def self_time(self, span: list) -> float:
        """Span duration minus the part of it its child spans cover."""
        lo, hi = span[3], span[4]
        kids = [(max(c[3], lo), min(c[4], hi)) for c in self.children.get(span[0], ())]
        return (hi - lo) - _covered([k for k in kids if k[1] > k[0]])
