"""Span recording around the benchmark's calls into quasilat.

A span covers one call from the benchmark into a public function of a
quasilat module.  It records the layer (module), the call, its start and
end on the perf_counter clock, the span it nests in, and the job it
belongs to.  Calls made inside the library are not seen: when a public
call nests other public calls, the whole cost lands on the outer span.

Spans and counts stay in memory and are summarized when the run ends.
`Untraced` has the same interface and records nothing, so the untraced
run executes the same job code with only a pass-through call added.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    job: int
    layer: str
    call: str
    start: float
    end: float


class Untraced:
    enabled = False

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, counter: str, value: float) -> None:
        pass

    @contextmanager
    def job(self, job_id: int) -> Iterator[None]:
        yield


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._next = 0
        self._job = -1

    def _open(self) -> tuple[int, Optional[int]]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: Optional[int], layer: str, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self._job, layer, name, start, end))

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, layer, name, start)

    def add(self, counter: str, value: float) -> None:
        self.counts[self._job][counter] += value

    @contextmanager
    def job(self, job_id: int) -> Iterator[None]:
        self._job = job_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, "job", "job", start)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered_length(children[s.sid], s.start, s.end)
        for s in spans
    }
