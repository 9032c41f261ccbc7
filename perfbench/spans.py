"""In-memory span recorder for the traced benchmark pass.

A span is (id, name, parent, start, end, attrs).  The layer of a span is
the part of its name before the first dot, which is the lrlab module that
owns the wrapped public call ("propagation.evolve_on_grid"), or "bench"
for the benchmark's own glue.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread.

    The parent of a new span is the innermost open span of the calling
    thread, unless one is passed explicitly (used by pool workers, whose
    spans belong to the span that submitted them).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        rec = Span(sid, name, parent, time.perf_counter())
        stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)


class NullTracer:
    """Stand-in used for untraced passes: records nothing."""

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        yield Span(0, name, parent, 0.0)


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {
            "id": s.id,
            "name": s.name,
            "parent": s.parent,
            "start": s.start,
            "end": s.end,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children running in parallel threads overlap; only their union is
    subtracted, so a parent never gets a negative self time.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _covered(kids)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer name -> summed self time of its spans."""
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + st[s.id]
    return out


def total(spans: list[Span], name: str) -> float:
    """Summed duration of the spans with this exact name."""
    return sum(s.duration for s in spans if s.name == name)


def attr_sum(spans: list[Span], name: str, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)
