"""In-memory spans around the benchmark's calls into each xorgame layer.

A span is named "<layer>.<call>", e.g. "sdp.solve" or "cli.intertwiner_report".
Spans record start, end, parent span and task id; they stay in memory and
are written out when the run ends.  Probe spans are direct calls the traced
run adds to reach a layer that the workload only reaches inside another
layer's call; they are kept out of the traced wall time.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    task: int | None
    probe: bool
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "task": self.task,
            "probe": self.probe,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, self.task, probe, 0.0, attrs=attrs)
        self.spans.append(rec)
        self._stack.append(rec.sid)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs = {}


class NullTracer:
    """Same interface as Tracer, recording nothing: the untraced runs use it."""

    task = None

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        yield _NullSpan()


def _union_length(intervals) -> float:
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


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.sid: s.duration - _union_length(children.get(s.sid, ())) for s in spans}
