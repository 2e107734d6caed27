"""In-memory spans around the benchmark's calls into fqx.

A span is one call into a layer of the package, recorded from the
benchmark's side of the boundary: its name (``<module>.<function>``),
start and end (``time.perf_counter`` seconds), the span open around it
when it started, the job it belongs to, and how many operations it
covered (1 for a single call, the batch length for a timed loop).

Spans stay in memory while the benchmark runs and are written out once
at the end.  A disabled tracer hands out one shared no-op context
manager, so untraced rounds run the same job code at the cost of an
empty ``with`` block per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "count", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, count: int):
        self.tracer = tracer
        self.name = name
        self.count = count

    def __enter__(self):
        tracer = self.tracer
        tracer.next_id += 1
        self.sid = tracer.next_id
        self.parent = tracer.stack[-1] if tracer.stack else 0
        tracer.stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.records.append(
            (self.sid, self.name, self.start, end, self.parent, tracer.job, self.count)
        )
        return False


class Tracer:
    """Collects spans when enabled; ``span(name)`` is a context manager."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.job = 0

    def span(self, name: str, count: int = 1):
        if not self.enabled:
            return _NULL
        return _Span(self, name, count)

    def mark(self) -> int:
        """Position in the record list, for slicing out a phase's spans."""
        return len(self.records)

    def write(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "job", "count")
        with open(path, "w") as sink:
            json.dump([dict(zip(fields, r)) for r in self.records], sink)


def self_times(records) -> list[tuple[str, float, int]]:
    """(name, self seconds, count) per span: duration minus child spans.

    Children of one span run one after another, so their durations add
    without overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, _name, start, end, parent, _job, _count in records:
        if parent:
            child_time[parent] += end - start
    return [
        (name, (end - start) - child_time.get(sid, 0.0), count)
        for sid, name, start, end, _parent, _job, count in records
    ]


def totals(records) -> dict[str, tuple[float, float, int]]:
    """name -> (total duration, total self time, total count)."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    selfs = self_times(records)
    for (_sid, name, start, end, *_), (_n, own, count) in zip(records, selfs):
        acc = out[name]
        acc[0] += end - start
        acc[1] += own
        acc[2] += count
    return {name: tuple(acc) for name, acc in out.items()}
