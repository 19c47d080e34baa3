"""In-memory spans around the benchmark's calls into tlcga.

A span records (name, start, end, parent, query id), in CPU seconds of
the process, like the query times. Spans live in a
list until the run ends; nothing is written while timing. A disabled
tracer calls straight through, so the untraced run pays one extra
Python call per library call and nothing else.
"""

from __future__ import annotations

from time import process_time


class Tracer:
    """Wraps library calls in spans when enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.query_id = -1
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs), inside a span named `name` if enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.query_id))
        self._open.append(index)
        start = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = process_time()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.query_id)

    def self_seconds(self) -> dict[str, float]:
        """Busy seconds per span name: each span's duration minus the
        part of it that its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def clear(self) -> None:
        self.spans.clear()
