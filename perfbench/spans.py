"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, run id). Calls the benchmark makes are
wrapped directly; calls made inside the package are timed by swapping a
wrapper into the module attribute the caller looks up, so no package source
changes. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and per-layer counters for one pipeline pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run_id)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Time every call to ``module.attr`` as span ``name``.

        ``count(counts, args, result)`` runs after the span closes, so its
        cost lands in the caller's self time, not in the layer's.
        """
        inner = getattr(module, attr)

        def timed(*args, **kwargs):
            result = self.call(name, inner, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, timed)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.seconds for s in self.spans if s.parent in own)
        return sum(self.spans[i].seconds for i in own) - children


class NoTracer:
    """Stand-in for the untimed run: calls straight through, records nothing."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
