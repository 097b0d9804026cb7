"""Spans around calls into the library's layers, kept in memory.

A span records layer, name, start, end, its parent span and, when
tracemalloc is tracing as the span opens, the peak memory allocated
above what was live at that moment.  While installed, the tracer also wraps
the divisors functions that ``partition_forge.series`` imported, so the
sieve work inside a series call gets its own child span.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

SERIES_IMPORTS_FROM_DIVISORS = (
    "DivisorTable",
    "cycle_weight_table",
    "cycle_weight_weighted",
    "psi_table",
)


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "entries", "base", "peak")

    def __init__(self, span_id, parent, layer, name):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.entries = 0
        self.base = 0
        self.peak = 0

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "layer": self.layer,
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "entries": self.entries,
            "peak_bytes": self.peak,
        }


def _entries(result) -> int:
    if hasattr(result, "limit"):  # a DivisorTable
        return result.limit
    return len(result) if hasattr(result, "__len__") else 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def call(self, layer: str, name: str, fn, *args):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, layer, name)
        self.spans.append(span)
        memory = tracemalloc.is_tracing()
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent:
                parent.peak = max(parent.peak, peak - parent.base)
            tracemalloc.reset_peak()
            span.base = current
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                span.peak = max(span.peak, peak - span.base)
                if parent:
                    parent.peak = max(parent.peak, peak - parent.base)
        span.entries = _entries(result)
        return result

    @contextmanager
    def installed(self):
        """Wrap the divisors functions that series imported."""
        from partition_forge import series

        originals = {name: getattr(series, name) for name in SERIES_IMPORTS_FROM_DIVISORS}
        for name, fn in originals.items():
            setattr(series, name, self._wrap("divisors", name, fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(series, name, fn)

    def _wrap(self, layer, name, fn):
        def wrapper(*args):
            return self.call(layer, name, fn, *args)

        return wrapper
