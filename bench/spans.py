"""In-memory spans around library calls, for the traced benchmark run.

A ``Tracer`` replaces a function bound in a module with a wrapper that
records one span per call (name, start, end, parent span) and adds the
counters that the call's arguments and result imply. Spans stay in memory;
``layer_totals`` folds them into per-name self time, inclusive time and
call counts. Self time is a span's duration minus the part of its interval
covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

# (args, kwargs, result) -> counter increments
CountFn = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list


@dataclass(frozen=True)
class Probe:
    """One name bound in one module, wrapped under a span name."""

    module: str
    attr: str
    span: str
    count: CountFn | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, count: CountFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counters.update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, probes: Sequence[Probe]) -> Iterator["Tracer"]:
        """Wrap every probe's target for the duration of the block.

        A probe whose module attribute does not exist is skipped, so a
        refactor that drops a name loses that span, not the whole run.
        """
        saved = []
        try:
            for p in probes:
                mod = importlib.import_module(p.module)
                fn = getattr(mod, p.attr, None)
                if fn is None:
                    continue
                saved.append((mod, p.attr, fn))
                setattr(mod, p.attr, self.wrap(fn, p.span, p.count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(s.start, s.end, children.get(i, []))
        for i, s in enumerate(spans)
    ]


@dataclass
class Totals:
    self_s: float = 0.0
    incl_s: float = 0.0
    calls: int = 0


def layer_totals(spans: Sequence[Span]) -> dict[str, Totals]:
    out: dict[str, Totals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, Totals())
        t.self_s += own
        t.incl_s += s.end - s.start
        t.calls += 1
    return out
