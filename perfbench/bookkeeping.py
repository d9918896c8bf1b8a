"""Span bookkeeping for the traced run, and the percentile rule for timings.

A Tracer replaces a function at the module attribute its caller looks up
(for example ``tokenweave.sampling.forward``) with a wrapper that records one
span per call: name, start, end and the span that was open when it started.
Nothing in the program under test changes; removing the tracer puts every
original function back. A target whose attribute no longer exists (its
caller stopped importing it) is skipped, so its metrics read 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

# Percentiles a timing may be reported at. A percentile is reported only when
# at least TAIL_MIN_BEYOND samples lie beyond it.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
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


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may nest inside each other or overlap; each instant is subtracted
    once, and only the part of a child inside the span counts.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length((s, e) for s, e in clipped if e > s)


def reportable_percentiles(n: int) -> list[float]:
    """Ladder percentiles with at least TAIL_MIN_BEYOND of n samples beyond
    them; the last one is the highest percentile the samples support."""
    return [q for q in PERCENTILE_LADDER if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND - 1e-9]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; q = 50 gives the median of the sorted samples
    (the mean of the middle two for an even count)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if q == 50.0:
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# measure(args, kwargs, result) -> attributes stored on the span
Measure = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``getattr(module, attr)`` is replaced."""

    module: object
    attr: str
    span: str
    measure: Measure | None = None


class Tracer:
    """Records spans around the targets while installed (a context manager)."""

    def __init__(self, targets: Sequence[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # targets skipped at the last install

    def _wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(target.span, self.clock(), parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.measure is not None:
                span.attrs.update(target.measure(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in self.targets:
            original = getattr(target.module, target.attr, None)
            if original is None:
                self.missing.append(f"{target.module.__name__}.{target.attr}")
                continue
            self._originals.append((target.module, target.attr, original))
            setattr(target.module, target.attr, self._wrap(target, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------- queries

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        """Direct child spans, keyed by the index of their parent."""
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    @staticmethod
    def busy_s(spans: Iterable[Span]) -> float:
        """Wall time during which at least one of the spans was open."""
        return union_length((s.start, s.end) for s in spans)

    def self_s(self, name: str) -> float:
        """Summed self time of every span with this name."""
        kids = self.children()
        return sum(
            self_time(s.start, s.end, ((c.start, c.end) for c in kids.get(i, ())))
            for i, s in enumerate(self.spans)
            if s.name == name
        )
