"""Measurement from outside the library: spans, a backend proxy, micro rows.

Nothing here changes what the library computes. The proxy forwards every
call to the real backend; the traced run additionally records a span per
evaluation and per stage, and wraps the search operators so their real
calls are timed. Spans are kept in memory and written once at the end.
"""

import itertools
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import passforest.search as search_module
from passforest import print_pipeline


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store shared by the driver thread and evaluation threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.stage: Optional[int] = None  # parent of evaluation spans
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(self, span_id: int, name: str, start: float, end: float,
               parent: Optional[int]) -> None:
        with self._lock:
            self.spans.append(Span(span_id, parent, name, start, end))

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Span duration minus the part covered by child spans of other layers."""
        others = [c for c in self.children(span) if c.layer != span.layer]
        return span.duration - union_length(others, span.start, span.end)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end}
                for s in self.spans
            ],
        }


def union_length(spans: Iterable[Span], lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Length of the union of span intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s.start, lo), min(s.end, hi)) for s in spans):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def failure_reason(detail: str) -> str:
    """Group key for a failed evaluation: the detail up to its first colon."""
    return detail.split(":", 1)[0].strip() or "unknown"


class ProxyBackend:
    """Forwards to a real backend and counts what passes through.

    Without a tracer it only counts calls and failures. With one it also
    records an ``evaluation.evaluate`` span per call, keeps the forests it
    saw for the micro rows, counts calls that repeat a (program, pipeline)
    pair already evaluated, and groups failures by reason.
    """

    def __init__(self, inner, tracer: Optional[Tracer] = None):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.calls = 0
        self.failed = 0
        self.repeats = 0
        self.fail_reasons: Counter = Counter()
        self.forests: Dict[str, object] = {}
        self._seen = set()
        self._lock = threading.Lock()

    def original_count(self, program) -> int:
        return self.inner.original_count(program)

    def evaluate(self, program, forest):
        if self.tracer is None:
            result = self.inner.evaluate(program, forest)
            with self._lock:
                self.calls += 1
                self.failed += not result.ok
            return result
        span_id = self.tracer.new_id()
        start = time.perf_counter()
        result = self.inner.evaluate(program, forest)
        end = time.perf_counter()
        self.tracer.record(span_id, "evaluation.evaluate", start, end, self.tracer.stage)
        text = print_pipeline(forest)
        key = (program if isinstance(program, (str, Path)) else id(program), text)
        with self._lock:
            self.calls += 1
            self.repeats += key in self._seen
            self._seen.add(key)
            self.forests.setdefault(text, forest)
            if not result.ok:
                self.failed += 1
                self.fail_reasons[failure_reason(result.detail)] += 1
        return result


class OperatorProbe:
    """Times the real ``crossover`` and ``mutate`` calls ``run_search`` makes.

    ``run_search`` looks both up in the search module's namespace at call
    time, so swapping them there for timing wrappers observes every call
    without changing its arguments, result or random stream.
    """

    def __init__(self):
        self.crossover_s: List[float] = []
        self.crossover_rejects = 0
        self.mutate_s: List[float] = []
        self._saved: Tuple[Callable, Callable] = ()

    def __enter__(self):
        crossover, mutate = search_module.crossover, search_module.mutate
        self._saved = (crossover, mutate)

        def timed_crossover(*args, **kwargs):
            start = time.perf_counter()
            out = crossover(*args, **kwargs)
            self.crossover_s.append(time.perf_counter() - start)
            self.crossover_rejects += out is None
            return out

        def timed_mutate(*args, **kwargs):
            start = time.perf_counter()
            out = mutate(*args, **kwargs)
            self.mutate_s.append(time.perf_counter() - start)
            return out

        search_module.crossover, search_module.mutate = timed_crossover, timed_mutate
        return self

    def __exit__(self, *exc):
        search_module.crossover, search_module.mutate = self._saved
        return False


def per_call_us(fn: Callable, items: Sequence, repeats: int = 3) -> float:
    """Median over ``repeats`` passes of the mean time of ``fn(item)``, in µs."""
    if not items:
        return 0.0
    totals = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        totals.append(time.perf_counter() - start)
    return statistics.median(totals) / len(items) * 1e6


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sample(items: Sequence, limit: int) -> List:
    """Evenly spaced deterministic sample of at most ``limit`` items."""
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]
