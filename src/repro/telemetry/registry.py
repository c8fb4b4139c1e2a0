"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Every layer of the harness — engines, shape geometry, the result
cache, the ledger, both distributed transports — records what it does
through the *current* registry, obtained via :func:`get_registry` (or the
module-level :func:`counter` / :func:`gauge` / :func:`histogram`
conveniences).  By default the current registry is the shared
:data:`NULL_REGISTRY`, whose instruments are a single no-op object, so an
uninstrumented run pays one attribute lookup and one empty call per
recording site — hot paths stay hot.  ``repro sweep`` (and tests) install
a real :class:`MetricsRegistry` around the work with
:func:`use_registry`, then read everything back with ``snapshot()``.

Design rules the instrumentation sites follow:

* record at **run/operation granularity**, never per activation — the
  engines count rounds/activations locally and publish once per run;
* instrument *names* are flat dotted strings (``"engine.event.rounds"``,
  ``"cache.hits"``) so a snapshot is one JSON-ready dictionary;
* histograms have **fixed bucket boundaries** chosen at creation
  (:data:`DEFAULT_BUCKETS` suits second-scale durations), so merging
  snapshots across runs never requires re-bucketing.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "quantile",
    "set_registry",
    "summarize_ages",
    "use_registry",
]

#: Default histogram bucket upper bounds (seconds-scale durations).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated.

    Exact (sorts the values) — meant for small populations like the live
    lease set, not for streaming data; use a :class:`Histogram` there.
    """
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    q = min(1.0, max(0.0, float(q)))
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def summarize_ages(ages: Sequence[float]) -> Dict[str, Any]:
    """The percentile summary ``TaskBoard.stats()`` / ``repro status``
    report for a set of lease ages (one shared schema)."""
    return {
        "count": len(ages),
        "p50": round(quantile(ages, 0.5), 3),
        "p90": round(quantile(ages, 0.9), 3),
        "max": round(max(ages), 3) if ages else 0.0,
    }


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (queue depths, live workers)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary histogram of observations.

    ``buckets`` are the inclusive upper bounds; an implicit overflow
    bucket catches everything larger.  An observation equal to a boundary
    lands in that boundary's bucket (``value <= bound`` semantics).
    """

    __slots__ = ("name", "buckets", "_lock", "_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_BUCKETS)))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile, linearly interpolated within the
        bucket the quantile falls in (observations are assumed uniform
        across a bucket, the usual fixed-bucket estimator).

        The first bucket interpolates up from the observed minimum, the
        overflow bucket answers with the observed maximum, and every
        answer is clamped to ``[min, max]`` so an almost-empty wide
        bucket can never report a value outside what was observed.
        """
        with self._lock:
            if self.count == 0 or self.min is None or self.max is None:
                return 0.0
            target = min(1.0, max(0.0, float(q))) * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                below = cumulative
                cumulative += bucket_count
                if cumulative >= target and bucket_count:
                    if index >= len(self.buckets):
                        return float(self.max)  # overflow bucket
                    upper = self.buckets[index]
                    lower = self.buckets[index - 1] if index else self.min
                    lower = min(lower, upper)
                    fraction = (target - below) / bucket_count
                    value = lower + (upper - lower) * fraction
                    return min(float(self.max), max(float(self.min), value))
            return float(self.max)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            buckets: List[List[Any]] = [
                [bound, count]
                for bound, count in zip(self.buckets, self._counts)]
            buckets.append([None, self._counts[-1]])  # overflow bucket
            return {
                "count": self.count,
                "sum": round(self.total, 6),
                "min": self.min,
                "max": self.max,
                "buckets": buckets,
            }


class MetricsRegistry:
    """A live registry: named instruments, created on first use."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, buckets=buckets))
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dictionary of everything recorded so far."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.snapshot()
                          for name, h in self._histograms.items()}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


class _NullInstrument:
    """The shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The default, disabled registry: every instrument is one shared
    no-op object, so recording sites cost one call when telemetry is off."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None
                  ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The process-wide default registry (telemetry off).
NULL_REGISTRY = NullRegistry()

_current: Any = NULL_REGISTRY


def get_registry() -> Any:
    """The currently installed registry (the no-op one by default)."""
    return _current


def set_registry(registry: Optional[Any]) -> Any:
    """Install ``registry`` (``None`` restores the no-op default);
    returns the previously installed registry."""
    global _current
    previous = _current
    _current = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[Any]) -> Iterator[Any]:
    """Scoped install: the registry is current inside the ``with`` block."""
    previous = set_registry(registry)
    try:
        yield _current
    finally:
        set_registry(previous)


def counter(name: str) -> Any:
    """``get_registry().counter(name)`` — the common recording idiom."""
    return _current.counter(name)


def gauge(name: str) -> Any:
    return _current.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[float]] = None) -> Any:
    return _current.histogram(name, buckets=buckets)
