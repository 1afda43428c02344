"""Metrics registry sampled on the simulated clock.

Four metric types, all timestamped with ``engine.now``:

* :class:`Counter` — monotonically increasing totals (perf-gate
  errors; cache hits and DMA-vs-memcpy decisions are views).
* :class:`Gauge` — point-in-time values with a bounded time series
  (ring occupancy, RPC in-flight depth).  Samples are recorded on
  *change*, not by a polling process: a recurring sampler would keep
  the event heap non-empty forever, and an event-driven series captures
  exactly the instants at which the value could have changed anyway.
* :class:`HistogramMetric` — log2-bucketed distributions
  (:class:`repro.sim.stats.Histogram` underneath; combining batch
  sizes, span latencies).
* :class:`RateMeter` — byte/op rates over intervals, reusing
  :class:`repro.sim.stats.ThroughputMeter` so the rate math lives in
  one place.

All metrics are created lazily by name through
:class:`MetricsRegistry`, which accepts a name only as the kind
:mod:`repro.obs.catalog` declares for it.  Instrumented components
cache the metric object once (at construction).  A counter or meter
that mirrors a component's own stats is a *view* instead
(:meth:`MetricsRegistry.view`): it reads those fields when a snapshot
is taken, so the hot path updates only the stats.  A disabled hub
hands out :data:`NULL_METRICS` instead, whose metrics are one shared
no-op object, so no call needs a ``None`` guard.  A component whose
update runs once per message (ring occupancy, combining batches, RPC
in-flight depth and calls, NVMe command sizes, buffer-cache gauges)
also reads the hub's ``enabled`` once at construction and skips the
update when it is off, so an unobserved run makes no call at all.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.stats import Histogram, ThroughputMeter
from .catalog import row_of

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "RateMeter",
    "View",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_METRIC",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter decrement: {n}")
        self.value += n

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value with a bounded ``(sim_ns, value)`` series."""

    __slots__ = ("name", "engine", "value", "min", "max", "samples", "sets")

    def __init__(self, name: str, engine, max_samples: int):
        self.name = name
        self.engine = engine
        self.value: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sets = 0
        self.samples: Deque[Tuple[int, float]] = deque(maxlen=max_samples)

    def set(self, value: float) -> None:
        self.value = value
        self.sets += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.samples.append((self.engine.now, value))

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def series(self) -> List[Tuple[int, float]]:
        return list(self.samples)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "sets": self.sets,
        }


class HistogramMetric:
    """A named log2 histogram."""

    __slots__ = ("name", "hist")

    def __init__(self, name: str):
        self.name = name
        self.hist = Histogram()

    def record(self, value: float) -> None:
        self.hist.record(value)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def mean(self) -> float:
        return self.hist.mean

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.hist.count,
            "mean": self.hist.mean,
            "buckets": [list(row) for row in self.hist.buckets()],
        }


class RateMeter:
    """Byte/op totals with interval rates (wraps ThroughputMeter)."""

    __slots__ = ("name", "engine", "meter", "intervals")

    def __init__(self, name: str, engine, max_samples: int):
        self.name = name
        self.engine = engine
        self.meter = ThroughputMeter()
        self.intervals: Deque[Tuple[int, Dict[str, float]]] = deque(
            maxlen=max_samples
        )

    def add(self, nbytes: int = 0, nops: int = 1) -> None:
        self.meter.add(nbytes, nops)

    def tick(self) -> Dict[str, float]:
        """Close the current interval at ``engine.now`` and record it."""
        rates = self.meter.interval(self.engine.now)
        self.intervals.append((self.engine.now, rates))
        return rates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "meter",
            "bytes": self.meter.bytes,
            "ops": self.meter.ops,
            "intervals": len(self.intervals),
        }


class View:
    """A counter or meter read from its sources when exported: each
    ``read()`` returns a count, or a meter's ``(bytes, ops)``."""

    __slots__ = ("name", "kind", "reads")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.reads: List[Callable[[], Any]] = []

    @property
    def value(self) -> int:
        return sum(read() for read in self.reads)

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == "counter":
            return {"type": "counter", "value": self.value}
        nbytes, nops = map(sum, zip(*(read() for read in self.reads)))
        return {"type": "meter", "bytes": nbytes, "ops": nops, "intervals": 0}


class MetricsRegistry:
    """Name-keyed metric store for one simulation engine."""

    def __init__(self, engine, max_samples: int = 4096):
        self.engine = engine
        self.max_samples = max_samples
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, kind: str, factory):
        declared = row_of(name).kind
        if declared != kind:
            raise TypeError(
                f"metric {name!r} is declared a {declared}, not a {kind}"
            )
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(
            name, "gauge", lambda: Gauge(name, self.engine, self.max_samples)
        )

    def histogram(self, name: str) -> HistogramMetric:
        return self._get(name, "histogram", lambda: HistogramMetric(name))

    def meter(self, name: str) -> RateMeter:
        return self._get(
            name, "meter", lambda: RateMeter(name, self.engine, self.max_samples)
        )

    def view(self, name: str, read: Callable[[], Any]) -> None:
        """Register counter or meter ``name`` as a view of ``read``.
        Every source registered under one name adds to its total, as
        they would all have counted into one shared metric."""
        kind = row_of(name).kind
        if kind not in ("counter", "meter"):
            raise TypeError(f"metric {name!r} is a {kind}: it cannot be a view")
        self._metrics.setdefault(name, View(name, kind)).reads.append(read)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A flat, JSON-ready view of every metric."""
        return {
            name: self._metrics[name].to_dict()
            for name in sorted(self._metrics)
        }


class _NullMetric:
    """Stands in for every metric type when observability is off."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, value: float = 0, nops: int = 1) -> None:
        # Gauge.add(delta) and RateMeter.add(nbytes, nops) alike.
        pass

    def record(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class NullRegistry:
    """The registry of a disabled hub: every lookup returns
    :data:`NULL_METRIC` and nothing is ever stored."""

    def counter(self, name: str) -> _NullMetric:
        return NULL_METRIC

    gauge = histogram = meter = counter

    def view(self, name: str, read) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}


NULL_METRICS = NullRegistry()
