"""``repro.obs`` — end-to-end observability for the Solros stack.

Four pieces:

* :mod:`~repro.obs.catalog` — the one declaration of every metric name
  and span category; the registry and tracer reject anything else.
* :mod:`~repro.obs.tracer` — request-scoped spans on the simulated
  clock, propagated across the RPC/ring transport as trace contexts.
* :mod:`~repro.obs.metrics` — counters, gauges, histograms, and rate
  meters keyed by name and timestamped with ``engine.now``, and
  views that read a component's own stats at snapshot time.
* :mod:`~repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  flat metrics JSON, wired into ``python -m repro.bench`` via
  ``--trace-out`` / ``--metrics-out``.

One :class:`ObservabilityHub` per engine holds the tracer and the
registry; components read it with :func:`hub_of` when they are built.

See ``docs/OBSERVABILITY.md`` for the span model and the rendered
catalog.
"""

from .export import (
    chrome_trace,
    metrics_json,
    write_chrome_trace,
    write_metrics_json,
)
from .hub import (
    Capture,
    ObservabilityHub,
    active_capture,
    disable_capture,
    enable_capture,
    hub_of,
)
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    RateMeter,
)
from .tracer import NULL_TRACER, NullTracer, Span, SpanContext, Tracer, ctx_of

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ctx_of",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "RateMeter",
    "MetricsRegistry",
    "NULL_METRICS",
    "ObservabilityHub",
    "hub_of",
    "Capture",
    "enable_capture",
    "disable_capture",
    "active_capture",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_json",
    "write_metrics_json",
]
