"""The per-simulation observability bundle and the global capture hook.

:class:`ObservabilityHub` pairs one :class:`~repro.obs.tracer.Tracer`
with one :class:`~repro.obs.metrics.MetricsRegistry` for one engine,
and attaches itself to that engine the way the clock belongs to it.
Every instrumented component reads ``hub_of(engine)`` once, in its
constructor, so nothing has to be wired afterwards.  A disabled hub
(and an engine with no hub) carries the shared :class:`NullTracer`
and :data:`~repro.obs.metrics.NULL_METRICS`, whose calls are no-ops.

*Capture* is how ``python -m repro.bench --trace-out`` reaches the
systems the benchmark runners build internally: each runner creates a
fresh :class:`~repro.sim.engine.Engine` (full isolation), so there is
no single object the CLI could hand a tracer to.  Instead the CLI
enables a process-global capture; every :class:`SolrosSystem`
constructed while it is active creates an enabled hub and registers it,
and the CLI exports the union afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .metrics import NULL_METRICS, MetricsRegistry
from .tracer import NULL_TRACER, Tracer

__all__ = [
    "ObservabilityHub",
    "hub_of",
    "Capture",
    "enable_capture",
    "disable_capture",
    "active_capture",
]


class ObservabilityHub:
    """Tracer + metrics for one simulated machine.

    Building a hub attaches it to ``engine``: components constructed
    on that engine from then on record into it.
    """

    def __init__(
        self,
        engine,
        enabled: bool = True,
        label: str = "solros",
        max_spans: int = 250_000,
    ):
        self.engine = engine
        self.enabled = enabled
        self.label = label
        if enabled:
            self.tracer = Tracer(engine, max_spans=max_spans)
            self.metrics = MetricsRegistry(engine)
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_METRICS
        if engine is not None:
            engine.obs = self

    def __repr__(self) -> str:  # pragma: no cover
        state = "on" if self.enabled else "off"
        return f"<ObservabilityHub {self.label} {state}>"


_OFF = ObservabilityHub(None, enabled=False, label="off")


def hub_of(engine) -> ObservabilityHub:
    """The hub attached to ``engine``, or a shared disabled one."""
    return engine.obs or _OFF


class Capture:
    """A process-global collection of hubs created while active."""

    def __init__(self, max_spans_per_hub: int = 250_000):
        self.max_spans_per_hub = max_spans_per_hub
        self.hubs: List[ObservabilityHub] = []

    def new_hub(self, engine, label: str) -> ObservabilityHub:
        hub = ObservabilityHub(
            engine,
            enabled=True,
            label=f"{label}#{len(self.hubs) + 1}",
            max_spans=self.max_spans_per_hub,
        )
        self.hubs.append(hub)
        return hub

    def export_triples(self) -> List[Tuple[str, Tracer, MetricsRegistry]]:
        """``(label, tracer, metrics)`` rows for the exporters, hubs
        with no recorded spans omitted."""
        return [
            (hub.label, hub.tracer, hub.metrics)
            for hub in self.hubs
            if hub.tracer.spans
        ]

    def metric_pairs(self) -> List[Tuple[str, MetricsRegistry]]:
        return [
            (hub.label, hub.metrics)
            for hub in self.hubs
            if len(hub.metrics)
        ]


_ACTIVE: Optional[Capture] = None


def enable_capture(max_spans_per_hub: int = 250_000) -> Capture:
    """Start capturing: every SolrosSystem built from now on traces."""
    global _ACTIVE
    _ACTIVE = Capture(max_spans_per_hub=max_spans_per_hub)
    return _ACTIVE


def disable_capture() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_capture() -> Optional[Capture]:
    return _ACTIVE
