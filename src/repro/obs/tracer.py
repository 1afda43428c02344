"""Request-scoped span tracing on the simulated clock.

A *span* is one timed region of a request's journey — a stub call, a
ring-buffer phase, a proxy handler, an NVMe submission — stamped with
simulated-nanosecond start/end times, a category, and a parent link.
Because every component of the Solros stack shares one discrete-event
clock, a single file read yields one causally-linked span tree that
crosses the data-plane stub, the transport rings, the control-plane
proxy, and the device models.

Design constraints:

* **Zero simulated-time overhead.** Spans only *read* ``engine.now``;
  enabling tracing never changes a benchmark's simulated result.
* **No cost per message when disabled.** Components built on an
  engine without an enabled hub hold the shared :class:`NullTracer`,
  whose :meth:`~Tracer.root` / :meth:`~Tracer.child` return None, so
  an untraced request carries no context.  A per-message site (ring
  phases, combining waits, RPC calls, proxy and device steps, the
  stub and socket calls) tests what it already holds before it calls
  the tracer: the parent context (``ctx``, ``slot.trace``,
  ``msg.trace``) before ``child``, the span before ``end``, and
  ``tracer.enabled`` before ``root``.  The span name and attributes
  are built inside that test, so an untraced request pays one
  ``is None`` check per site.  Cold sites (setup, scheduler, workers,
  faults, bench) call the tracer unconditionally: ``child`` still
  returns None without a parent and ``end(None)`` is still a no-op.
* **Explicit context propagation.** There is no ambient "current
  span": context crosses process boundaries as a
  :class:`SpanContext` riding on :class:`~repro.transport.rpc.RpcMessage`
  (and on ring-buffer slots), mirroring how real distributed tracers
  propagate a trace-context header.

The categories are the six :mod:`repro.obs.catalog` declares:
``stub``, ``transport``, ``proxy``, ``fs``, ``device``, ``net``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .catalog import CATEGORY_NAMES

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ctx_of",
]


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ctx t{self.trace_id}/s{self.span_id}>"


class Span:
    """One timed region; ``end_ns`` is None while the span is open."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "category",
        "start_ns",
        "end_ns",
        "track",
        "attrs",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start_ns: int,
        track: str,
        attrs: Optional[Dict[str, Any]],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.track = track
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def ctx(self) -> SpanContext:
        """The context to hand to children / remote messages."""
        return SpanContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover
        end = self.end_ns if self.end_ns is not None else "…"
        return (
            f"<Span #{self.span_id} {self.category}:{self.name} "
            f"[{self.start_ns}, {end}]>"
        )


def _merge_intervals(
    intervals: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping ``(start, end)`` intervals."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _union_length(intervals: List[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in _merge_intervals(intervals))


class Tracer:
    """Collects spans against one simulation engine's clock.

    ``max_spans`` bounds memory on long benchmark sweeps: once the cap
    is hit new spans are still timed and returned to callers (so
    instrumented code needs no special casing) but are no longer
    retained; ``dropped`` counts them.
    """

    enabled = True

    def __init__(self, engine, max_spans: int = 250_000):
        self.engine = engine
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_span = 0
        self._next_trace = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str,
        parent: Optional[Any] = None,
        core: Optional[Any] = None,
        start_ns: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.

        ``parent`` is a :class:`Span`, a :class:`SpanContext`, or None
        (None starts a new trace — a *root* span).  ``core`` names the
        execution track (for the Perfetto lanes); ``start_ns`` allows
        retroactive spans (e.g. a queue-wait measured at dequeue time).
        ``category`` must be one :mod:`repro.obs.catalog` declares.
        """
        if category not in CATEGORY_NAMES:
            raise ValueError(
                f"span category {category!r} is not one of "
                f"{sorted(CATEGORY_NAMES)}"
            )
        if parent is None:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id: Optional[int] = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span += 1
        track = "main" if core is None else f"{core.cpu.name}.c{core.cid}"
        span = Span(
            trace_id,
            self._next_span,
            parent_id,
            name,
            category,
            self.engine.now if start_ns is None else start_ns,
            track,
            attrs or None,
        )
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def root(
        self, name: str, category: str, core: Optional[Any] = None, **attrs: Any
    ) -> Span:
        """Open a new trace's root span."""
        return self.begin(name, category, core=core, **attrs)

    def child(
        self,
        name: str,
        category: str,
        parent: Optional[Any],
        core: Optional[Any] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Open a span under ``parent``; None when there is no parent
        (the request is untraced), so :meth:`end` is then a no-op."""
        if parent is None:
            return None
        return self.begin(name, category, parent=parent, core=core, **attrs)

    def end(self, span: Optional[Span], **attrs: Any) -> Optional[Span]:
        """Close ``span`` at the current simulated time (None: no-op)."""
        if span is None:
            return None
        span.end_ns = self.engine.now
        if attrs:
            if span.attrs is None:
                span.attrs = {}
            span.attrs.update(attrs)
        return span

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def categories(self) -> List[str]:
        return sorted({s.category for s in self.finished_spans()})

    def traces(self) -> List[int]:
        return sorted({s.trace_id for s in self.spans})

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def trace_spans(self, trace_id: int) -> List[Span]:
        """All spans of one trace, in start order."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start_ns, s.span_id))
        return spans

    def children(self, span: Span) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.parent_id == span.span_id and s.trace_id == span.trace_id
        ]

    def span_tree(self, trace_id: int) -> List[Tuple[int, Span]]:
        """The trace as ``(depth, span)`` rows in DFS order."""
        spans = self.trace_spans(trace_id)
        by_parent: Dict[Optional[int], List[Span]] = {}
        for s in spans:
            by_parent.setdefault(s.parent_id, []).append(s)
        out: List[Tuple[int, Span]] = []

        def visit(parent_id: Optional[int], depth: int) -> None:
            for s in by_parent.get(parent_id, []):
                out.append((depth, s))
                visit(s.span_id, depth + 1)

        visit(None, 0)
        return out

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def category_union_ns(
        self, trace_id: Optional[int] = None
    ) -> Dict[str, int]:
        """Per-category *wall* time: the length of the interval union
        of that category's finished spans (parallel or nested spans of
        one category count once).

        This is the aggregation that reproduces the Figure 13 breakdown:
        it equals "simulated time during which at least one span of
        this category was open".
        """
        per_cat: Dict[str, List[Tuple[int, int]]] = {}
        for s in self.finished_spans():
            if trace_id is not None and s.trace_id != trace_id:
                continue
            per_cat.setdefault(s.category, []).append((s.start_ns, s.end_ns))
        return {cat: _union_length(iv) for cat, iv in per_cat.items()}

    def category_self_ns(
        self, trace_id: Optional[int] = None
    ) -> Dict[str, int]:
        """Per-category *self* time (flame-graph style): each span's
        duration minus the union of its children's intervals.  Sums to
        the root durations of the included traces."""
        spans = [
            s
            for s in self.finished_spans()
            if trace_id is None or s.trace_id == trace_id
        ]
        kids: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for s in spans:
            if s.parent_id is not None:
                kids.setdefault((s.trace_id, s.parent_id), []).append(
                    (s.start_ns, s.end_ns)
                )
        totals: Dict[str, int] = {}
        for s in spans:
            covered = 0
            child_iv = kids.get((s.trace_id, s.span_id))
            if child_iv:
                clipped = [
                    (max(a, s.start_ns), min(b, s.end_ns))
                    for a, b in child_iv
                    if b > s.start_ns and a < s.end_ns
                ]
                covered = _union_length(clipped)
            self_ns = max(0, s.duration_ns - covered)
            totals[s.category] = totals.get(s.category, 0) + self_ns
        return totals


class NullTracer:
    """The default when tracing is off: :meth:`root`/:meth:`child`
    return None and every other method is a safe no-op."""

    enabled = False

    _SPAN = Span(0, 0, None, "null", "null", 0, "null", None)

    def begin(self, name, category, parent=None, core=None, start_ns=None, **attrs):
        return self._SPAN

    def root(self, name, category, core=None, **attrs):
        return None

    def child(self, name, category, parent, core=None, **attrs):
        return None

    def end(self, span, **attrs):
        return span

    def finished_spans(self):
        return []

    def categories(self):
        return []

    def traces(self):
        return []

    def roots(self):
        return []

    def category_union_ns(self, trace_id=None):
        return {}

    def category_self_ns(self, trace_id=None):
        return {}


NULL_TRACER = NullTracer()


def ctx_of(span: Optional[Span], fallback: Optional[SpanContext] = None):
    """The context to propagate from ``span``, or ``fallback`` when no
    span was opened."""
    return span.ctx() if span is not None else fallback
