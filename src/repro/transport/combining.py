"""Combining-based operation execution (§4.2.3).

One key challenge in the transport design is the co-processor's
concurrency (61 cores / 244 threads).  Instead of locking, the Solros
ring buffer uses *combining* [20]: threads publish requests on an
MCS-style queue (one atomic swap each); the thread at the head becomes
the *combiner* and executes a batch of requests on everyone's behalf,
keeping the ring's control cache lines resident in its own cache and
amortizing atomics.

:class:`CombiningQueue` is that engine, generic over the operation:
callers submit *op generators* (closures over the protected state) and
get their results back.  The protocol uses exactly the two atomic
instructions the paper requires of a co-processor: ``atomic_swap`` to
join the queue and ``compare_and_swap`` to close it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..hw.cpu import CPU, Core
from ..obs.tracer import NULL_TRACER

__all__ = ["CombiningQueue", "CombiningStats"]

# Status-cell values.
_WAITING = "waiting"
_DONE = "done"
_COMBINER = "combiner"


class CombiningStats:
    """Batching effectiveness counters."""

    def __init__(self) -> None:
        self.operations = 0
        self.batches = 0
        self.handoffs = 0

    @property
    def avg_batch(self) -> float:
        return self.operations / self.batches if self.batches else 0.0

    def reset(self) -> None:
        self.__init__()


class _Request:
    """One published operation: a node in the MCS-style request queue."""

    __slots__ = ("core", "op", "status", "next", "result")

    def __init__(self, cpu: CPU, core: Core, op, seq: int, name: str):
        self.core = core
        self.op = op
        # The line a waiting requester spins on (O(1) handoff, like
        # MCS).  ``execute`` creates it only once the request has to
        # wait: a request that runs as its own combiner never touches it.
        self.status = None
        self.next = cpu.new_cell(None, name=f"{name}.nx{seq}")
        self.result: Any = None


class CombiningQueue:
    """Flat combining over an MCS request queue.

    ``execute`` publishes an op and blocks (in simulated time) until a
    combiner — possibly the caller itself — has run it.  Op generators
    receive the executing (combiner) core and run serially, so they may
    freely mutate shared Python state between their own yields.
    """

    def __init__(
        self,
        cpu: CPU,
        combine_max: int = 16,
        name: str = "cq",
        on_batch_end: Optional[Callable[[Core], Generator]] = None,
    ):
        if combine_max < 1:
            raise ValueError("combine_max must be >= 1")
        self.cpu = cpu
        self.combine_max = combine_max
        self.name = name
        # Called by the combiner once per batch (the ring buffer uses
        # this to push replicated control variables over PCIe: §4.2.4
        # "a combiner thread always updates original values at the end
        # of combining").
        self.on_batch_end = on_batch_end
        self._tail = cpu.new_cell(None, name=f"{name}.tail")
        self._seq = 0
        self.stats = CombiningStats()
        # Observability (off by default).
        self.tracer = NULL_TRACER
        self._h_batch = None

    def set_obs(self, tracer, metrics=None) -> None:
        """Attach a tracer/metrics registry (repro.obs)."""
        self.tracer = tracer
        if metrics is not None:
            self._h_batch = metrics.histogram(f"combining.{self.name}.batch")

    def execute(
        self, core: Core, op: Callable[[Core], Generator], ctx=None
    ) -> Generator:
        """Run ``op`` under combining; returns the op's result."""
        self._seq += 1
        seq = self._seq
        req = _Request(self.cpu, core, op, seq, self.name)
        prev: Optional[_Request] = yield from self._tail.swap(core, req)
        if prev is not None:
            req.status = self.cpu.new_cell(_WAITING, name=f"{self.name}.st{seq}")
            span = self.tracer.child(
                "combining.wait", "transport", ctx, core=core, queue=self.name
            )
            # Join the queue behind prev and spin on our own line.
            yield from prev.next.store(core, req)
            status = yield from req.status.wait_until(
                core, lambda v: v != _WAITING
            )
            self.tracer.end(span, combined=status == _DONE)
            if status == _DONE:
                return req.result
            # We were promoted to combiner: our op is still pending.
        yield from self._combine(core, req)
        return req.result

    # ------------------------------------------------------------------
    # Combiner role
    # ------------------------------------------------------------------
    def _combine(self, core: Core, first: _Request) -> Generator:
        self.stats.batches += 1
        current = first
        processed = 0
        while True:
            # Execute the current request on its behalf.
            if current is first:
                self.stats.operations += 1
                current.result = yield from current.op(core)
            else:
                # Fetch the remote request description (their line).
                yield from current.status.load(core)
                self.stats.operations += 1
                current.result = yield from current.op(core)
            processed += 1

            successor = yield from current.next.load(core)
            if successor is None:
                # Try to close the queue.
                closed = yield from self._tail.compare_and_swap(
                    core, current, None
                )
                if closed:
                    if current is not first:
                        yield from current.status.store(core, _DONE)
                    if self._h_batch is not None:
                        self._h_batch.record(processed)
                    yield from self._finish_batch(core)
                    return
                # A joiner is mid-link; wait for the pointer.
                successor = yield from current.next.wait_until(
                    core, lambda v: v is not None
                )

            if current is not first:
                yield from current.status.store(core, _DONE)

            if processed >= self.combine_max:
                # Hand the combiner role to the successor.
                self.stats.handoffs += 1
                if self._h_batch is not None:
                    self._h_batch.record(processed)
                yield from self._finish_batch(core)
                yield from successor.status.store(core, _COMBINER)
                return
            current = successor

    def _finish_batch(self, core: Core) -> Generator:
        if self.on_batch_end is not None:
            yield from self.on_batch_end(core)
        else:
            yield 0
