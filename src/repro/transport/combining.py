"""Combining-based operation execution (§4.2.3).

One key challenge in the transport design is the co-processor's
concurrency (61 cores / 244 threads).  Instead of locking, the Solros
ring buffer uses *combining* [20]: threads publish requests on an
MCS-style queue (one atomic swap each); the thread at the head becomes
the *combiner* and executes a batch of requests on everyone's behalf,
keeping the ring's control cache lines resident in its own cache and
amortizing atomics.

:class:`CombiningQueue` is that engine, generic over the operation:
callers submit an *op generator* function plus its arguments and get
its result back.  The protocol uses exactly the two atomic
instructions the paper requires of a co-processor: ``atomic_swap`` to
join the queue and ``compare_and_swap`` to close it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..hw.cpu import CPU, Core
from ..hw.memory import _NO_SHARERS, STORE, MemCell
from ..obs.hub import hub_of
from ..sim.engine import Delay

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


class _Request(MemCell):
    """One published operation: a node in the MCS-style request queue.

    The node is itself the line holding its ``next`` pointer (its
    value, None until a successor links in).  It sets ``MemCell``'s
    slots itself, as a fresh line counted in its CPU's coherence stats.
    """

    __slots__ = ("op", "args", "status", "result")

    def __init__(self, cpu: CPU, name: str, op, args: tuple):
        self.engine = cpu.engine
        self.params = cpu.params
        self.name = name
        self.stats = cpu.coherence
        self._value = None
        self._owner = None
        self._sharers = _NO_SHARERS
        self._busy = False
        self._waiters = None
        self._watchers = None
        self.op = op
        self.args = args
        # The line a waiting requester spins on (O(1) handoff, like
        # MCS).  ``execute`` creates it only once the request has to
        # wait: a request that runs as its own combiner never touches it.
        self.status = None
        self.result: Any = None


def _not_waiting(status: str) -> bool:
    return status != _WAITING


def _is_set(successor: Optional[_Request]) -> bool:
    return successor is not None


class CombiningQueue:
    """Flat combining over an MCS request queue.

    ``execute`` publishes an op and blocks (in simulated time) until a
    combiner — possibly the caller itself — has run it.  Op generators
    receive the executing (combiner) core and run serially, so they may
    freely mutate shared Python state between their own yields.

    The queue's own line operations (the tail ``SWAP`` that joins, the
    loads of the requests' ``next`` pointers, the tail ``CAS`` that
    closes) run in ``execute``'s frame, with the same yields, state
    changes and ``CoherenceStats`` counts as the ``MemCell``
    generators; only a busy line (``_queue_transfer``, ``_hand_off``)
    or a watched one (``_wake_watchers``) calls a ``MemCell`` helper.
    Ops on other requests' lines (link, status) still go through those
    generators.

    The combiner ends each batch (§4.2.4: "a combiner thread always
    updates original values at the end of combining"; the ring buffer
    pushes its replicated control variables over PCIe there) in
    ``execute``'s frame too.  ``on_batch_end(core)`` is a plain call
    that makes the batch end's state changes and returns its delay;
    the combiner yields that delay (``0`` without a hook) and then
    calls ``after_batch_end()``, if given, for what must follow the
    wait.
    """

    def __init__(
        self,
        cpu: CPU,
        combine_max: int = 16,
        name: str = "cq",
        on_batch_end: Optional[Callable[[Core], Delay]] = None,
        after_batch_end: Optional[Callable[[], None]] = None,
    ):
        if combine_max < 1:
            raise ValueError("combine_max must be >= 1")
        self.cpu = cpu
        self.combine_max = combine_max
        self.name = name
        self.on_batch_end = on_batch_end or _no_batch_end
        self.after_batch_end = after_batch_end
        self._tail = cpu.new_cell(None, name=f"{name}.tail")
        # Every request's cells share these names.
        self._next_name = f"{name}.next"
        self._status_name = f"{name}.status"
        self.stats = CombiningStats()
        obs = hub_of(cpu.engine)
        self.tracer = obs.tracer
        self._metered = obs.enabled
        self._h_batch = obs.metrics.histogram(f"combining.{name}.batch")

    def execute(
        self, core: Core, op: Callable[..., Generator], *args: Any, ctx=None
    ) -> Generator:
        """Run ``op(core, *args)`` under combining; returns the op's
        result.  A combiner runs the op as ``op(combiner_core, *args)``."""
        cpu = self.cpu
        params = cpu.params
        coherence = cpu.coherence
        req = _Request(cpu, self._next_name, op, args)
        # Join: the tail SWAP, as MemCell.exclusive runs it.
        tail = self._tail
        if tail._owner is core and not tail._sharers:
            coherence.local_hits += 1
            cost = params.l1_ns + params.atomic_extra_ns
        else:
            coherence.line_transfers += 1
            cost = params.line_transfer_ns + params.atomic_extra_ns
        coherence.atomics += 1
        if tail._busy:
            yield tail._queue_transfer()
        else:
            tail._busy = True
            yield 0
        try:
            yield cost
        finally:
            if tail._waiters:
                tail._hand_off()
            else:
                tail._busy = False
        prev: Optional[_Request] = tail._value
        tail._owner = core
        tail._sharers = _NO_SHARERS
        tail._value = req
        if tail._watchers:
            tail._wake_watchers()
        if prev is not None:
            req.status = MemCell(
                cpu.engine, params, _WAITING, self._status_name, coherence
            )
            span = None
            if ctx is not None:
                span = self.tracer.child(
                    "combining.wait", "transport", ctx, core=core,
                    queue=self.name,
                )
            # Join the queue behind prev and spin on our own line.
            yield from prev.exclusive(core, STORE, req, None)
            status = yield from req.status.wait_until(core, _not_waiting)
            if span is not None:
                self.tracer.end(span, combined=status == _DONE)
            if status == _DONE:
                return req.result
            # We were promoted to combiner: our op is still pending.

        # Combiner role: run our op, then our successors' ops.
        stats = self.stats
        stats.batches += 1
        current = req
        processed = 0
        while True:
            if current is not req:
                # Fetch the remote request description (their line).
                yield from current.status.load(core)
            stats.operations += 1
            current.result = yield from current.op(core, *current.args)
            processed += 1

            # Load current's ``next`` pointer, as MemCell.load runs it.
            if core is current._owner or core in current._sharers:
                coherence.local_hits += 1
                yield params.l1_ns
            else:
                coherence.line_transfers += 1
                if current._busy:
                    yield current._queue_transfer()
                else:
                    current._busy = True
                    yield 0
                try:
                    yield params.line_share_ns
                finally:
                    if current._waiters:
                        current._hand_off()
                    else:
                        current._busy = False
                yield params.line_transfer_ns - params.line_share_ns
                if current._sharers:
                    current._sharers.add(core)
                else:
                    current._sharers = {core}
            successor = current._value
            if successor is None:
                # Try to close the queue: the tail CAS.
                if tail._owner is core and not tail._sharers:
                    coherence.local_hits += 1
                    cost = params.l1_ns + params.atomic_extra_ns
                else:
                    coherence.line_transfers += 1
                    cost = params.line_transfer_ns + params.atomic_extra_ns
                coherence.atomics += 1
                if tail._busy:
                    yield tail._queue_transfer()
                else:
                    tail._busy = True
                    yield 0
                try:
                    yield cost
                finally:
                    if tail._waiters:
                        tail._hand_off()
                    else:
                        tail._busy = False
                tail._owner = core
                tail._sharers = _NO_SHARERS
                if tail._value is current:
                    tail._value = None
                    if tail._watchers:
                        tail._wake_watchers()
                    if current is not req:
                        yield from current.status.exclusive(
                            core, STORE, _DONE, None
                        )
                    if self._metered:
                        self._h_batch.record(processed)
                    yield self.on_batch_end(core)
                    if self.after_batch_end is not None:
                        self.after_batch_end()
                    return req.result
                # A joiner is mid-link; wait for the pointer.
                successor = yield from current.wait_until(core, _is_set)

            if current is not req:
                yield from current.status.exclusive(core, STORE, _DONE, None)

            if processed >= self.combine_max:
                # Hand the combiner role to the successor.
                stats.handoffs += 1
                if self._metered:
                    self._h_batch.record(processed)
                yield self.on_batch_end(core)
                if self.after_batch_end is not None:
                    self.after_batch_end()
                yield from successor.status.exclusive(
                    core, STORE, _COMBINER, None
                )
                return req.result
            current = successor


def _no_batch_end(core: Core) -> Delay:
    """The batch end of a queue without ``on_batch_end``: one zero wait."""
    return 0
