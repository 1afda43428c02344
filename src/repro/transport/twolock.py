"""Two-lock concurrent queue baseline (Michael & Scott [45]).

"The most widely implemented queue algorithm" (§6.1.1): one lock
protects the head (dequeuers), one protects the tail (enqueuers), so an
enqueue and a dequeue can proceed concurrently but same-end operations
serialize.  Figure 8 compares its ticket-lock and MCS-lock variants
against the Solros combining ring buffer.

The queue is functionally real (items come out FIFO, bounded capacity
honoured); timing comes from the coherence-model cells the algorithm
touches: the locks, the head/tail pointer lines, and the node payload
lines.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from ..hw.cpu import CPU, Core
from ..sim.engine import Engine
from ..sim.primitives import WouldBlock
from .locks import MCSLock, MCSNode, TicketLock

__all__ = ["TwoLockQueue", "ENQUEUE_WORK_UNITS", "DEQUEUE_WORK_UNITS"]

# Bookkeeping instructions of one queue operation outside the critical
# section (allocation, size checks, payload staging).  Calibrated so
# single-thread throughput on a Phi lands near Figure 8's left edge.
ENQUEUE_WORK_UNITS = 260
DEQUEUE_WORK_UNITS = 260


class _LockHandle:
    """Uniform acquire/release over ticket and MCS locks."""

    def __init__(self, cpu: CPU, algo: str, name: str):
        if algo == "ticket":
            self._lock = TicketLock(cpu, name=name)
            self._mcs = False
        elif algo == "mcs":
            self._lock = MCSLock(cpu, name=name)
            self._mcs = True
        else:
            raise ValueError(f"unknown lock algorithm: {algo!r}")
        self._nodes = {}

    def _node_for(self, core: Core) -> MCSNode:
        node = self._nodes.get(core.cid)
        if node is None:
            node = self._lock.new_node()
            self._nodes[core.cid] = node
        return node

    def acquire(self, core: Core) -> Generator:
        if self._mcs:
            yield from self._lock.acquire(core, self._node_for(core))
        else:
            yield from self._lock.acquire(core)

    def release(self, core: Core) -> Generator:
        if self._mcs:
            yield from self._lock.release(core, self._node_for(core))
        else:
            yield from self._lock.release(core)


class TwoLockQueue:
    """Bounded FIFO queue with separate head and tail locks."""

    def __init__(
        self,
        engine: Engine,
        cpu: CPU,
        capacity: int = 4096,
        lock_algo: str = "ticket",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.cpu = cpu
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._head_lock = _LockHandle(cpu, lock_algo, "q.head")
        self._tail_lock = _LockHandle(cpu, lock_algo, "q.tail")
        # Pointer lines updated inside the critical sections; they
        # bounce between whichever cores last operated on each end.
        self._head_ptr = cpu.new_cell(0, name="q.head-ptr")
        self._tail_ptr = cpu.new_cell(0, name="q.tail-ptr")
        # Approximate count cells read by the full/empty checks.
        self._count = cpu.new_cell(0, name="q.count")

    def __len__(self) -> int:
        return len(self._items)

    def enqueue(self, core: Core, item: Any) -> Generator:
        """Append ``item``; returns False if the queue was full
        (non-blocking, EWOULDBLOCK-style)."""
        yield core.compute(ENQUEUE_WORK_UNITS, "branchy")
        yield from self._tail_lock.acquire(core)
        try:
            count = yield from self._count.load(core)
            if count >= self.capacity:
                return False
            tail = yield from self._tail_ptr.load(core)
            yield from self._tail_ptr.store(core, tail + 1)
            yield from self._count.fetch_and_add(core, 1)
            self._items.append(item)
        finally:
            yield from self._tail_lock.release(core)
        return True

    def dequeue(self, core: Core) -> Generator:
        """Pop the oldest item; raises :class:`WouldBlock` when empty."""
        yield core.compute(DEQUEUE_WORK_UNITS, "branchy")
        yield from self._head_lock.acquire(core)
        try:
            count = yield from self._count.load(core)
            if count == 0:
                raise WouldBlock("queue empty")
            head = yield from self._head_ptr.load(core)
            yield from self._head_ptr.store(core, head + 1)
            yield from self._count.fetch_and_add(core, -1)
            item = self._items.popleft()
        finally:
            yield from self._head_lock.release(core)
        return item
