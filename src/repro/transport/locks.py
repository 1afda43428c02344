"""Spinlock algorithms over the cache-coherence model.

The Figure 8 baseline is the two-lock queue protected by either a
ticket lock or an MCS queue lock [44].  Both are implemented as real
algorithms over :class:`repro.hw.memory.MemCell` lines, so their
contention behaviour (broadcast invalidation vs O(1) handoff) emerges
from the coherence cost model rather than being assumed.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..hw.cpu import CPU, Core

__all__ = ["TicketLock", "MCSLock", "MCSNode"]


class TicketLock:
    """Classic ticket spinlock: FIFO, but all waiters spin on one line.

    Every release invalidates all waiters' cached copies of
    ``now_serving``; their re-reads pile onto the same line, so handoff
    cost grows with the number of waiters.
    """

    def __init__(self, cpu: CPU, name: str = "ticket"):
        self.cpu = cpu
        self.name = name
        self._next = cpu.new_cell(0, name=f"{name}.next")
        self._serving = cpu.new_cell(0, name=f"{name}.serving")

    def acquire(self, core: Core) -> Generator:
        ticket = yield from self._next.fetch_and_add(core, 1)
        yield from self._serving.wait_until(core, lambda v: v == ticket)

    def release(self, core: Core) -> Generator:
        serving = yield from self._serving.load(core)
        yield from self._serving.store(core, serving + 1)


class MCSNode:
    """Per-acquirer queue node: each waiter spins on its own line."""

    __slots__ = ("locked", "next")

    def __init__(self, cpu: CPU, name: str = "mcs-node"):
        self.locked = cpu.new_cell(False, name=f"{name}.locked")
        self.next = cpu.new_cell(None, name=f"{name}.next")


class MCSLock:
    """MCS queue lock [Mellor-Crummey & Scott]: O(1) line transfers per
    handoff because each waiter spins on its own node."""

    def __init__(self, cpu: CPU, name: str = "mcs"):
        self.cpu = cpu
        self.name = name
        self._tail = cpu.new_cell(None, name=f"{name}.tail")
        self._nseq = 0

    def new_node(self) -> MCSNode:
        """Allocate a queue node (callers may cache one per thread)."""
        self._nseq += 1
        return MCSNode(self.cpu, name=f"{self.name}.n{self._nseq}")

    def acquire(self, core: Core, node: MCSNode) -> Generator:
        # Reset our node (local writes once we own the lines).
        yield from node.locked.store(core, True)
        yield from node.next.store(core, None)
        prev: Optional[MCSNode] = yield from self._tail.swap(core, node)
        if prev is not None:  # contended: queue behind prev
            yield from prev.next.store(core, node)
            yield from node.locked.wait_until(core, lambda v: not v)

    def release(self, core: Core, node: MCSNode) -> Generator:
        successor = yield from node.next.load(core)
        if successor is None:
            swapped = yield from self._tail.compare_and_swap(core, node, None)
            if swapped:
                return  # no one waiting
            # A successor is in the middle of linking in; wait for it.
            successor = yield from node.next.wait_until(
                core, lambda v: v is not None
            )
        yield from successor.locked.store(core, False)
