"""Cache-coherent shared-memory cost model.

The Figure 8 experiment contrasts three concurrent queue designs
(ticket-lock two-lock queue, MCS-lock two-lock queue, and the Solros
combining ring buffer) on a 61-core Xeon Phi.  Their relative behaviour
is entirely a story about *cache-line movement*:

* a ticket lock makes every waiter spin on one line, so each release
  triggers an invalidation broadcast and O(waiters) serialized line
  re-fetches;
* an MCS lock hands off through a per-waiter line — O(1) transfers;
* combining batches K operations behind a single atomic swap, keeping
  the queue's head/tail lines resident in the combiner's cache.

:class:`MemCell` models one cache line holding one Python value.  Reads
and writes by simulated cores are charged the MESI-style costs from
:class:`~repro.hw.params.CpuParams`; remote transfers serialize through
the line itself, which is busy while one transfer holds it and grants
it to waiting transfers in FIFO order.  That per-line serialization is
what makes broadcast spinning collapse at high core counts.  Values
themselves are exchanged functionally (real algorithm, simulated time).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from ..sim.engine import Delay, Engine, Event
from .params import CpuParams

__all__ = ["MemCell", "CoherenceStats", "STORE", "SWAP", "CAS", "FAA"]

# The operations MemCell.exclusive applies once it owns the line.
STORE, SWAP, CAS, FAA = range(4)

# The sharer set of a line no core holds a copy of (beyond its owner).
_NO_SHARERS = frozenset()


class CoherenceStats:
    """Aggregate counters over a set of cells (shared across a CPU)."""

    def __init__(self) -> None:
        self.local_hits = 0
        self.line_transfers = 0
        self.atomics = 0
        self.wakeups = 0


class MemCell:
    """One cache line holding one Python value.

    All operations are generators, to be driven with ``yield from`` by
    the calling simulation process; the calling core identity is passed
    explicitly (any hashable — usually a :class:`repro.hw.cpu.Core`).

    The line's state is its owner (the core that last wrote it) and
    the other cores holding a read copy.  The owner is never in that
    sharer set: an exclusive op empties it, and the owner's own loads
    hit.  The set, the FIFO of transfers waiting for the busy line and
    the list of spinners are created when first needed.
    """

    __slots__ = (
        "engine",
        "params",
        "name",
        "stats",
        "_value",
        "_owner",
        "_sharers",
        "_busy",
        "_waiters",
        "_watchers",
    )

    def __init__(
        self,
        engine: Engine,
        params: CpuParams,
        value: Any = None,
        name: str = "",
        stats: Optional[CoherenceStats] = None,
    ):
        self.engine = engine
        self.params = params
        self.name = name
        self.stats = stats or CoherenceStats()
        self._value = value
        self._owner: Any = None
        self._sharers: Any = _NO_SHARERS
        # Remote line transfers for this line serialize here: this is
        # the coherence-directory/home-node bottleneck that makes
        # broadcast spinning O(waiters) per handoff.
        self._busy = False
        self._waiters: Optional[Deque[Event]] = None
        self._watchers: Optional[List[Event]] = None

    # ------------------------------------------------------------------
    # Introspection (zero-cost; for assertions and tests only)
    # ------------------------------------------------------------------
    def peek(self) -> Any:
        """Read the value without charging simulated time."""
        return self._value

    # ------------------------------------------------------------------
    # Timed operations (each one generator frame, to ``yield from``)
    # ------------------------------------------------------------------
    def load(self, core: Any) -> Generator:
        """Read the value; returns it.

        A read snoop occupies the line's directory only for
        ``line_share_ns`` (concurrent readers pipeline), although the
        requester experiences the full ``line_transfer_ns`` latency.
        Exclusive (write/atomic) ownership changes occupy the directory
        for the full transfer — that asymmetry is why a ticket lock's
        broadcast wakeups degrade more gently than full serialization
        but still collapse relative to MCS handoff.
        """
        params = self.params
        if self._load_hit(core):
            yield params.l1_ns
        else:
            if self._busy:
                yield self._queue_transfer()
            else:
                self._busy = True
                yield 0
            try:
                yield params.line_share_ns
            finally:
                self._release()
            yield params.line_transfer_ns - params.line_share_ns
            self._add_sharer(core)
        return self._value

    def store(self, core: Any, value: Any) -> Generator:
        """Write the value, invalidating other caches."""
        return self.exclusive(core, STORE, value, None)

    def swap(self, core: Any, value: Any) -> Generator:
        """Atomic exchange; returns the previous value (§4.2: one of the
        two atomic instructions Solros requires of a co-processor)."""
        return self.exclusive(core, SWAP, value, None)

    def compare_and_swap(self, core: Any, expected: Any, value: Any) -> Generator:
        """Atomic CAS; returns True on success (the other required
        atomic instruction)."""
        return self.exclusive(core, CAS, value, expected)

    def fetch_and_add(self, core: Any, delta: int) -> Generator:
        """Atomic fetch-and-add; returns the previous value.

        (Emulatable with a compare_and_swap loop, as the paper notes for
        atomic_swap; provided directly for the ticket lock.)
        """
        return self.exclusive(core, FAA, delta, None)

    def exclusive(self, core: Any, op: int, arg: Any, expected: Any) -> Generator:
        """Gain exclusive (M-state) ownership, then apply ``op``.

        ``op`` is :data:`STORE` (write ``arg``), :data:`SWAP` (write
        ``arg``, return the old value), :data:`CAS` (write ``arg`` if
        the value equals ``expected``, return whether it did) or
        :data:`FAA` (add ``arg``, return the old value); the named
        wrappers above are the usual way in.

        Ownership costs an L1 hit when ``core`` already holds the line
        alone, else a line transfer; an atomic adds ``atomic_extra_ns``.
        Everything but a plain local write holds the line.
        """
        cost = self._exclusive_cost(core, op)
        grant = self._grant(core, op)
        if grant is None:
            yield cost  # pure local write: no line serialization
        else:
            yield grant
            try:
                yield cost
            finally:
                self._release()
        return self._apply(core, op, arg, expected)

    def wait_until(self, core: Any, predicate: Callable[[Any], bool]) -> Generator:
        """Spin until ``predicate(value)`` holds; returns the value.

        Models spin-waiting without wasting simulation events: the core
        re-reads the line (paying a transfer — it was just invalidated
        by the writer) each time the line changes.  With N spinners on
        one line, every write wakes all N and their re-reads serialize
        through the line: the O(waiters) broadcast cost.
        """
        while True:
            value = yield from self.load(core)
            if predicate(value):
                return value
            ev = Event(self.engine)
            if self._watchers:
                self._watchers.append(ev)
            else:
                self._watchers = [ev]
            yield ev
            # Writer invalidated us; drop sharer status so the next
            # load pays a transfer.
            if self._sharers:
                self._sharers.discard(core)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # The coherence rules, as plain calls that the generators above
    # run; the generators are their one reference.  ``_grant`` and
    # ``_release`` take and free the line.  Two sites on the ring's
    # per-message path run a rule's free-line case in their own frame,
    # with the same yields, state changes and stats, and call here only
    # for a busy line (``_queue_transfer``, ``_hand_off``) or a watched
    # one (``_wake_watchers``):
    #
    # * ``CombiningQueue.execute``: the tail SWAP that joins
    #   (``exclusive``), the load of each request's ``next`` pointer
    #   (``load``) and the tail CAS that closes (``exclusive``);
    # * ``RingBuffer._enqueue_op`` and ``_dequeue_op``: the store of
    #   the ring's tail and of its head (``store``).
    #
    # tests/test_property_line_ops.py holds both to the generators.
    def _load_hit(self, core: Any) -> bool:
        """Whether ``core`` holds a copy of the line; counts the load
        as a local hit or a line transfer."""
        if core is self._owner or core in self._sharers:
            self.stats.local_hits += 1
            return True
        self.stats.line_transfers += 1
        return False

    def _grant(self, core: Any, op: int) -> Any:
        """The first wait of exclusive op ``op`` by ``core``: None for
        a plain local write (a STORE to a line ``core`` owns and no
        core shares), which does not hold the line; else the line's
        grant (``0`` for a free line, now held, or the queued
        transfer).  The caller frees a held line with
        :meth:`_release`."""
        if op == STORE and self._owner is core and not self._sharers:
            return None
        if self._busy:
            return self._queue_transfer()
        self._busy = True
        return 0

    def _release(self) -> None:
        """Free the held line, or hand it to the oldest waiting
        transfer."""
        if self._waiters:
            self._hand_off()
        else:
            self._busy = False

    def _add_sharer(self, core: Any) -> None:
        """Record the read copy a load that missed brought in."""
        if self._sharers:
            self._sharers.add(core)
        else:
            self._sharers = {core}

    def _exclusive_cost(self, core: Any, op: int) -> Delay:
        """Count an exclusive op in the stats; returns its cost: an L1
        hit when ``core`` already holds the line alone, else a line
        transfer, plus ``atomic_extra_ns`` for an atomic."""
        params = self.params
        stats = self.stats
        if self._owner is core and not self._sharers:
            stats.local_hits += 1
            cost = params.l1_ns
        else:
            stats.line_transfers += 1
            cost = params.line_transfer_ns
        if op != STORE:
            stats.atomics += 1
            cost += params.atomic_extra_ns
        return cost

    def _apply(self, core: Any, op: int, arg: Any, expected: Any) -> Any:
        """Take the line for ``core`` and apply ``op``; returns the op's
        result.  A failed CAS leaves the value alone and wakes no
        spinner."""
        self._owner = core
        self._sharers = _NO_SHARERS
        value = self._value
        if op == CAS:
            if value != expected:
                return False
            result = True
        else:
            result = None if op == STORE else value
        self._value = value + arg if op == FAA else arg
        if self._watchers:
            self._wake_watchers()
        return result

    def _queue_transfer(self) -> Event:
        """An event that fires once the busy line is this transfer's,
        queued behind the transfers already waiting."""
        ev = Event(self.engine)
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append(ev)
        return ev

    def _hand_off(self) -> None:
        """Hand the line to the oldest waiting transfer."""
        self._waiters.popleft().succeed()

    def _wake_watchers(self) -> None:
        watchers, self._watchers = self._watchers, None
        self.stats.wakeups += len(watchers)
        for ev in watchers:
            ev.succeed()
