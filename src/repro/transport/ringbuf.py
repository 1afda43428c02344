"""The Solros transport service: a ring buffer over PCIe (§4.2).

Design points reproduced from the paper:

* **Master/shadow placement** (§4.2.2): the master ring allocates real
  memory on one side; the other side accesses it through a
  system-mapped PCIe window.  Placement is a first-class performance
  decision (e.g. the RPC request ring is mastered at the co-processor
  so its enqueues are local memory operations).
* **Decoupled operations** (Figure 5): ``enqueue``/``dequeue`` only
  reserve/claim a slot; the data copy (``copy_to``/``copy_from``) and
  the readiness flips (``set_ready``/``set_done``) are separate, so
  multiple threads copy concurrently while queue order is maintained.
  A slot moves ``reserved -> filled -> ready -> consumed -> drained ->
  done``, one state per phase; each phase raises ``SimError`` unless
  the slot is in the state the phase before it left.
* **Combining** (§4.2.3): both ends serialize their slot operations
  through a :class:`~repro.transport.combining.CombiningQueue` instead
  of a lock.
* **Lazy replication of control variables** (§4.2.4): the sender owns
  the original ``tail`` and a replica of ``head``; the receiver owns
  the original ``head`` and a replica of ``tail``.  Replicas are only
  synchronized when a side *appears* full/empty, and a combiner pushes
  its original at the end of each batch — saving a PCIe transaction
  per operation.
* **Adaptive copy** (§4.2.4/§5): load/store ``memcpy`` below the
  initiator-specific threshold (1 KB host / 16 KB Phi), DMA above.
* **Non-blocking interface**: reserve/claim return ``None`` on
  full/empty (the paper's ``EWOULDBLOCK``); ``send``/``recv`` add the
  retry loop.

The ring is unidirectional (``sender_cpu`` → ``receiver_cpu``), like
the paper's RPC ring pairs; data is carried functionally as Python
objects with an accounted byte size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Generator, Optional, Union

from ..hw.cpu import CPU, Core
from ..hw.memory import _NO_SHARERS
from ..hw.topology import Fabric
from ..obs.hub import hub_of
from ..sim.engine import Delay, Engine, Event, SimError
from .combining import CombiningQueue
from .locks import MCSLock

__all__ = ["RingBuffer", "RingPolicy", "RingStats", "Slot"]

# Slot lifecycle, in order; each phase sets the next state.
_RESERVED = "reserved"   # enqueue
_FILLED = "filled"       # copy_to
_READY = "ready"         # set_ready
_CONSUMED = "consumed"   # dequeue
_DRAINED = "drained"     # copy_from
_DONE = "done"           # set_done

# A sentinel op-result distinguishing "no space/data" from a payload.
_WOULD_BLOCK = object()

# Fixed per-op bookkeeping executed by the calling thread (argument
# marshalling, size checks) — branch-divergent queue code.
RB_OP_WORK_UNITS = 110

# The on-ring header of each slot, and the retry backoff of the
# blocking send/recv when the ring is full/empty.
RB_HEADER_BYTES = 16
RB_POLL_INTERVAL_NS = 2_000

# Ring bookkeeping executed *by the combiner* for each operation it
# processes (slot accounting, wrap handling).  This is the serial
# section that bounds combining throughput at high core counts;
# calibrated against Figure 8's ~700k pairs/s plateau.  Dequeue does
# more serial work than enqueue (readiness checks, in-order release
# walk), which is also why the paper's Fig. 9 absolute rates differ by
# direction: whichever side dequeues is the slower serial section.
RB_ENQ_COMBINER_UNITS = 45
RB_DEQ_COMBINER_UNITS = 190

# A PCIe memory *write* is posted (fire-and-forget): the initiator only
# pays the issue cost, not a round trip.  Reads stall for the full
# transaction.  §4.2.4's replication matters because the *reads* of the
# remote control variables go away.
POSTED_WRITE_DIVISOR = 6


@dataclass
class RingPolicy:
    """Tunable design choices (each is an ablation in the benches)."""

    lazy_update: bool = True          # §4.2.4 replica scheme vs eager
    combining: bool = True            # §4.2.3 combining vs MCS locking
    copy_mode: str = "adaptive"       # 'memcpy' | 'dma' | 'adaptive'
    combine_max: int = 16


class RingStats:
    """Operation and PCIe-traffic counters (Figure 9's mechanism)."""

    def __init__(self) -> None:
        self.enqueues = 0
        self.dequeues = 0
        self.would_blocks = 0
        self.pcie_tx = 0
        self.dma_copies = 0
        self.memcpy_copies = 0


class Slot:
    """One variable-size element in the ring.

    ``trace`` carries the sender's span context across the ring (the
    transport-level trace propagation of ``repro.obs``); ``qspan`` is
    the open queued-residency span, ended when the receiver claims the
    slot.  Both stay None when tracing is off.
    """

    __slots__ = ("seq", "size", "data", "state", "trace", "qspan")

    def __init__(self, seq: int, size: int):
        self.seq = seq
        self.size = size
        self.data: Any = None
        self.state = _RESERVED
        self.trace = None
        self.qspan = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Slot #{self.seq} {self.size}B {self.state}>"


class _LockedSide:
    """Per-role serialization without combining: an MCS lock, with the
    control-variable sync after every op.  Same ``execute`` as
    :class:`CombiningQueue`, the combining alternative."""

    def __init__(self, cpu: CPU, name: str, on_batch_end, after_batch_end=None):
        self.lock = MCSLock(cpu, name=name)
        self._nodes = {}
        self.on_batch_end = on_batch_end
        self.after_batch_end = after_batch_end

    def execute(self, core: Core, op, *args, ctx=None) -> Generator:
        node = self._nodes.get(core.cid)
        if node is None:
            node = self.lock.new_node()
            self._nodes[core.cid] = node
        yield from self.lock.acquire(core, node)
        try:
            result = yield from op(core, *args)
            # Without combining, control-variable sync happens per-op.
            yield self.on_batch_end(core)
            if self.after_batch_end is not None:
                self.after_batch_end()
        finally:
            yield from self.lock.release(core, node)
        return result


class RingBuffer:
    """A fixed-size, variable-element ring buffer over PCIe.

    Each side of a message runs in one generator frame: ``send`` and
    ``try_enqueue`` are ``_enqueue``, and ``recv``, ``try_dequeue``
    and ``dequeue_blocking`` are ``_dequeue``.  Below that frame are
    only the side's combining pass (or MCS lock) and, for a DMA copy,
    ``Fabric.dma_copy``.  Each Figure 5 phase is a pair of plain
    helpers around one ``yield``: a start (``_copy_start``,
    ``_ready_start``, ``_done_start``) that checks the slot's state,
    and an end (``_copy_in_end``, ``_ready_end``, ``_done_end``; a
    copy out sets ``drained`` in place) that advances it.  ``send``/
    ``recv``, ``drain`` and the decoupled ``copy_to``/``set_ready``/
    ``copy_from``/``set_done`` share them, so every way through a phase
    takes the same time and makes the same checks.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        size_bytes: int,
        master_cpu: CPU,
        sender_cpu: CPU,
        receiver_cpu: CPU,
        policy: Optional[RingPolicy] = None,
        name: str = "rb",
    ):
        if master_cpu is not sender_cpu and master_cpu is not receiver_cpu:
            raise SimError("master ring must live at the sender or receiver")
        if size_bytes < 1:
            raise SimError("ring size must be positive")
        self.engine = engine
        self.fabric = fabric
        self.capacity = size_bytes
        self.master_cpu = master_cpu
        self.sender_cpu = sender_cpu
        self.receiver_cpu = receiver_cpu
        self.policy = policy or RingPolicy()
        self.name = name
        # Both ends run on the master's processor (Fig. 8).
        self._local_ring = sender_cpu is receiver_cpu
        self.stats = stats = RingStats()
        # Fault injection (repro.faults); None keeps the hooks dormant.
        self.faults = None
        obs = hub_of(engine)
        metrics = obs.metrics
        self.tracer = obs.tracer
        self._metered = obs.enabled
        self._g_occupancy = metrics.gauge(f"ring.{name}.occupancy_bytes")
        metrics.view(f"ring.{name}.copy.dma", lambda: stats.dma_copies)
        metrics.view(f"ring.{name}.copy.memcpy", lambda: stats.memcpy_copies)

        # Functional truth (mutated only inside side-serialized ops).
        self._seq = 0
        self._enqueued_bytes = 0          # reserved, monotonic
        self._freed_bytes = 0             # done-and-released, monotonic
        self._to_dequeue: Deque[Slot] = deque()
        self._unfreed: Deque[Slot] = deque()

        # Replicated control-variable views (§4.2.4).
        self._sender_freed_view = 0       # sender's replica of head
        self._recv_visible_seq = 0        # receiver's replica of tail

        # Sleep/wake bookkeeping for the blocking send/recv wrappers.
        # (Real Solros threads spin-poll; the simulation wakes sleepers
        # on state changes instead so an idle system quiesces — the
        # timing difference is sub-poll-interval.)
        self._data_waiters: list = []
        self._space_waiters: list = []

        # Role-side cells: the control variables each side touches
        # locally (their contention cost matters for Figure 8).
        self._tail_cell = sender_cpu.new_cell(0, name=f"{name}.tail")
        self._head_cell = receiver_cpu.new_cell(0, name=f"{name}.head")

        # Each side runs its slot ops through a CombiningQueue, or an
        # MCS lock when combining is off.
        if self.policy.combining:
            self._enq_side = CombiningQueue(
                sender_cpu, self.policy.combine_max, f"{name}.enq",
                self._push_tail, self._tail_pushed,
            )
            self._deq_side = CombiningQueue(
                receiver_cpu, self.policy.combine_max, f"{name}.deq",
                self._push_head,
            )
        else:
            self._enq_side = _LockedSide(
                sender_cpu, f"{name}.enq", self._push_tail, self._tail_pushed
            )
            self._deq_side = _LockedSide(
                receiver_cpu, f"{name}.deq", self._push_head
            )

    # ------------------------------------------------------------------
    # Locality helpers
    # ------------------------------------------------------------------
    def _remote_ctrl_tx(self, core: Core) -> Generator:
        """One control-variable *read* across PCIe (full stall)."""
        if self._local_ring:
            yield core.params.l1_ns
            return
        self.stats.pcie_tx += 1
        if self.faults is not None:
            # Injected link degradation (retraining/replay) taxes the
            # non-posted read with extra nanoseconds.
            extra = self.faults.pcie_degrade(self.name)
            if extra:
                yield extra
        yield self.fabric.remote_tx(core, 1)

    def _remote_ctrl_post(self, core: Core) -> Delay:
        """The time of one control-variable *write* across PCIe
        (posted; a delay to ``yield``).  The batch ends, ``_push_tail``
        and ``_push_head``, run it in their own frame."""
        if self._local_ring:
            return core.cpu.params.l1_ns
        self.stats.pcie_tx += 1
        return core.cpu.params.pcie_tx_ns // POSTED_WRITE_DIVISOR

    # ------------------------------------------------------------------
    # Control-variable synchronization (§4.2.4)
    # ------------------------------------------------------------------
    def _push_tail(self, core: Core) -> Delay:
        """Sender-side batch end: publish tail to the receiver replica;
        returns the delay of the posted write (``_remote_ctrl_post``,
        in this frame)."""
        self._recv_visible_seq = self._seq
        if self._local_ring:
            return core.cpu.params.l1_ns
        self.stats.pcie_tx += 1
        return core.cpu.params.pcie_tx_ns // POSTED_WRITE_DIVISOR

    def _tail_pushed(self) -> None:
        """After the tail push's write: wake the sleeping receivers."""
        if self._data_waiters:
            self._wake(self._data_waiters)

    def _push_head(self, core: Core) -> Delay:
        """Receiver-side batch end: publish head to the sender replica;
        returns the delay of the posted write (``_remote_ctrl_post``,
        in this frame)."""
        self._sender_freed_view = self._freed_bytes
        if self._local_ring:
            return core.cpu.params.l1_ns
        self.stats.pcie_tx += 1
        return core.cpu.params.pcie_tx_ns // POSTED_WRITE_DIVISOR

    def _read_ctrl(self, core: Core, cell) -> Union[Delay, Generator]:
        """Read the other side's original control variable ``cell``: a
        load of the line on a local ring, else one PCIe read.  Returns
        the PCIe read's delay to ``yield``, or a generator to ``yield
        from`` for the load or for a read that fault injection may
        stall.  The caller then refreshes its replica."""
        if self._local_ring:
            return cell.load(core)
        if self.faults is not None:
            return self._remote_ctrl_tx(core)
        self.stats.pcie_tx += 1
        return self.fabric.remote_tx(core, 1)

    # ------------------------------------------------------------------
    # Enqueue path (sender side)
    # ------------------------------------------------------------------
    def try_enqueue(self, core: Core, size: int, ctx=None) -> Generator:
        """Reserve a slot for ``size`` bytes; None when the ring is full
        (the paper's EWOULDBLOCK)."""
        return self._enqueue(core, size, ctx, None, send=False)

    def _enqueue(
        self, core: Core, size: int, ctx, data: Any, send: bool
    ) -> Generator:
        """The sender's side of one message, in one frame: reserve a
        slot and return it.  With ``send``, wait while the ring is full,
        then fill the slot with ``data`` and ready it (the phases of
        ``copy_to`` and ``set_ready``); else return None when full."""
        if size <= 0:
            raise SimError(f"element size must be positive: {size}")
        if size + RB_HEADER_BYTES > self.capacity:
            raise SimError(f"element larger than ring: {size}")
        tracer = self.tracer
        while True:
            span = None
            if ctx is not None:
                span = tracer.child(
                    "rb.enqueue", "transport", ctx, core=core, ring=self.name,
                    size=size,
                )
            yield core.compute(RB_OP_WORK_UNITS, "branchy")
            if self.faults is not None:
                # Transient slot stall: the producer loses the slot for
                # a while (SMI / preemption) before the reservation runs.
                stall = self.faults.ring_stall(self.name)
                if stall:
                    yield stall
            slot = yield from self._enq_side.execute(
                core, self._enqueue_op, size, ctx=ctx
            )
            if slot is not _WOULD_BLOCK:
                break
            self.stats.would_blocks += 1
            if span is not None:
                tracer.end(span, would_block=True)
            if not send:
                return None
            # Full: sleep until a consumer frees space, wait one poll
            # interval and try again.
            ev = self.engine.event()
            self._space_waiters.append(ev)
            used = self._enqueued_bytes - self._freed_bytes
            if used + size + RB_HEADER_BYTES <= self.capacity:
                self._wake(self._space_waiters)
            yield ev
            yield RB_POLL_INTERVAL_NS
        slot.trace = ctx
        if self._metered:
            self._g_occupancy.set(self._enqueued_bytes - self._freed_bytes)
        if span is not None:
            tracer.end(span)
        if send:
            span, copy = self._copy_start(core, slot, into_ring=True)
            if type(copy) is int:
                yield copy
            else:
                yield from copy
            self._copy_in_end(slot, data, span)
            yield self._ready_start(core, slot)
            self._ready_end(core, slot)
        return slot

    def _enqueue_op(self, core: Core, size: int) -> Generator:
        yield core.compute(RB_ENQ_COMBINER_UNITS, "scalar")
        need = size + RB_HEADER_BYTES
        if not self.policy.lazy_update:
            # Eager (no replication): the control variables live in the
            # master ring's memory, so only the non-master side pays a
            # PCIe transaction per access.
            if self.master_cpu is not self.sender_cpu:
                yield from self._remote_ctrl_tx(core)
            self._sender_freed_view = self._freed_bytes
        if self._enqueued_bytes - self._sender_freed_view + need > self.capacity:
            # Appears full: synchronize the head replica and re-check.
            read = self._read_ctrl(core, self._head_cell)
            if type(read) is int:
                yield read
            else:
                yield from read
            self._sender_freed_view = self._freed_bytes
            if (
                self._enqueued_bytes - self._sender_freed_view + need
                > self.capacity
            ):
                return _WOULD_BLOCK
        self._seq += 1
        slot = Slot(self._seq, size)
        # Store the tail: MemCell.store's yields, in this frame.
        cell = self._tail_cell
        if cell._owner is core and not cell._sharers:
            # A plain local write does not hold the line.
            cell.stats.local_hits += 1
            yield cell.params.l1_ns
        else:
            cell.stats.line_transfers += 1
            if cell._busy:
                yield cell._queue_transfer()
            else:
                cell._busy = True
                yield 0
            try:
                yield cell.params.line_transfer_ns
            finally:
                if cell._waiters:
                    cell._hand_off()
                else:
                    cell._busy = False
        cell._owner = core
        cell._sharers = _NO_SHARERS
        cell._value = self._seq
        if cell._watchers:
            cell._wake_watchers()
        if not self.policy.lazy_update:
            if self.master_cpu is not self.sender_cpu:
                yield self._remote_ctrl_post(core)
            self._recv_visible_seq = self._seq
        elif self._local_ring:
            self._recv_visible_seq = self._seq
        self._enqueued_bytes += need
        self._to_dequeue.append(slot)
        self.stats.enqueues += 1
        return slot

    def copy_to(self, core: Core, slot: Slot, data: Any) -> Generator:
        """Fill the reserved slot (rb_copy_to_rb_buf)."""
        span, copy = self._copy_start(core, slot, into_ring=True)
        if type(copy) is int:
            yield copy
        else:
            yield from copy
        self._copy_in_end(slot, data, span)

    def set_ready(self, core: Core, slot: Slot) -> Generator:
        """Mark the slot dequeueable (rb_set_ready)."""
        yield self._ready_start(core, slot)
        self._ready_end(core, slot)

    # ------------------------------------------------------------------
    # Dequeue path (receiver side)
    # ------------------------------------------------------------------
    def try_dequeue(self, core: Core) -> Generator:
        """Claim the oldest ready slot; None when empty."""
        return self._dequeue(core, block=False, recv=False)

    def _dequeue(self, core: Core, block: bool, recv: bool) -> Generator:
        """The receiver's side of one message, in one frame: claim the
        oldest ready slot and return it.  When the ring looks empty,
        return None, or with ``block`` sleep until a producer readies a
        slot, wait one poll interval and try again.  With ``recv``,
        copy the payload out and release the slot (``drain``'s phases),
        and return the payload."""
        while True:
            yield core.compute(RB_OP_WORK_UNITS, "branchy")
            if self.faults is not None:
                # Consumer-side counterpart of the enqueue stall.
                stall = self.faults.ring_stall(self.name)
                if stall:
                    yield stall
            slot = yield from self._deq_side.execute(core, self._dequeue_op)
            if slot is not _WOULD_BLOCK:
                break
            self.stats.would_blocks += 1
            if not block:
                return None
            ev = Event(self.engine)
            self._data_waiters.append(ev)
            # Re-check after registering: a producer may have raced us.
            if self._head_ready():
                self._wake(self._data_waiters)
            yield ev
            yield RB_POLL_INTERVAL_NS  # poll granularity
        if slot.qspan is not None:
            self.tracer.end(slot.qspan, claimed_by=f"c{core.cid}")
            slot.qspan = None
        if not recv:
            return slot
        span, copy = self._copy_start(core, slot, into_ring=False)
        if type(copy) is int:
            yield copy
        else:
            yield from copy
        slot.state = _DRAINED
        if span is not None:
            self.tracer.end(span)
        yield self._done_start(core, slot)
        self._done_end(slot)
        return slot.data

    def _dequeue_op(self, core: Core) -> Generator:
        yield core.compute(RB_DEQ_COMBINER_UNITS, "scalar")
        if not self.policy.lazy_update:
            if self.master_cpu is not self.receiver_cpu:
                yield from self._remote_ctrl_tx(core)
            self._recv_visible_seq = self._seq
        if not self._head_ready():
            read = self._read_ctrl(core, self._tail_cell)
            if type(read) is int:
                yield read
            else:
                yield from read
            self._recv_visible_seq = self._seq
            if not self._head_ready():
                return _WOULD_BLOCK
        slot = self._to_dequeue.popleft()
        slot.state = _CONSUMED
        self._unfreed.append(slot)
        # Store the head: MemCell.store's yields, in this frame.
        cell = self._head_cell
        if cell._owner is core and not cell._sharers:
            # A plain local write does not hold the line.
            cell.stats.local_hits += 1
            yield cell.params.l1_ns
        else:
            cell.stats.line_transfers += 1
            if cell._busy:
                yield cell._queue_transfer()
            else:
                cell._busy = True
                yield 0
            try:
                yield cell.params.line_transfer_ns
            finally:
                if cell._waiters:
                    cell._hand_off()
                else:
                    cell._busy = False
        cell._owner = core
        cell._sharers = _NO_SHARERS
        cell._value = slot.seq
        if cell._watchers:
            cell._wake_watchers()
        if not self.policy.lazy_update:
            if self.master_cpu is not self.receiver_cpu:
                yield self._remote_ctrl_post(core)
            self._sender_freed_view = self._freed_bytes
        self.stats.dequeues += 1
        return slot

    def _head_ready(self) -> bool:
        if not self._to_dequeue:
            return False
        slot = self._to_dequeue[0]
        return slot.state == _READY and slot.seq <= self._recv_visible_seq

    def copy_from(self, core: Core, slot: Slot) -> Generator:
        """Copy the payload out (rb_copy_from_rb_buf); returns it."""
        span, copy = self._copy_start(core, slot, into_ring=False)
        if type(copy) is int:
            yield copy
        else:
            yield from copy
        slot.state = _DRAINED
        if span is not None:
            self.tracer.end(span)
        return slot.data

    def set_done(self, core: Core, slot: Slot) -> Generator:
        """Release the slot's space (rb_set_done)."""
        yield self._done_start(core, slot)
        self._done_end(slot)

    def drain(self, core: Core, slot: Slot) -> Generator:
        """``copy_from`` then ``set_done`` in one frame, for a slot a
        ``dequeue_blocking`` caller handed on; returns the payload."""
        span, copy = self._copy_start(core, slot, into_ring=False)
        if type(copy) is int:
            yield copy
        else:
            yield from copy
        slot.state = _DRAINED
        if span is not None:
            self.tracer.end(span)
        yield self._done_start(core, slot)
        self._done_end(slot)
        return slot.data

    # ------------------------------------------------------------------
    # Blocking conveniences
    # ------------------------------------------------------------------
    def send(self, core: Core, data: Any, size: int, ctx=None) -> Generator:
        """Enqueue + copy + ready, waiting while the ring is full;
        returns the slot."""
        return self._enqueue(core, size, ctx, data, send=True)

    def dequeue_blocking(self, core: Core) -> Generator:
        """Claim the next slot, waiting while the ring is empty.

        The caller is responsible for ``copy_from`` + ``set_done`` —
        this is the §4.4.2 event-dispatcher pattern, where a single
        thread claims slots and application threads copy in parallel.
        """
        return self._dequeue(core, block=True, recv=False)

    def recv(self, core: Core) -> Generator:
        """Dequeue + copy + done, waiting while the ring is empty;
        returns the payload."""
        return self._dequeue(core, block=True, recv=True)

    def _wake(self, waiters: list) -> None:
        """Wake every sleeper in the non-empty list ``waiters``."""
        pending, waiters[:] = waiters[:], []
        for ev in pending:
            if not ev.triggered:
                ev.succeed()

    # ------------------------------------------------------------------
    # Slot phases (Figure 5), as plain calls.  Each phase is a start
    # (check the slot, open its span, return the delay), the caller's
    # ``yield`` of that delay, and an end (the state change).  The
    # decoupled calls and the one-frame send/recv share these helpers.
    # ------------------------------------------------------------------
    def _copy_start(self, core: Core, slot: Slot, into_ring: bool):
        """The start of ``copy_to`` (``into_ring``) or ``copy_from``:
        check the slot and open the copy's span.  Returns the span and
        the copy: a delay to ``yield``, or for a DMA copy the
        ``Fabric.dma_copy`` generator to ``yield from``."""
        if into_ring:
            if slot.state != _RESERVED:
                raise SimError(f"copy_to on {slot.state} slot")
            name, side_cpu = "rb.copy_in", self.sender_cpu
        else:
            if slot.state != _CONSUMED:
                raise SimError(f"copy_from on {slot.state} slot")
            name, side_cpu = "rb.copy_out", self.receiver_cpu
        size = slot.size
        span = None
        if slot.trace is not None:
            span = self.tracer.child(
                name, "transport", slot.trace, core=core, ring=self.name,
                size=size,
            )
        if self.master_cpu is side_cpu:
            # Ring memory is local to this side.
            return span, core.memcpy_local(size)
        mode = self.policy.copy_mode
        if mode == "adaptive":
            mode = (
                "memcpy"
                if size < core.params.adaptive_copy_threshold
                else "dma"
            )
        if mode == "memcpy":
            self.stats.memcpy_copies += 1
            return span, self.fabric.loadstore_copy(core, size)
        if mode == "dma":
            self.stats.dma_copies += 1
            if into_ring:
                src, dst = side_cpu.node, self.master_cpu.node
            else:
                src, dst = self.master_cpu.node, side_cpu.node
            return span, self.fabric.dma_copy(core, src, dst, size)
        raise SimError(f"unknown copy mode: {mode!r}")

    def _copy_in_end(self, slot: Slot, data: Any, span) -> None:
        """The end of ``copy_to``: the slot holds ``data``."""
        slot.data = data
        slot.state = _FILLED
        if span is not None:
            self.tracer.end(span)

    def _ready_start(self, core: Core, slot: Slot) -> Delay:
        """The start of ``set_ready``: check the slot; returns the time
        of its header write."""
        if slot.state != _FILLED:
            raise SimError(f"set_ready on {slot.state} slot")
        return self._slot_header_write(core, writer_is_sender=True)

    def _ready_end(self, core: Core, slot: Slot) -> None:
        """The end of ``set_ready``: the slot is dequeueable."""
        slot.state = _READY
        if slot.trace is not None:
            # Queued-residency span: open now, ended when the receiver
            # claims the slot.
            slot.qspan = self.tracer.child(
                "rb.queued", "transport", slot.trace, core=core,
                ring=self.name, size=slot.size,
            )
        if self._data_waiters:
            self._wake(self._data_waiters)

    def _done_start(self, core: Core, slot: Slot) -> Delay:
        """The start of ``set_done``: check the slot; returns the time
        of its header write."""
        if slot.state != _DRAINED:
            raise SimError(f"set_done on {slot.state} slot")
        return self._slot_header_write(core, writer_is_sender=False)

    def _done_end(self, slot: Slot) -> None:
        """The end of ``set_done``: the slot is done, and the space of
        the done slots at the head of the ring is reclaimed."""
        slot.state = _DONE
        # Space is reclaimed in ring order.
        freed_any = False
        while self._unfreed and self._unfreed[0].state == _DONE:
            done = self._unfreed.popleft()
            self._freed_bytes += done.size + RB_HEADER_BYTES
            freed_any = True
            if self._local_ring:
                self._sender_freed_view = self._freed_bytes
        if freed_any:
            if self._metered:
                self._g_occupancy.set(self._enqueued_bytes - self._freed_bytes)
            if self._space_waiters:
                self._wake(self._space_waiters)

    def _slot_header_write(self, core: Core, writer_is_sender: bool) -> Delay:
        """The time of one slot-header write (a delay to ``yield``)."""
        side_cpu = self.sender_cpu if writer_is_sender else self.receiver_cpu
        if self.master_cpu is side_cpu:
            return core.cpu.params.l1_ns
        self.stats.pcie_tx += 1
        return core.cpu.params.pcie_tx_ns // POSTED_WRITE_DIVISOR
