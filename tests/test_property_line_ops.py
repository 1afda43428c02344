"""The in-frame cache-line operations against ``MemCell``'s generators.

``CombiningQueue.execute`` runs its own line ops (the tail ``SWAP``,
the loads of ``next`` pointers, the tail ``CAS``) in its frame, and
the ring's ``_enqueue_op``/``_dequeue_op`` store the tail and the head
in theirs.  The references below run the same protocol through
``MemCell.exclusive``, ``load`` and ``wait_until``, the one statement
of the coherence rules.  Hypothesis draws core counts, ``combine_max``,
arrival offsets and op durations; every run must give the same
per-op completion times and results, the same ``CoherenceStats``,
``CombiningStats`` and ``RingStats``, and the same
``Engine.events_processed``.  The fixed pins of
``test_coherence_fingerprint.py`` cover a few contention schedules;
these cover the random ones.
"""

from hypothesis import given, settings, strategies as st

from repro.hw import build_machine
from repro.hw.memory import CAS, STORE, SWAP, MemCell
from repro.sim import Engine
from repro.transport import CombiningQueue, RingBuffer, RingPolicy
from repro.transport.combining import (
    _COMBINER,
    _DONE,
    _WAITING,
    _Request,
    _is_set,
    _not_waiting,
)
from repro.transport.ringbuf import (
    _CONSUMED,
    _WOULD_BLOCK,
    RB_DEQ_COMBINER_UNITS,
    RB_ENQ_COMBINER_UNITS,
    RB_HEADER_BYTES,
    Slot,
)

settings.register_profile("line_ops", max_examples=30, deadline=None)
settings.load_profile("line_ops")


class RefCombiningQueue(CombiningQueue):
    """The combining round with every line op on ``MemCell``'s
    generators (untraced, unmetered)."""

    def execute(self, core, op, *args, ctx=None):
        cpu = self.cpu
        req = _Request(cpu, self._next_name, op, args)
        prev = yield from self._tail.exclusive(core, SWAP, req, None)
        if prev is not None:
            req.status = MemCell(
                cpu.engine, cpu.params, _WAITING, self._status_name, cpu.coherence
            )
            yield from prev.exclusive(core, STORE, req, None)
            status = yield from req.status.wait_until(core, _not_waiting)
            if status == _DONE:
                return req.result
        stats = self.stats
        stats.batches += 1
        current = req
        processed = 0
        while True:
            if current is not req:
                yield from current.status.load(core)
            stats.operations += 1
            current.result = yield from current.op(core, *current.args)
            processed += 1
            successor = yield from current.load(core)
            if successor is None:
                closed = yield from self._tail.exclusive(core, CAS, None, current)
                if closed:
                    if current is not req:
                        yield from current.status.exclusive(core, STORE, _DONE, None)
                    yield self.on_batch_end(core)
                    if self.after_batch_end is not None:
                        self.after_batch_end()
                    return req.result
                successor = yield from current.wait_until(core, _is_set)
            if current is not req:
                yield from current.status.exclusive(core, STORE, _DONE, None)
            if processed >= self.combine_max:
                stats.handoffs += 1
                yield self.on_batch_end(core)
                if self.after_batch_end is not None:
                    self.after_batch_end()
                yield from successor.status.exclusive(core, STORE, _COMBINER, None)
                return req.result
            current = successor


class RefRing(RingBuffer):
    """The ring with its control stores on ``MemCell.store`` and its
    sides on :class:`RefCombiningQueue` (lazy replication only)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        assert self.policy.combining and self.policy.lazy_update
        combine_max = self.policy.combine_max
        self._enq_side = RefCombiningQueue(
            self.sender_cpu, combine_max, f"{self.name}.enq",
            self._push_tail, self._tail_pushed,
        )
        self._deq_side = RefCombiningQueue(
            self.receiver_cpu, combine_max, f"{self.name}.deq", self._push_head,
        )

    def _enqueue_op(self, core, size):
        yield core.compute(RB_ENQ_COMBINER_UNITS, "scalar")
        need = size + RB_HEADER_BYTES
        if self._enqueued_bytes - self._sender_freed_view + need > self.capacity:
            read = self._read_ctrl(core, self._head_cell)
            if type(read) is int:
                yield read
            else:
                yield from read
            self._sender_freed_view = self._freed_bytes
            if self._enqueued_bytes - self._sender_freed_view + need > self.capacity:
                return _WOULD_BLOCK
        self._seq += 1
        slot = Slot(self._seq, size)
        yield from self._tail_cell.store(core, self._seq)
        if self._local_ring:
            self._recv_visible_seq = self._seq
        self._enqueued_bytes += need
        self._to_dequeue.append(slot)
        self.stats.enqueues += 1
        return slot

    def _dequeue_op(self, core):
        yield core.compute(RB_DEQ_COMBINER_UNITS, "scalar")
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
        yield from self._head_cell.store(core, slot.seq)
        self.stats.dequeues += 1
        return slot


def _coherence(*cpus):
    return [
        (s.local_hits, s.line_transfers, s.atomics, s.wakeups)
        for s in (cpu.coherence for cpu in cpus)
    ]


def _counts(obj):
    return dict(vars(obj))


def run_queue(queue_cls, n_cores, combine_max, offsets, durations):
    """Each of ``n_cores`` Phi cores arrives at its offset and runs
    its ops (one per duration) through one combining queue."""
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    cq = queue_cls(phi, combine_max=combine_max)
    log = []

    def op(core, tag, ns):
        yield ns
        return (tag, core.cid)

    def worker(i):
        core = phi.core(i)
        yield offsets[i]
        for j, ns in enumerate(durations[i]):
            result = yield from cq.execute(core, op, (i, j), ns)
            log.append((i, j, eng.now, result))

    procs = [eng.spawn(worker(i)) for i in range(n_cores)]
    eng.run()
    assert all(p.ok for p in procs)
    return log, _coherence(phi), _counts(cq.stats), eng.events_processed


def run_ring(ring_cls, local, n_send, n_recv, combine_max, offsets, sizes):
    """``n_send`` producers each send their ``sizes`` after their
    offset; ``n_recv`` consumers receive them all.  A local ring runs
    both ends on one Phi; a PCIe ring sends from the Phi to the host,
    mastered at the Phi."""
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    recv_cpu = phi if local else m.host
    rb = ring_cls(
        eng, m.fabric, 64 * 1024, master_cpu=phi, sender_cpu=phi,
        receiver_cpu=recv_cpu, policy=RingPolicy(combine_max=combine_max),
    )
    total = sum(len(s) for s in sizes)
    log = []
    recv_cores = len(recv_cpu.cores)

    def producer(i):
        core = phi.core(i % 61)
        yield offsets[i]
        for j, size in enumerate(sizes[i]):
            slot = yield from rb.send(core, (i, j), size)
            log.append(("send", i, j, eng.now, slot.seq))

    def consumer(k, quota):
        core = recv_cpu.core((k + (n_send if local else 0)) % recv_cores)
        for _ in range(quota):
            data = yield from rb.recv(core)
            log.append(("recv", k, eng.now, data))

    quotas = [total // n_recv + (k < total % n_recv) for k in range(n_recv)]
    procs = [eng.spawn(producer(i)) for i in range(n_send)]
    procs += [eng.spawn(consumer(k, q)) for k, q in enumerate(quotas)]
    eng.run()
    assert all(p.ok for p in procs)
    return (
        log,
        _coherence(phi, m.host),
        _counts(rb._enq_side.stats),
        _counts(rb._deq_side.stats),
        _counts(rb.stats),
        eng.events_processed,
    )


@st.composite
def queue_schedules(draw):
    n = draw(st.integers(min_value=1, max_value=61))
    offsets = draw(st.lists(st.integers(0, 3_000), min_size=n, max_size=n))
    durations = draw(
        st.lists(
            st.lists(st.integers(0, 800), min_size=1, max_size=4),
            min_size=n, max_size=n,
        )
    )
    return n, offsets, durations


@given(schedule=queue_schedules(), combine_max=st.integers(1, 20))
def test_combining_round_matches_memcell_reference(schedule, combine_max):
    n, offsets, durations = schedule
    got = run_queue(CombiningQueue, n, combine_max, offsets, durations)
    want = run_queue(RefCombiningQueue, n, combine_max, offsets, durations)
    assert got == want
    assert len(got[0]) == sum(len(d) for d in durations)


@st.composite
def ring_schedules(draw):
    n_send = draw(st.integers(min_value=1, max_value=61))
    n_recv = draw(st.integers(min_value=1, max_value=8))
    offsets = draw(st.lists(st.integers(0, 20_000), min_size=n_send, max_size=n_send))
    sizes = draw(
        st.lists(
            st.lists(st.integers(1, 6_000), min_size=1, max_size=3),
            min_size=n_send, max_size=n_send,
        )
    )
    return n_send, n_recv, offsets, sizes


@given(
    schedule=ring_schedules(),
    combine_max=st.integers(1, 20),
    local=st.booleans(),
)
def test_ring_control_stores_match_memcell_reference(schedule, combine_max, local):
    n_send, n_recv, offsets, sizes = schedule
    args = (local, n_send, n_recv, combine_max, offsets, sizes)
    got = run_ring(RingBuffer, *args)
    want = run_ring(RefRing, *args)
    assert got == want
    assert got[4]["enqueues"] == got[4]["dequeues"] == sum(len(s) for s in sizes)
