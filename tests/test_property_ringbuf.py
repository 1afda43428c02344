"""Property-based tests (hypothesis) for the transport ring buffer.

Invariants checked under arbitrary element sizes, thread interleavings,
policies, and placements:

* every element sent is received exactly once (no loss, no duplication);
* per-producer FIFO order is preserved;
* global ring order is preserved with a single producer;
* occupancy accounting never exceeds capacity and returns to zero.
"""

from hypothesis import given, settings, strategies as st

from repro.hw import build_machine
from repro.sim import Engine
from repro.transport import RingBuffer, RingPolicy
from repro.transport.ringbuf import RB_HEADER_BYTES

settings.register_profile("ring", max_examples=25, deadline=None)
settings.load_profile("ring")


def build_ring(policy_kw, master, ring_bytes=64 * 1024):
    eng = Engine()
    m = build_machine(eng)
    phi, host = m.phi(0), m.host
    rb = RingBuffer(
        eng,
        m.fabric,
        ring_bytes,
        master_cpu=phi if master == "phi" else host,
        sender_cpu=phi,
        receiver_cpu=host,
        policy=RingPolicy(**policy_kw),
    )
    return eng, m, rb


element_lists = st.lists(
    st.integers(min_value=1, max_value=2048), min_size=1, max_size=40
)


@given(
    sizes=element_lists,
    lazy=st.booleans(),
    combining=st.booleans(),
    master=st.sampled_from(["phi", "host"]),
)
def test_no_loss_no_duplication_single_pair(sizes, lazy, combining, master):
    eng, m, rb = build_ring(
        {"lazy_update": lazy, "combining": combining}, master
    )
    got = []

    def producer(eng):
        core = m.phi_core(0, 0)
        for i, size in enumerate(sizes):
            yield from rb.send(core, (i, size), size)

    def consumer(eng):
        core = m.host_core(0)
        for _ in sizes:
            got.append((yield from rb.recv(core)))

    p1 = eng.spawn(producer(eng))
    p2 = eng.spawn(consumer(eng))
    eng.run()
    assert p1.ok and p2.ok
    # Exactly-once, in order (single producer => global FIFO).
    assert got == [(i, size) for i, size in enumerate(sizes)]


@given(
    n_producers=st.integers(min_value=2, max_value=6),
    per_producer=st.integers(min_value=1, max_value=12),
    lazy=st.booleans(),
)
def test_per_producer_fifo_many_producers(n_producers, per_producer, lazy):
    eng, m, rb = build_ring({"lazy_update": lazy}, "phi", ring_bytes=256 * 1024)
    got = []
    total = n_producers * per_producer

    def producer(p):
        core = m.phi_core(0, p)
        for j in range(per_producer):
            yield from rb.send(core, (p, j), 64)

    def consumer(eng):
        core = m.host_core(0)
        for _ in range(total):
            got.append((yield from rb.recv(core)))

    procs = [eng.spawn(producer(p)) for p in range(n_producers)]
    procs.append(eng.spawn(consumer(eng)))
    eng.run()
    assert all(pr.ok for pr in procs)
    assert len(got) == total
    assert len(set(got)) == total
    for p in range(n_producers):
        seq = [j for (pp, j) in got if pp == p]
        assert seq == sorted(seq)


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=900), min_size=1, max_size=30
    )
)
def test_capacity_never_exceeded(sizes):
    """Fill-then-drain: reserved bytes stay within capacity and the
    ring is completely reusable afterwards."""
    eng, m, rb = build_ring({}, "phi", ring_bytes=4096)
    hdr = RB_HEADER_BYTES

    def main(eng):
        core = m.phi_core(0, 0)
        host = m.host_core(0)
        accepted = 0
        for size in sizes:
            slot = yield from rb.try_enqueue(core, size)
            if slot is None:
                break
            used = rb._enqueued_bytes - rb._freed_bytes
            assert used <= rb.capacity
            yield from rb.copy_to(core, slot, size)
            yield from rb.set_ready(core, slot)
            accepted += 1
        # Drain everything.
        for _ in range(accepted):
            yield from rb.recv(host)
        assert rb._enqueued_bytes == rb._freed_bytes
        # The ring is fully reusable: a max-size element fits again.
        slot = yield from rb.try_enqueue(core, rb.capacity - hdr)
        assert slot is not None
        return accepted

    accepted = eng.run_process(main(eng))
    assert accepted >= 1


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=512), min_size=2, max_size=20
    ),
    ready_order=st.randoms(),
)
def test_out_of_order_ready_still_delivers_fifo(sizes, ready_order):
    """Slots made ready in arbitrary order still dequeue in ring order."""
    eng, m, rb = build_ring({}, "phi", ring_bytes=128 * 1024)
    got = []

    def producer(eng):
        core = m.phi_core(0, 0)
        slots = []
        for i, size in enumerate(sizes):
            slot = yield from rb.try_enqueue(core, size)
            assert slot is not None
            yield from rb.copy_to(core, slot, i)
            slots.append(slot)
        order = list(range(len(slots)))
        ready_order.shuffle(order)
        for idx in order:
            yield from rb.set_ready(core, slots[idx])

    def consumer(eng):
        core = m.host_core(0)
        for _ in sizes:
            got.append((yield from rb.recv(core)))

    p1 = eng.spawn(producer(eng))
    p2 = eng.spawn(consumer(eng))
    eng.run()
    assert p1.ok and p2.ok
    assert got == list(range(len(sizes)))
