"""Remaining edge coverage: engine any_of, packets, ring validation,
NVMe stats reset, store ordering under handoff, topology queries."""

import pytest

from repro.hw import KB, NvmeOp, build_machine
from repro.net.packets import MSS, Segment, SocketAddr
from repro.sim import Engine, SimError
from repro.transport import RingBuffer, RingPolicy


def test_any_of_empty_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.any_of([])


def test_any_of_failure_propagates():
    eng = Engine()

    def bad(eng):
        yield 5
        raise RuntimeError("first to finish fails")

    def slow(eng):
        yield 1_000

    def main(eng):
        try:
            yield eng.any_of([eng.spawn(bad(eng)), eng.spawn(slow(eng))])
        except RuntimeError as e:
            return str(e)
        return None

    assert eng.run_process(main(eng)) == "first to finish fails"


def test_timeout_carries_value():
    eng = Engine()

    def main(eng):
        value = yield eng.timeout(50, value="payload")
        return value, eng.now

    assert eng.run_process(main(eng)) == ("payload", 50)


def test_timeout_negative_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.timeout(-1)


def test_segment_counts_mss():
    assert Segment(1, 0).nsegs == 1
    assert Segment(1, MSS).nsegs == 1
    assert Segment(1, MSS + 1).nsegs == 2
    assert Segment(1, 10 * MSS).nsegs == 10


def test_socket_addr_string():
    assert str(SocketAddr("host", 80)) == "host:80"
    assert SocketAddr("a", 1) == SocketAddr("a", 1)


def test_ring_rejects_zero_capacity_and_bad_size():
    eng = Engine()
    m = build_machine(eng)
    with pytest.raises(SimError):
        RingBuffer(
            eng, m.fabric, 0,
            master_cpu=m.phi(0), sender_cpu=m.phi(0), receiver_cpu=m.host,
        )
    rb = RingBuffer(
        eng, m.fabric, 1024,
        master_cpu=m.phi(0), sender_cpu=m.phi(0), receiver_cpu=m.host,
    )

    def bad(eng):
        yield from rb.try_enqueue(m.phi_core(0, 0), 0)

    with pytest.raises(SimError):
        eng.run_process(bad(eng))


def test_ring_copy_state_machine_guards():
    eng = Engine()
    m = build_machine(eng)
    rb = RingBuffer(
        eng, m.fabric, 64 * KB,
        master_cpu=m.phi(0), sender_cpu=m.phi(0), receiver_cpu=m.host,
    )
    core = m.phi_core(0, 0)

    def bad_order(eng):
        slot = yield from rb.try_enqueue(core, 64)
        # set_done on a slot that was never dequeued must be rejected.
        yield from rb.copy_to(core, slot, "x")
        yield from rb.set_ready(core, slot)
        yield from rb.set_done(core, slot)

    with pytest.raises(SimError, match="set_done on ready slot"):
        eng.run_process(bad_order(eng))


def _ready_before_copy(rb, tx, rx):
    slot = yield from rb.try_enqueue(tx, 64)
    yield from rb.set_ready(tx, slot)


def _copy_to_twice(rb, tx, rx):
    slot = yield from rb.try_enqueue(tx, 64)
    yield from rb.copy_to(tx, slot, "x")
    yield from rb.copy_to(tx, slot, "y")


def _done_before_copy(rb, tx, rx):
    yield from rb.send(tx, "x", 64)
    slot = yield from rb.dequeue_blocking(rx)
    yield from rb.set_done(rx, slot)


def _copy_from_twice(rb, tx, rx):
    yield from rb.send(tx, "x", 64)
    slot = yield from rb.dequeue_blocking(rx)
    yield from rb.copy_from(rx, slot)
    yield from rb.copy_from(rx, slot)


def _ready_twice(rb, tx, rx):
    slot = yield from rb.try_enqueue(tx, 64)
    yield from rb.copy_to(tx, slot, "x")
    yield from rb.set_ready(tx, slot)
    yield from rb.set_ready(tx, slot)


@pytest.mark.parametrize("master", ["phi", "host"])
@pytest.mark.parametrize("misorder, error", [
    pytest.param(_ready_before_copy, "set_ready on reserved slot",
                 id="ready_before_copy"),
    pytest.param(_copy_to_twice, "copy_to on filled slot", id="copy_to_twice"),
    pytest.param(_done_before_copy, "set_done on consumed slot",
                 id="done_before_copy"),
    pytest.param(_copy_from_twice, "copy_from on drained slot",
                 id="copy_from_twice"),
    pytest.param(_ready_twice, "set_ready on ready slot", id="ready_twice"),
])
def test_ring_rejects_misordered_phases(master, misorder, error):
    """Each Figure 5 phase checks the state the one before it left, so
    a phase run early, twice or out of order fails on every run, on a
    ring mastered at either end."""
    eng = Engine()
    m = build_machine(eng)
    rb = RingBuffer(
        eng, m.fabric, 64 * KB,
        master_cpu=m.phi(0) if master == "phi" else m.host,
        sender_cpu=m.phi(0), receiver_cpu=m.host,
    )
    with pytest.raises(SimError, match=error):
        eng.run_process(misorder(rb, m.phi_core(0, 0), m.host_core(0)))


def test_ring_unknown_copy_mode_rejected():
    eng = Engine()
    m = build_machine(eng)
    rb = RingBuffer(
        eng, m.fabric, 64 * KB,
        master_cpu=m.phi(0), sender_cpu=m.phi(0), receiver_cpu=m.host,
        policy=RingPolicy(copy_mode="teleport"),
    )

    def flow(eng):
        # Copy happens on the receiver side (ring is phi-mastered), so
        # the bad mode triggers there.
        yield from rb.send(m.phi_core(0, 0), "x", 64)
        yield from rb.recv(m.host_core(0))

    with pytest.raises(SimError, match="copy mode"):
        eng.run_process(flow(eng))


def test_nvme_stats_reset():
    eng = Engine()
    m = build_machine(eng)

    def io(eng):
        yield from m.nvme.submit(
            m.host_core(0), [NvmeOp("read", 0, 4 * KB, "numa0")]
        )

    eng.run_process(io(eng))
    assert m.nvme.stats.commands == 1
    m.nvme.stats.reset()
    assert m.nvme.stats.commands == 0
    assert m.nvme.stats.bytes_read == 0


def test_fabric_path_latency_and_same_node():
    eng = Engine()
    m = build_machine(eng)
    fab = m.fabric
    assert fab.path_links("phi0", "phi0") == []
    assert fab.path_latency_ns("phi0", "phi0") == 0
    assert fab.path_latency_ns("numa0", "phi0") > 0
    # Cross-NUMA host-mediated latency includes QPI.
    assert fab.path_latency_ns("numa1", "phi0") > fab.path_latency_ns(
        "numa0", "phi0"
    )
    assert fab.effective_bandwidth("phi0", "phi0") == float("inf")


def test_machine_describe_mentions_devices():
    eng = Engine()
    m = build_machine(eng)
    text = m.describe()
    for token in ("phi0", "phi3", "nvme0", "nic0", "host socket"):
        assert token in text
