"""The ring's blocking calls against its decoupled API: one protocol.

``RingBuffer.send`` is ``try_enqueue`` + ``copy_to`` + ``set_ready``
and ``recv`` is ``dequeue_blocking`` + ``copy_from`` + ``set_done``
(Figure 5's decoupled phases, which the net event dispatcher drives
one by one).  Each test drives one message sequence both ways, with
the tracer on, and requires the same per-message completion times,
``RingStats``, ``CoherenceStats`` and spans.
"""

import pytest

from repro.hw import KB, MB, build_machine
from repro.obs.hub import ObservabilityHub
from repro.sim import Engine
from repro.transport import RingBuffer, RingPolicy


def _send_blocking(rb, core, data, size, ctx):
    yield from rb.send(core, data, size, ctx=ctx)


def _send_decoupled(rb, core, data, size, ctx):
    slot = yield from rb.try_enqueue(core, size, ctx=ctx)
    assert slot is not None  # the ring is sized never to fill
    yield from rb.copy_to(core, slot, data)
    yield from rb.set_ready(core, slot)


def _recv_blocking(rb, core):
    return (yield from rb.recv(core))


def _recv_decoupled(rb, core):
    slot = yield from rb.dequeue_blocking(core)
    data = yield from rb.copy_from(core, slot)
    yield from rb.set_done(core, slot)
    return data


def drive(route, sizes, decoupled, n_send=4, n_recv=3, iters=6, **policy):
    """``n_send`` threads send ``iters`` messages each, cycling through
    ``sizes``, and ``n_recv`` threads receive them; ``route`` is
    ``(sender, receiver, master)``, each ``"phi"`` or ``"host"``."""
    eng = Engine()
    hub = ObservabilityHub(eng)
    m = build_machine(eng)
    cpus = {"phi": m.phi(0), "host": m.host}
    sender_cpu, recv_cpu, master = (cpus[name] for name in route)
    rb = RingBuffer(
        eng, m.fabric, 4 * MB,
        master_cpu=master, sender_cpu=sender_cpu, receiver_cpu=recv_cpu,
        policy=RingPolicy(**policy),
    )
    send = _send_decoupled if decoupled else _send_blocking
    recv = _recv_decoupled if decoupled else _recv_blocking
    tracer = hub.tracer
    sent, received = {}, {}
    total = n_send * iters
    # Receivers use the cores after the senders' (one CPU for a local ring).
    first_recv = n_send if sender_cpu is recv_cpu else 0

    def producer(t):
        core = sender_cpu.core(t)
        for i in range(iters):
            root = tracer.root("msg", "stub", core=core, msg=(t, i))
            yield from send(rb, core, (t, i), sizes[(t + i) % len(sizes)], root)
            tracer.end(root)
            sent[(t, i)] = eng.now

    def consumer(t, count):
        core = recv_cpu.core(first_recv + t)
        for _ in range(count):
            msg = yield from recv(rb, core)
            received[msg] = eng.now

    counts = [total // n_recv] * n_recv
    counts[0] += total - sum(counts)
    procs = [eng.spawn(producer(t)) for t in range(n_send)]
    procs += [eng.spawn(consumer(t, counts[t])) for t in range(n_recv)]
    eng.run()
    assert all(p.ok for p in procs)
    assert len(sent) == len(received) == total
    stats = rb.stats
    spans = [
        (s.trace_id, s.span_id, s.parent_id, s.name, s.category, s.start_ns,
         s.end_ns, s.track, s.attrs)
        for s in tracer.spans
    ]
    return {
        "events": eng.events_processed,
        "sent": sent,
        "received": received,
        "ring": (
            stats.enqueues, stats.dequeues, stats.would_blocks,
            stats.pcie_tx, stats.dma_copies, stats.memcpy_copies,
        ),
        "coherence": [
            (c.local_hits, c.line_transfers, c.atomics, c.wakeups)
            for c in (sender_cpu.coherence, recv_cpu.coherence)
        ],
        "spans": spans,
    }


# (id, route, sizes, policy, (DMA copies, load/store copies)).  Between
# them the configurations copy by local memcpy, load/store and DMA, on
# both sides of the adaptive threshold.
CONFIGS = [
    ("phi-local", ("phi", "phi", "phi"), (64, 512), {}, (0, 0)),
    ("pcie-lazy", ("phi", "host", "phi"), (64, 2 * KB), {}, (12, 12)),
    ("pcie-eager", ("host", "phi", "host"), (64, 20 * KB),
     {"lazy_update": False}, (12, 12)),
    ("memcpy", ("phi", "host", "host"), (64, 4 * KB), {"copy_mode": "memcpy"},
     (0, 24)),
    ("dma", ("phi", "host", "host"), (64, 64 * KB), {"copy_mode": "dma"},
     (24, 0)),
    ("adaptive", ("phi", "host", "host"), (512, 8 * KB, 32 * KB), {}, (8, 16)),
    ("locked", ("phi", "host", "phi"), (64, 2 * KB), {"combining": False},
     (12, 12)),
]


@pytest.mark.parametrize(
    "route, sizes, policy, copies",
    [c[1:] for c in CONFIGS],
    ids=[c[0] for c in CONFIGS],
)
def test_blocking_calls_match_decoupled_phases(route, sizes, policy, copies):
    blocking = drive(route, sizes, decoupled=False, **policy)
    decoupled = drive(route, sizes, decoupled=True, **policy)
    assert blocking == decoupled
    assert blocking["ring"][4:] == copies
    # Every message opened its enqueue, copy, queued and copy-out spans.
    names = [s[3] for s in blocking["spans"]]
    for name in ("rb.enqueue", "rb.copy_in", "rb.queued", "rb.copy_out"):
        assert names.count(name) == len(blocking["sent"])
