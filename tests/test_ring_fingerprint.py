"""Ring buffer fingerprints over PCIe: pinned exactly.

perfbench drives the ring only as the fs RPC and net rings, and
``tests/test_coherence_fingerprint.py`` pins only the Phi-local
combining ring.  The scenarios here pin the other ring paths, each
with several concurrent senders and receivers:

* a PCIe ring with lazily replicated control variables and with eager
  ones (Fig. 9), in both directions, one of them on a ring small
  enough that senders wait for space;
* DMA-size copies and copies on both sides of the adaptive threshold
  (Fig. 10);
* the MCS-locked side (``RingPolicy(combining=False)``).

Each scenario records the simulated completion time of every send and
receive; the test pins ``Engine.events_processed``, a SHA-256 digest
of those times, the ``RingStats`` and the ``CoherenceStats`` totals of
both processors.  A change to the ring, the combining queue or
``MemCell`` that keeps every yield, every value and every grant in the
same order leaves all four untouched.

The pins are simulated quantities only, so they hold on any host.
"""

import hashlib

import pytest

from repro.hw import KB, MB, build_machine
from repro.sim import Engine
from repro.transport import RingBuffer, RingPolicy


def _digest(times):
    return hashlib.sha256(",".join(map(str, times)).encode()).hexdigest()


def _ring_totals(stats):
    return (
        stats.enqueues, stats.dequeues, stats.would_blocks, stats.pcie_tx,
        stats.dma_copies, stats.memcpy_copies,
    )


def _coherence_totals(stats):
    return (stats.local_hits, stats.line_transfers, stats.atomics, stats.wakeups)


def pcie_ring(direction, sizes, n_send=6, n_recv=4, iters=8, ring=4 * MB,
              **policy):
    """``n_send`` threads each send ``iters`` messages across PCIe,
    cycling through ``sizes``; ``n_recv`` threads drain them.  The ring
    is mastered at the sender (as in Figs. 9 and 10)."""
    eng = Engine()
    m = build_machine(eng)
    phi, host = m.phi(0), m.host
    if direction == "phi2host":
        sender_cpu, recv_cpu = phi, host
    else:
        sender_cpu, recv_cpu = host, phi
    rb = RingBuffer(
        eng, m.fabric, ring,
        master_cpu=sender_cpu, sender_cpu=sender_cpu, receiver_cpu=recv_cpu,
        policy=RingPolicy(**policy),
    )
    done = []
    total = n_send * iters

    def producer(t):
        core = sender_cpu.core(t)
        for i in range(iters):
            yield from rb.send(core, (t, i), sizes[(t + i) % len(sizes)])
            done.append(eng.now)

    def consumer(t, count):
        core = recv_cpu.core(t)
        for _ in range(count):
            got = yield from rb.recv(core)
            assert got is not None
            done.append(eng.now)

    counts = [total // n_recv] * n_recv
    counts[0] += total - sum(counts)
    procs = [eng.spawn(producer(t)) for t in range(n_send)]
    procs += [eng.spawn(consumer(t, counts[t])) for t in range(n_recv)]
    eng.run()
    assert all(p.ok for p in procs)
    assert len(done) == 2 * total
    return eng, done, rb.stats, sender_cpu.coherence, recv_cpu.coherence


# (id, args, kwargs, events_processed, completion-time digest,
#  RingStats (enqueues, dequeues, would_blocks, pcie_tx, dma_copies,
#  memcpy_copies), sender and receiver CoherenceStats (local_hits,
#  line_transfers, atomics, wakeups))
PINS = [
    (
        "fig09-lazy-phi2host", ("phi2host", (64,)), {}, 2212,
        "204113e5d338a67b1765cd1dba7fa05f07a912044c8136298fd323634401dcad",
        (48, 48, 10, 100, 0, 48), (46, 320, 52, 44), (46, 284, 97, 26),
    ),
    (
        "fig09-lazy-host2phi-small-ring", ("host2phi", (64, 512)),
        {"ring": 2 * KB}, 3520,
        "f53f55f679a40705b5e2ec0dca6d422d6fb86ce45728506d062e85638c5ceb15",
        (48, 48, 73, 195, 0, 48), (60, 649, 136, 83), (78, 274, 94, 31),
    ),
    (
        "fig09-eager-phi2host", ("phi2host", (64,)),
        {"lazy_update": False}, 2455,
        "e9934ef5506d095286b02f12eadd74034e0b3944befb20ab761869578b83fcae",
        (48, 48, 4, 164, 0, 48), (46, 320, 52, 44), (44, 357, 54, 50),
    ),
    (
        "fig09-eager-host2phi", ("host2phi", (64,)),
        {"lazy_update": False}, 2416,
        "3987bac2225021c5352055b0686927d592b0c510ccd69b3c4e66760f4cadb349",
        (48, 48, 0, 154, 0, 48), (46, 323, 53, 45), (62, 335, 58, 53),
    ),
    (
        "fig10-dma-phi2host", ("phi2host", (64 * KB,)),
        {"copy_mode": "dma", "iters": 4}, 1201,
        "017f15ce896258cb2cf3e47007d432ee87dd6de1fdb6a88adcf2b818d4517d1c",
        (24, 24, 7, 62, 24, 0), (30, 156, 37, 22), (26, 119, 55, 7),
    ),
    (
        "fig10-adaptive-host2phi", ("host2phi", (512, 4 * KB, 32 * KB)),
        {"iters": 6}, 1382,
        "60e2adc23d4a59dcc292e6938525a9a18de78fdf5813853191e5eafbd7a91c95",
        (36, 36, 0, 83, 12, 24), (43, 190, 58, 22), (40, 135, 66, 8),
    ),
    (
        "mcs-phi2host", ("phi2host", (64, 2 * KB)),
        {"combining": False}, 2170,
        "556b157f43007815963912bb7560a613f83227ed6afe0b4694fef56c94325608",
        (48, 48, 2, 152, 24, 24), (50, 379, 49, 47), (190, 153, 92, 13),
    ),
    (
        "mcs-eager-host2phi", ("host2phi", (64,)),
        {"combining": False, "lazy_update": False}, 2496,
        "f3add786f623309163ccb2498c2dfa0a3edf75f6836b56816f507ec3d36d40a0",
        (48, 48, 0, 240, 0, 48), (50, 379, 49, 47), (50, 379, 49, 47),
    ),
]


@pytest.mark.parametrize(
    "args, kwargs, events, digest, ring, sender, receiver",
    [p[1:] for p in PINS],
    ids=[p[0] for p in PINS],
)
def test_ring_fingerprint(args, kwargs, events, digest, ring, sender, receiver):
    eng, times, ring_stats, send_coh, recv_coh = pcie_ring(*args, **kwargs)
    assert (
        eng.events_processed, _digest(times), _ring_totals(ring_stats),
        _coherence_totals(send_coh), _coherence_totals(recv_coh),
    ) == (events, digest, ring, sender, receiver)
