"""Contended coherence fingerprints: pinned exactly.

perfbench's workloads rarely queue on a cache line, so the contended
paths of the coherence model (a busy line's FIFO of waiters, a write
that wakes many spinners, a combining queue that hands its role on)
get pinned here.  Each scenario records the simulated completion time
of every operation; the test pins ``Engine.events_processed``, a
SHA-256 digest of those times and the ``CoherenceStats`` totals.  A
change to ``MemCell`` or the combining queue that keeps every yield,
every value and every grant in the same order leaves all three
untouched.

The pins are simulated quantities only, so they hold on any host.
"""

import hashlib

import pytest

from repro.hw import build_machine
from repro.sim import Engine
from repro.sim.primitives import WouldBlock
from repro.transport import RingBuffer, TwoLockQueue


def _digest(times):
    return hashlib.sha256(",".join(map(str, times)).encode()).hexdigest()


def _totals(stats):
    return (stats.local_hits, stats.line_transfers, stats.atomics, stats.wakeups)


def fig08_design(algo, n_threads, iters=12):
    """Fig. 8's enqueue-dequeue pairs on one Phi: the combining ring
    (``solros``) or a two-lock queue under a ticket or MCS lock."""
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    done = []
    if algo == "solros":
        rb = RingBuffer(
            eng, m.fabric, 1 << 20,
            master_cpu=phi, sender_cpu=phi, receiver_cpu=phi,
        )

        def pair(core, i):
            yield from rb.send(core, i, 64)
            got = yield from rb.recv(core)
            assert got is not None

    else:
        q = TwoLockQueue(eng, phi, capacity=1 << 14, lock_algo=algo)

        def pair(core, i):
            assert (yield from q.enqueue(core, i))
            while True:
                try:
                    yield from q.dequeue(core)
                    return
                except WouldBlock:
                    yield 1_000

    def worker(t):
        core = phi.core(t)
        for i in range(iters):
            yield from pair(core, i)
            done.append(eng.now)

    procs = [eng.spawn(worker(t)) for t in range(n_threads)]
    eng.run()
    assert all(p.ok for p in procs)
    assert len(done) == n_threads * iters
    return eng, done, phi.coherence


def wake_storm(n_spinners=16, rounds=6):
    """One writer bumps a flag line; 16 cores spin on it with
    ``wait_until``, so each write wakes all of them at once.  Each
    spinner then acknowledges with an atomic on a shared counter line
    (a queue of exclusive requests on one busy line), and the writer
    spins on the counter until every spinner has acknowledged."""
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    flag = phi.new_cell(0, name="storm.flag")
    acks = phi.new_cell(0, name="storm.acks")
    done = []

    def spinner(t):
        core = phi.core(1 + t)
        for r in range(1, rounds + 1):
            yield from flag.wait_until(core, lambda v, r=r: v >= r)
            yield from acks.fetch_and_add(core, 1)
            done.append(eng.now)

    def writer():
        core = phi.core(0)
        for r in range(1, rounds + 1):
            yield 300
            yield from flag.store(core, r)
            want = r * n_spinners
            yield from acks.wait_until(core, lambda v, want=want: v >= want)
            done.append(eng.now)

    procs = [eng.spawn(spinner(t)) for t in range(n_spinners)]
    procs.append(eng.spawn(writer()))
    eng.run()
    assert all(p.ok for p in procs)
    assert acks.peek() == rounds * n_spinners
    return eng, done, phi.coherence


# (id, scenario, args, events_processed, completion-time digest,
#  CoherenceStats (local_hits, line_transfers, atomics, wakeups))
PINS = [
    (
        "fig08-solros-8", fig08_design, ("solros", 8), 3816,
        "79623a694c5dfefce86be0f30155c25b1d162725ae3fa786710d42af3039354b",
        (183, 1019, 283, 107),
    ),
    (
        "fig08-solros-61", fig08_design, ("solros", 61), 29784,
        "a337389b410e90780002d08463c6106a50951b05ffad244df95777e3b3ed2a4b",
        (1366, 8102, 2040, 907),
    ),
    (
        "fig08-ticket-8", fig08_design, ("ticket", 8), 5168,
        "fc03f6c0edbb47ce1c092a727466f6bb0b8b03b7d925c67433560f9394605a6a",
        (192, 1720, 384, 376),
    ),
    (
        "fig08-ticket-61", fig08_design, ("ticket", 61), 192410,
        "8bdb76d3e1b47d4f9c65555cd8d159f7a55b8454ff3602b774e3c8aeda8298a2",
        (1464, 51366, 2928, 41118),
    ),
    (
        "fig08-mcs-8", fig08_design, ("mcs", 8), 4534,
        "31eb7b06e55b09725309736287bf8ce2a88ebbff903f904ed839ee39468eba80",
        (466, 1547, 481, 95),
    ),
    (
        "fig08-mcs-61", fig08_design, ("mcs", 61), 41913,
        "f25b57fef4db2916dbc3f03cf76879fbec9633179a1a8b2ada4777b4a08f22f8",
        (1659, 15735, 2995, 1404),
    ),
    (
        "wake-storm-16", wake_storm, (), 812,
        "1d2c7fd8fe706793f90ec710785f6d1080715afe41ba97d1b03c8fe5e9606e95",
        (85, 227, 96, 108),
    ),
]


@pytest.mark.parametrize(
    "scenario, args, events, digest, totals",
    [p[1:] for p in PINS],
    ids=[p[0] for p in PINS],
)
def test_coherence_fingerprint(scenario, args, events, digest, totals):
    eng, times, stats = scenario(*args)
    assert (eng.events_processed, _digest(times), _totals(stats)) == (
        events, digest, totals
    )
