"""Order fingerprints: three small seeded scenarios, pinned exactly.

Each scenario drives a fresh system through its public entry points
and records the simulated latency of every operation.  The test pins
``Engine.events_processed`` at the end of the measured region and a
SHA-256 digest of the per-op latencies.  A change to the simulator's
hot path that keeps every yield, every value and every state change in
the same order leaves both untouched; a change that reorders one
wake-up moves the entry count or some latency and fails here.

The pins are simulated quantities only, so they hold on any host.
"""

import hashlib
import random

import pytest

from repro.apps import KvClient, KvShard
from repro.core import SolrosConfig, SolrosSystem
from repro.fs import O_CREAT, O_RDWR
from repro.hw import KB, MB
from repro.net.testbed import NetTestbed
from repro.sim import Engine


def _digest(latencies):
    return hashlib.sha256(",".join(map(str, latencies)).encode()).hexdigest()


def _run_threads(eng, threads):
    procs = [eng.spawn(gen, name=f"t{i}") for i, gen in enumerate(threads)]
    eng.run()
    for proc in procs:
        assert proc.ok, proc.value


def net_kv_slice():
    """4 clients, connection-per-request get/put (1 in 10) over 2 Phi
    shards behind the shared listening socket."""
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=2))
    tb = NetTestbed(eng, system.machine, seed=3)
    proxy = tb.solros_proxy()
    shards = []
    for i in range(2):
        dp = system.dataplane(i)
        shard = KvShard(eng, dp, proxy.attach(dp), i)
        shard.start()
        shards.append(shard)
    lat = [[] for _ in range(4)]

    def client(c):
        rng = random.Random(f"fingerprint/net-kv/{c}")
        kv = KvClient(tb.client, tb.client_cpu)
        for i in range(60):
            key = f"k{rng.randrange(24)}"
            t0 = eng.now
            if i % 10 == c:
                reply = yield from kv.put(key, f"{key}/{c}/{i}")
            else:
                reply = yield from kv.get(key)
            assert reply[0] in ("ok", "miss")
            lat[c].append(eng.now - t0)

    _run_threads(eng, [client(c) for c in range(4)])
    return eng, [x for per in lat for x in per]


def p2p_reads():
    """4 threads on the NUMA-local Phi: 512 KB preads (NVMe->Phi P2P)
    with one 128 KB pwrite in four, after seeded think times."""
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=1))
    dp = system.dataplane(0)
    cores = dp.app_cores(4)
    fs = dp.fs
    io, size = 512 * KB, 4 * MB

    def populate(core):
        fd = yield from fs.open(core, "/p2p", O_CREAT | O_RDWR)
        yield from fs.pwrite(core, fd, 0, length=size)
        yield from fs.close(core, fd)

    eng.run_process(populate(cores[0]))
    lat = [[] for _ in range(4)]

    def thread(t):
        rng = random.Random(f"fingerprint/p2p/{t}")
        core = cores[t]
        fd = yield from fs.open(core, "/p2p", O_RDWR)
        for i in range(16):
            yield int(rng.expovariate(1 / 20_000))
            off = rng.randrange((size - io) // (4 * KB)) * 4 * KB
            t0 = eng.now
            if i % 4 == 3:
                n = yield from fs.pwrite(core, fd, off, length=128 * KB)
                assert n == 128 * KB
            else:
                data = yield from fs.pread(core, fd, io, off)
                assert len(data) == io
            lat[t].append(eng.now - t0)
        yield from fs.close(core, fd)

    _run_threads(eng, [thread(t) for t in range(4)])
    assert system.control.fs_proxy.stats.p2p_reads > 0
    return eng, [x for per in lat for x in per]


def buffered_small_mix():
    """4 threads on the cross-NUMA Phi (buffered path): 4 KB reads over
    a file twice the buffer cache, 4 KB writes, open/close, stat and
    create/close/unlink."""
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=32, buffer_cache_bytes=256 * KB
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=3))
    dp = system.dataplane(2)
    cores = dp.app_cores(4)
    fs = dp.fs
    size = 512 * KB

    def populate(core):
        fd = yield from fs.open(core, "/ws", O_CREAT | O_RDWR)
        yield from fs.pwrite(core, fd, 0, bytes(range(256)) * (size // 256))
        yield from fs.close(core, fd)
        for i in range(4):
            fd = yield from fs.open(core, f"/s{i}", O_CREAT | O_RDWR)
            yield from fs.pwrite(core, fd, 0, b"s" * 200)
            yield from fs.close(core, fd)

    eng.run_process(populate(cores[0]))
    lat = [[] for _ in range(4)]

    def thread(t):
        rng = random.Random(f"fingerprint/small/{t}")
        core = cores[t]
        fd = yield from fs.open(core, "/ws", O_RDWR)
        for i in range(30):
            kind = rng.choices(
                ("read", "write", "open", "stat", "create"), (50, 30, 10, 8, 7)
            )[0]
            off = rng.randrange(size // (4 * KB)) * 4 * KB
            t0 = eng.now
            if kind == "read":
                data = yield from fs.pread(core, fd, 4 * KB, off)
                assert len(data) == 4 * KB
            elif kind == "write":
                yield from fs.pwrite(core, fd, off, bytes([t]) * (4 * KB))
            elif kind == "open":
                sfd = yield from fs.open(core, f"/s{rng.randrange(4)}", O_RDWR)
                yield from fs.close(core, sfd)
            elif kind == "stat":
                st = yield from fs.stat(core, f"/s{rng.randrange(4)}")
                assert st["size"] == 200
            else:
                path = f"/tmp{t}-{i}"
                tfd = yield from fs.open(core, path, O_CREAT | O_RDWR)
                yield from fs.close(core, tfd)
                yield from fs.unlink(core, path)
            lat[t].append(eng.now - t0)
        yield from fs.close(core, fd)

    _run_threads(eng, [thread(t) for t in range(4)])
    return eng, [x for per in lat for x in per]


# (scenario, ops, events_processed, now, latency digest)
PINS = [
    (
        net_kv_slice, 240, 62054, 7185142,
        "5f621c2403792a63183617a6ea6388a7485bd7f7fa20414654c2b82235519f38",
    ),
    (
        p2p_reads, 64, 10319, 15831534,
        "32facf41942912706e0bdbebeba09e6f2452af1a03c232327d51e3586b08b0ac",
    ),
    (
        buffered_small_mix, 120, 19144, 4086736,
        "3619e1622abf3a28df7c58a83a0acf627989f0b96b33c2079bd9cddc844dea42",
    ),
]


@pytest.mark.parametrize(
    "scenario, ops, events, now, digest", PINS, ids=[p[0].__name__ for p in PINS]
)
def test_order_fingerprint(scenario, ops, events, now, digest):
    eng, latencies = scenario()
    assert len(latencies) == ops
    assert (eng.events_processed, eng.now, _digest(latencies)) == (
        events, now, digest
    )
