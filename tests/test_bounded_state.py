"""Generic bounded-state check: no container in a running system may
grow with the number of operations the system has served.

Each workload runs on a fresh system at N and again at 4N operations.
The test then walks every object reachable from the system's roots
(attributes, slots, container items, closures and suspended process
frames) and records the longest container under each name, where a
name is ``Owner.attr`` with one ``[]`` per level of nesting.  A
container scales with N if it holds more than 2 × its N-run length +
64 entries after the 4N run: growth in proportion to N quadruples,
while a list pruned by doubling (``ProcessGroup``) stays under twice
its live count plus 64.

Opt-in recorders may grow; they are listed in ``ALLOWED`` and each
one is switched on in some workload, so a stale name fails the test.
Containers with a fixed cap are listed in ``CAPPED`` and must stay at
or under it.  The workloads draw on fixed sets of files and keys, so
the data they store does not grow with N.
"""

import types
from collections import deque

import pytest

from repro.apps import KvClient, KvShard
from repro.core import SolrosConfig, SolrosSystem
from repro.faults import FaultPlan, NvmeFaults, ProxyFaults, RingFaults
from repro.fs import O_CREAT, O_RDWR
from repro.hw import KB
from repro.net.testbed import NetTestbed
from repro.sched import SchedConfig
from repro.sim import Engine
from repro.transport import RemoteCallError
from repro.transport.rpc import DEDUP_CACHE_SIZE

SCALE = 4
SLACK = 64

# Opt-in recorders: off unless asked for, and a full record when on.
ALLOWED = {
    "RequestScheduler.decision_log",  # SchedConfig(record_decisions=True)
    "Tracer.spans",                   # SolrosConfig(trace=True)
    "Gauge.samples",                  # SolrosConfig(trace=True)
}

# Containers with a fixed cap: length at or under the cap.
CAPPED = {
    "RpcChannel._dedup_done": DEDUP_CACHE_SIZE,
}

_LEAVES = (
    str, bytes, bytearray, memoryview, int, float, complex, bool,
    type(None), range, type, types.ModuleType, types.CodeType,
    types.BuiltinFunctionType, types.MethodWrapperType,
)
_CONTAINERS = (list, tuple, deque, set, frozenset, dict)


def _fields(obj):
    """``(name, value)`` for every instance attribute and slot."""
    fields = dict(getattr(obj, "__dict__", None) or {})
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                fields[name] = getattr(obj, name)
    return fields.items()


def _children(obj, name):
    """What ``obj`` refers to, each with the name it is recorded under."""
    if isinstance(obj, _CONTAINERS):
        inner = name + "[]"
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield key, inner
                yield value, inner
        else:
            for item in obj:
                yield item, inner
    elif isinstance(obj, types.MethodType):
        yield obj.__self__, name
    elif isinstance(obj, types.FunctionType):
        for var, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
            try:
                yield cell.cell_contents, f"{obj.__qualname__}.{var}"
            except ValueError:  # empty cell
                pass
    elif isinstance(obj, types.GeneratorType):
        frame = obj.gi_frame
        if frame is not None:
            for var, value in frame.f_locals.items():
                yield value, f"{obj.__qualname__}.{var}"
        if obj.gi_yieldfrom is not None:
            yield obj.gi_yieldfrom, name
    else:
        owner = type(obj).__name__
        for attr, value in _fields(obj):
            yield value, f"{owner}.{attr}"


def container_lengths(roots):
    """The longest reachable container under each name."""
    lengths = {}
    seen = set()
    stack = [(root, type(root).__name__) for root in roots]
    while stack:
        obj, name = stack.pop()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _CONTAINERS):
            lengths[name] = max(lengths.get(name, 0), len(obj))
        stack.extend(_children(obj, name))
    return lengths


def growing(small, large):
    """Names whose length after the SCALE × N run says they scale
    with N, mapped to their two lengths."""
    return {
        name: (small.get(name, 0), n)
        for name, n in large.items()
        if n > 2 * small.get(name, 0) + SLACK
    }


# ----------------------------------------------------------------------
# Workloads: each boots a fresh system, serves ``n`` operations and
# returns the roots to walk.
# ----------------------------------------------------------------------
FS_FILES = 4
FS_FILE_BYTES = 64 * KB
FS_IO = 16 * KB


def fs_workload(n, phi_index, trace=False):
    """Open/pread-or-pwrite/close over a fixed set of small files.
    phi0 is NUMA-local to the SSD (P2P); phi2 is across QPI (buffered)."""
    eng = Engine()
    cfg = SolrosConfig(disk_blocks=8192, max_inodes=16, trace=trace)
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=phi_index + 1))
    phi = system.dataplane(phi_index)
    core = phi.core(0)

    def main(eng):
        for f in range(FS_FILES):
            fd = yield from phi.fs.open(core, f"/g{f}", O_CREAT | O_RDWR)
            yield from phi.fs.pwrite(core, fd, 0, bytes(FS_FILE_BYTES))
            yield from phi.fs.close(core, fd)
        for i in range(n):
            fd = yield from phi.fs.open(core, f"/g{i % FS_FILES}", O_RDWR)
            offset = (i * FS_IO) % FS_FILE_BYTES
            if i % 3:
                data = yield from phi.fs.pread(core, fd, FS_IO, offset)
                assert len(data) == FS_IO
            else:
                yield from phi.fs.pwrite(core, fd, offset, b"w" * FS_IO)
            yield from phi.fs.close(core, fd)

    eng.run_process(main(eng))
    stats = system.control.fs_proxy.stats
    assert (stats.p2p_reads > 0) == (phi_index == 0)
    return [eng, system]


KV_SHARDS = 2
KV_KEYS = 16


def kv_workload(n):
    """Connection-per-request get/put on a fixed key space through the
    shared listening socket."""
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=KV_SHARDS))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    shards = []
    for i in range(KV_SHARDS):
        api = proxy.attach(system.dataplane(i))
        shard = KvShard(eng, system.dataplane(i), api, i)
        shard.start()
        shards.append(shard)
    client = KvClient(tb.client, tb.client_cpu)

    def main(eng):
        for i in range(n):
            key = f"k{i % KV_KEYS}"
            if i % 10 == 0:
                reply = yield from client.put(key, str(i))
            else:
                reply = yield from client.get(key)
            assert reply[0] in ("ok", "miss")

    eng.run_process(main(eng))
    assert sum(s.stats["get"] + s.stats["put"] for s in shards) == n
    return [eng, system, tb, proxy, shards, client]


SCHED_BURST = 8


def sched_workload(n):
    """``n`` bursts of concurrent reads, each far enough apart that the
    elastic workers it grew retire before the next."""
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192,
        max_inodes=16,
        sched=SchedConfig(
            "fifo", workers_min=1, workers_max=4,
            grow_depth_per_worker=1, idle_shrink_ns=20_000,
            record_decisions=True,
        ),
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    phi = system.dataplane(0)

    def reader(core, fd):
        data = yield from phi.fs.pread(core, fd, FS_IO, 0)
        assert len(data) == FS_IO

    def main(eng):
        core = phi.core(0)
        fd = yield from phi.fs.open(core, "/s", O_CREAT | O_RDWR)
        yield from phi.fs.pwrite(core, fd, 0, bytes(FS_IO))
        for _ in range(n):
            yield eng.all_of(
                eng.spawn(reader(phi.core(1 + j), fd))
                for j in range(SCHED_BURST)
            )
            yield 100_000  # past idle_shrink_ns: the elastic workers retire
        yield from phi.fs.close(core, fd)

    eng.run_process(main(eng))
    pool = system.scheduler.pool
    assert pool.grown >= 2 * n and pool.shrunk == pool.grown
    return [eng, system]


CHAOS_FILE = "/chaos.dat"
CHAOS_FILE_BYTES = 128 * KB


def fault_workload(n):
    """Reads and writes under a seeded plan with every fault class,
    including a proxy crash and restart."""
    plan = FaultPlan(
        seed=11,
        nvme=NvmeFaults(read_error_rate=0.2, latency_spike_rate=0.3),
        ring=RingFaults(stall_rate=0.1, pcie_degrade_rate=0.2),
        proxy=ProxyFaults(crash_at_requests=(4,), restart_after_ns=300_000),
        rpc_timeout_ns=500_000,
    )
    eng = Engine()
    cfg = SolrosConfig(disk_blocks=4096, max_inodes=32, fault_plan=plan)
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    system.faults.armed = False
    eng.run_process(
        system.control.fs.preallocate(
            system.machine.host_core(0), CHAOS_FILE, CHAOS_FILE_BYTES
        )
    )
    system.faults.armed = True
    phi = system.dataplane(0)
    core = phi.core(0)
    outcomes = {"ok": 0, "failed": 0}

    def main(eng):
        fd = yield from phi.fs.open(core, CHAOS_FILE, O_RDWR)
        for i in range(n):
            offset = (i * FS_IO) % CHAOS_FILE_BYTES
            try:
                if i % 2:
                    yield from phi.fs.pread(core, fd, FS_IO, offset)
                else:
                    yield from phi.fs.pwrite(core, fd, offset, length=FS_IO)
                outcomes["ok"] += 1
            except RemoteCallError:
                outcomes["failed"] += 1
        yield from phi.fs.close(core, fd)

    eng.run_process(main(eng))
    assert outcomes["ok"] > outcomes["failed"]
    assert sum(system.faults_state()["counts"].values()) > 0
    return [eng, system]


# (workload, N, the allowed or capped containers it grows)
WORKLOADS = [
    pytest.param(
        lambda n: fs_workload(n, 0, trace=True), 60,
        {"Tracer.spans", "Gauge.samples"}, id="fs-p2p-traced",
    ),
    pytest.param(lambda n: fs_workload(n, 2), 60, set(), id="fs-buffered"),
    pytest.param(kv_workload, 150, set(), id="net-kv"),
    pytest.param(
        sched_workload, 40, {"RequestScheduler.decision_log"},
        id="sched-elastic",
    ),
    pytest.param(
        fault_workload, 40, {"RpcChannel._dedup_done"}, id="faults"
    ),
]


@pytest.mark.parametrize("workload, n, expected", WORKLOADS)
def test_no_container_grows_with_operations(workload, n, expected):
    small = container_lengths(workload(n))
    large = container_lengths(workload(SCALE * n))
    grown = growing(small, large)
    leaks = {
        name: lengths for name, lengths in grown.items()
        if name not in ALLOWED and name not in CAPPED
    }
    assert leaks == {}
    assert set(grown) == expected
    for name, cap in CAPPED.items():
        assert large.get(name, 0) <= cap, name


def test_walker_flags_a_leak_and_spares_a_pruned_list():
    class Owner:
        def __init__(self, n):
            self.leak = list(range(n))
            # A doubling-pruned list: between its live count (20) and
            # twice that plus 64, whatever n is.
            self.pruned = list(range(20 + (n * 7) % 80))
            self.fixed = {"a": [1, 2, 3]}

    small = container_lengths([Owner(100)])
    large = container_lengths([Owner(400)])
    assert growing(small, large) == {"Owner.leak": (100, 400)}
