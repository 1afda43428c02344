"""The experiment runners behind every figure, table and ablation.

Each runner builds a fresh engine + machine (full isolation and
determinism), runs one configuration, and returns scalar results.
:mod:`repro.bench.claims` sweeps these over the paper's parameter
grids, prints the tables and checks the paper's claims.

Stacks (file system):

* ``host``          — host application on the host ExtFS (upper bound).
* ``solros``        — Phi app on the Solros stub/proxy, Phi on NUMA 0
                      (P2P path).
* ``solros-xnuma``  — Phi on NUMA 1: the policy picks buffered mode.
* ``solros-xnuma-p2p`` — same Phi, policy forced to P2P: the relayed
                      300 MB/s path of Figure 1(a)'s caption.
* ``virtio``        — Phi-Linux ext-FS over the host-relayed virtio
                      block device.
* ``nfs``           — Phi-Linux NFS client over TCP-over-PCIe.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro

from ..apps import (
    FeatureDataset,
    ImageSearch,
    KvClient,
    KvShard,
    SyntheticCorpus,
    TextIndexer,
    key_shard,
)
from ..core import BUFFERED, P2P, SolrosConfig, SolrosSystem
from ..fs import BlockDevice, ExtFS, LocalFsBackend, NfsClientBackend, O_RDWR, Vfs, build_virtio_fs
from ..hw import KB, MB, build_machine, default_params
from ..net import RoundRobinBalancer, SocketAddr
from ..net.testbed import NetTestbed
from ..sched import SchedConfig
from ..sim import Engine
from ..transport import RingBuffer, RingPolicy, TwoLockQueue
from ..sim.primitives import WouldBlock

__all__ = [
    "FS_STACKS",
    "FsSetup",
    "setup_fs_stack",
    "fs_random_io",
    "pcie_transfer_mbps",
    "ringbuf_local_pairs_per_sec",
    "ringbuf_pcie_ops_per_sec",
    "ringbuf_copy_bandwidth",
    "tcp_echo_samples",
    "net_stream_throughput",
    "controlplane_aggregate_read",
    "sched_qos_overload",
    "sched_qos_unloaded",
    "faults_chaos_run",
    "SHARED_SOCKET_REQUESTS",
    "shared_socket_rate",
    "kvstore_ops_per_sec",
    "textindex_seconds",
    "imagesearch_run",
    "ring_combining_pairs_per_sec",
    "datapath_gbps",
    "COALESCE_FRAGMENTS",
    "nvme_coalescing_run",
    "shared_cache_two_readers",
    "prefetch_scan",
    "count_loc",
]

FS_STACKS = ("host", "solros", "solros-xnuma", "solros-xnuma-p2p", "virtio", "nfs")

BENCH_FILE = "/bench.dat"
DEFAULT_FILE_MB = 192
DEFAULT_DISK_BLOCKS = 96 * 1024  # 384 MB


class FsSetup:
    """One configured stack ready to run a workload."""

    def __init__(
        self, engine, vfs, cores, system=None, machine=None, fs=None, obs=None
    ):
        self.engine = engine
        self.vfs = vfs
        self.cores = cores
        self.system = system
        self.machine = machine
        self.fs = fs  # the underlying ExtFS (for preallocation)
        self.obs = obs  # ObservabilityHub (Solros stacks; None otherwise)


def setup_fs_stack(
    stack: str,
    max_threads: int = 61,
    disk_blocks: int = DEFAULT_DISK_BLOCKS,
    cache_bytes: Optional[int] = 256 * MB,
    trace: bool = False,
    overrides: Optional[dict] = None,
) -> FsSetup:
    """Build one of the evaluation's file-system configurations.

    ``overrides`` are extra :class:`SolrosConfig` fields (Solros stacks
    only) — e.g. ``{"fault_plan": FaultPlan(...)}`` for chaos runs.
    """
    eng = Engine()
    if stack == "host":
        m = build_machine(eng)
        dev = BlockDevice(m.nvme, disk_blocks)

        def boot(eng):
            fs = yield from ExtFS.mkfs(m.host_core(0), dev, "numa0", max_inodes=64)
            return fs

        fs = eng.run_process(boot(eng))
        cores = [
            m.host_sockets[i // 24].core(i % 24)
            for i in range(min(max_threads, 48))
        ]
        return FsSetup(eng, Vfs(LocalFsBackend(fs)), cores, machine=m, fs=fs)

    if stack.startswith("solros"):
        phi_index = 2 if "xnuma" in stack else 0
        cfg = SolrosConfig(
            disk_blocks=disk_blocks,
            max_inodes=64,
            buffer_cache_bytes=cache_bytes,
            trace=trace,
            **(overrides or {}),
        )
        system = SolrosSystem(eng, cfg)
        eng.run_process(system.boot(n_phis=phi_index + 1))
        if stack.endswith("p2p"):
            system.control.policy.force_mode = P2P
        dp = system.dataplane(phi_index)
        cores = dp.app_cores(min(max_threads, 58))
        return FsSetup(
            eng, dp.fs, cores, system=system, machine=system.machine,
            fs=system.control.fs, obs=system.obs,
        )

    if stack == "virtio":
        m = build_machine(eng)

        def boot(eng):
            fs, dev = yield from build_virtio_fs(
                eng, m.nvme, m.fabric, m.phi(0), m.host, disk_blocks,
                format_core=m.phi_core(0, 60),
            )
            return fs

        fs = eng.run_process(boot(eng))
        cores = [m.phi_core(0, i) for i in range(min(max_threads, 58))]
        return FsSetup(eng, Vfs(LocalFsBackend(fs)), cores, machine=m, fs=fs)

    if stack == "nfs":
        m = build_machine(eng)
        dev = BlockDevice(m.nvme, disk_blocks)

        def boot(eng):
            fs = yield from ExtFS.mkfs(m.host_core(0), dev, "numa0", max_inodes=64)
            return fs

        host_fs = eng.run_process(boot(eng))
        backend = NfsClientBackend(eng, m.fabric, m.phi(0), host_fs, m.host)
        cores = [m.phi_core(0, i) for i in range(min(max_threads, 58))]
        return FsSetup(eng, Vfs(backend), cores, machine=m, fs=host_fs)

    raise ValueError(f"unknown stack: {stack!r}")


def _populate_core(setup: FsSetup, stack: str):
    """A core that writes straight into the backing FS (setup, not
    measured)."""
    if stack == "virtio":
        return setup.cores[0]
    return (setup.machine or setup.system.machine).host_core(0)


def fs_random_io(
    stack: str,
    block_size: int,
    n_threads: int,
    op: str = "read",
    file_mb: int = DEFAULT_FILE_MB,
    total_mb: Optional[int] = None,
    seed: int = 1,
    overrides: Optional[dict] = None,
) -> float:
    """Random read/write throughput in GB/s (the Fig. 1a/11/12 core)."""
    setup = setup_fs_stack(stack, max_threads=n_threads, overrides=overrides)
    eng = setup.engine
    # Stacks cap usable cores (e.g. the Phi reserves dispatcher cores):
    # clamp like a real run would.
    n_threads = min(n_threads, len(setup.cores))
    file_bytes = file_mb * MB
    # Preallocate the benchmark file directly on the backing FS (this
    # is setup, not the measured region).
    eng.run_process(
        setup.fs.preallocate(_populate_core(setup, stack), BENCH_FILE, file_bytes)
    )

    if total_mb is None:
        total_mb = max(16, min(64, n_threads * 2 * block_size // MB + 8))
    ops_total = max(n_threads, (total_mb * MB) // block_size)
    ops_per_thread = max(1, ops_total // n_threads)
    rng = random.Random(seed)
    n_blocks = file_bytes // block_size
    # Sample offsets without replacement where possible: the paper's
    # fio runs over a 4 GB file make re-touches (and hence cache hits)
    # negligible, and our file is much smaller.
    need = ops_per_thread * n_threads
    if need <= n_blocks:
        pool = rng.sample(range(n_blocks), need)
    else:
        pool = [rng.randrange(n_blocks) for _ in range(need)]
    offsets_iter = iter(pool)
    moved = [0]

    def worker(core, offsets):
        fd = yield from setup.vfs.open(core, BENCH_FILE, O_RDWR)
        for offset in offsets:
            if op == "read":
                data = yield from setup.vfs.pread(core, fd, block_size, offset)
                moved[0] += len(data)
            else:
                n = yield from setup.vfs.pwrite(
                    core, fd, offset, length=block_size
                )
                moved[0] += n
        yield from setup.vfs.close(core, fd)

    start = eng.now
    procs = []
    for t in range(n_threads):
        offsets = [
            next(offsets_iter) * block_size for _ in range(ops_per_thread)
        ]
        procs.append(eng.spawn(worker(setup.cores[t], offsets), name=f"fio{t}"))
    eng.run()
    if not all(p.ok for p in procs):
        bad = next(p for p in procs if not p.ok)
        raise bad.value
    elapsed = eng.now - start
    if setup.system is not None:
        setup.system.shutdown()
    return moved[0] / elapsed if elapsed else 0.0


# ----------------------------------------------------------------------
# Figure 4: raw PCIe characteristics
# ----------------------------------------------------------------------
def pcie_transfer_mbps(
    mechanism: str, initiator: str, direction: str, nbytes: int
) -> float:
    """One timed transfer host<->phi; returns MB/s.

    mechanism: 'dma' | 'memcpy'; initiator: 'host' | 'phi';
    direction: 'h2p' | 'p2h'.
    """
    eng = Engine()
    m = build_machine(eng)
    core = m.host_core(0) if initiator == "host" else m.phi_core(0, 0)
    src, dst = ("numa0", "phi0") if direction == "h2p" else ("phi0", "numa0")

    def main(eng):
        t0 = eng.now
        if mechanism == "dma":
            yield from m.fabric.dma_copy(core, src, dst, nbytes)
        elif mechanism == "memcpy":
            yield m.fabric.loadstore_copy(core, nbytes)
        else:
            raise ValueError(mechanism)
        return eng.now - t0

    elapsed = eng.run_process(main(eng))
    return nbytes / elapsed * 1000.0  # bytes/ns -> MB/s


# ----------------------------------------------------------------------
# Figure 8: local ring buffer vs two-lock queues
# ----------------------------------------------------------------------
def ringbuf_local_pairs_per_sec(
    algo: str, n_threads: int, iters: int = 50
) -> float:
    """Enqueue-dequeue pairs/s on a Phi-local queue (64 B elements)."""
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    if algo == "solros":
        rb = RingBuffer(
            eng, m.fabric, 1 << 20,
            master_cpu=phi, sender_cpu=phi, receiver_cpu=phi,
        )

        def worker(i):
            core = phi.core(i)
            for _ in range(iters):
                yield from rb.send(core, b"x", 64)
                yield from rb.recv(core)

    elif algo in ("ticket", "mcs"):
        q = TwoLockQueue(eng, phi, capacity=1 << 14, lock_algo=algo)

        def worker(i):
            core = phi.core(i)
            for _ in range(iters):
                ok = yield from q.enqueue(core, b"x")
                assert ok
                while True:
                    try:
                        yield from q.dequeue(core)
                        break
                    except WouldBlock:
                        yield 1_000

    else:
        raise ValueError(algo)

    procs = [eng.spawn(worker(i)) for i in range(n_threads)]
    eng.run()
    assert all(p.ok for p in procs)
    return n_threads * iters * 1e9 / eng.now


# ----------------------------------------------------------------------
# Figure 9: lazy vs eager control variables over PCIe
# ----------------------------------------------------------------------
def ringbuf_pcie_ops_per_sec(
    direction: str, lazy: bool, n_threads: int, iters: int = 40
) -> float:
    """64 B elements across PCIe; threads on both sides."""
    eng = Engine()
    m = build_machine(eng)
    phi, host = m.phi(0), m.host
    if direction == "phi2host":
        sender_cpu, recv_cpu, master = phi, host, phi
    elif direction == "host2phi":
        sender_cpu, recv_cpu, master = host, phi, host
    else:
        raise ValueError(direction)
    rb = RingBuffer(
        eng, m.fabric, 4 * MB,
        master_cpu=master, sender_cpu=sender_cpu, receiver_cpu=recv_cpu,
        policy=RingPolicy(lazy_update=lazy),
    )
    n_send = min(n_threads, len(sender_cpu.cores) - 2)
    n_recv = min(n_threads, len(recv_cpu.cores) - 2)
    total = n_send * iters

    def producer(i, count):
        core = sender_cpu.core(i)
        for _ in range(count):
            yield from rb.send(core, b"x", 64)

    def consumer(i, count):
        core = recv_cpu.core(i)
        for _ in range(count):
            yield from rb.recv(core)

    procs = [eng.spawn(producer(i, iters)) for i in range(n_send)]
    share = total // n_recv
    counts = [share] * n_recv
    counts[0] += total - share * n_recv
    procs += [eng.spawn(consumer(i, counts[i])) for i in range(n_recv)]
    eng.run()
    assert all(p.ok for p in procs)
    return total * 1e9 / eng.now


# ----------------------------------------------------------------------
# Figure 10: copy-mechanism bandwidth at varying element size
# ----------------------------------------------------------------------
def ringbuf_copy_bandwidth(
    direction: str,
    copy_mode: str,
    element_size: int,
    n_threads: int = 8,
    total_bytes: int = 32 * MB,
) -> float:
    """Unidirectional ring throughput in GB/s for one copy mechanism."""
    eng = Engine()
    m = build_machine(eng)
    phi, host = m.phi(0), m.host
    # Master at the sender (as in Fig. 10): the receiver pulls.
    if direction == "phi2host":
        sender_cpu, recv_cpu, master = phi, host, phi
    else:
        sender_cpu, recv_cpu, master = host, phi, host
    rb = RingBuffer(
        eng, m.fabric, max(8 * MB, 4 * element_size * n_threads),
        master_cpu=master, sender_cpu=sender_cpu, receiver_cpu=recv_cpu,
        policy=RingPolicy(copy_mode=copy_mode),
    )
    n_elems = max(n_threads, min(total_bytes // element_size, 400))
    per_thread = max(1, n_elems // n_threads)
    n_elems = per_thread * n_threads

    def producer(i):
        core = sender_cpu.core(i)
        for _ in range(per_thread):
            yield from rb.send(core, b"x", element_size)

    def consumer(i):
        core = recv_cpu.core(i)
        for _ in range(per_thread):
            yield from rb.recv(core)

    procs = [eng.spawn(producer(i)) for i in range(n_threads)]
    procs += [eng.spawn(consumer(i)) for i in range(n_threads)]
    eng.run()
    assert all(p.ok for p in procs)
    return n_elems * element_size / eng.now  # bytes/ns == GB/s


# ----------------------------------------------------------------------
# Figure 1(b) + network benches
# ----------------------------------------------------------------------
def _net_env(config: str, n_phis: int = 1):
    eng = Engine()
    if config == "solros":
        system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
        eng.run_process(system.boot(n_phis=n_phis))
        tb = NetTestbed(eng, system.machine)
        proxy = tb.solros_proxy()
        apis = [proxy.attach(system.dataplane(i)) for i in range(n_phis)]
        return eng, system.machine, tb, proxy, apis, system
    m = build_machine(eng)
    tb = NetTestbed(eng, m)
    return eng, m, tb, None, None, None


def tcp_echo_samples(
    config: str, n_messages: int = 200, msg_size: int = 64, seed: int = 0
) -> List[int]:
    """Round-trip latencies (ns) for a client↔server echo.

    config: 'host' (server on host), 'solros' (server on a Phi behind
    the Solros network service), 'phi-linux' (server on a bridged Phi).
    """
    eng, m, tb, proxy, apis, _system = _net_env(config)
    samples: List[int] = []
    port = 7000

    if config == "solros":
        phi_dp = _system.dataplane(0)
        server_core = phi_dp.core(0)

        def server(eng):
            listener = yield from apis[0].listen(server_core, port)
            sock = yield from listener.accept(server_core)
            while True:
                payload, n = yield from sock.recv(server_core)
                if payload is None:
                    return
                yield from sock.send(server_core, payload, n)

        target = "host"
    else:
        endpoint = tb.host if config == "host" else tb.phi_linux(0)
        server_core = (
            m.host_core(0) if config == "host" else m.phi_core(0, 0)
        )
        endpoint.listen(port)

        def server(eng):
            conn = yield from endpoint._listeners[port].accept(server_core)
            while True:
                payload, n = yield from conn.recv(server_core)
                if payload is None:
                    return
                yield from conn.send(server_core, payload, n)

        target = endpoint.name

    def client(eng):
        core = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(core, SocketAddr(target, port))
        for _ in range(n_messages):
            t0 = eng.now
            yield from conn.send(core, b"x" * msg_size, msg_size)
            yield from conn.recv(core)
            samples.append(eng.now - t0)
        yield from conn.close(core)

    eng.spawn(server(eng))
    proc = eng.spawn(client(eng))
    eng.run()
    assert proc.ok
    if proxy is not None:
        proxy.stop()
    return samples


def net_stream_throughput(
    config: str,
    msg_size: int,
    n_messages: int = 200,
    n_conns: int = 4,
) -> float:
    """Client → server streaming throughput in MB/s (reconstructed
    Figure 14: abstract reports 7× for network operations)."""
    eng, m, tb, proxy, apis, _system = _net_env(config)
    port = 7100
    done = [0]
    total_bytes = n_messages * msg_size * n_conns

    if config == "solros":
        phi_dp = _system.dataplane(0)
        listener_box: Dict = {}

        def setup_listener(eng):
            listener_box["l"] = yield from apis[0].listen(phi_dp.core(0), port)

        eng.run_process(setup_listener(eng))

        def server(conn_index):
            core = phi_dp.core(conn_index)
            sock = yield from listener_box["l"].accept(core)
            while True:
                payload, n = yield from sock.recv(core)
                if payload is None:
                    done[0] += 1
                    return

        target = "host"
    else:
        endpoint = tb.host if config == "host" else tb.phi_linux(0)
        endpoint.listen(port)

        def server(conn_index):
            core = (
                m.host_core(conn_index)
                if config == "host"
                else m.phi_core(0, conn_index)
            )
            conn = yield from endpoint._listeners[port].accept(core)
            while True:
                payload, n = yield from conn.recv(core)
                if payload is None:
                    done[0] += 1
                    return

        target = endpoint.name

    def client(j):
        core = tb.client_cpu.core(j % 16)
        conn = yield from tb.client.connect(core, SocketAddr(target, port))
        for _ in range(n_messages):
            yield from conn.send(core, b"x" * msg_size, msg_size)
        yield from conn.close(core)

    start = eng.now
    procs = [eng.spawn(server(i)) for i in range(n_conns)]
    procs += [eng.spawn(client(j)) for j in range(n_conns)]
    eng.run()
    assert all(p.ok for p in procs)
    assert done[0] == n_conns
    elapsed = eng.now - start
    if proxy is not None:
        proxy.stop()
    return total_bytes / elapsed * 1000.0  # MB/s


# ----------------------------------------------------------------------
# Figure 13: latency breakdown
# ----------------------------------------------------------------------
def fs_latency_breakdown(
    stack: str, block_size: int = 512 * KB, ops: int = 12
) -> Dict[str, float]:
    """Per-operation latency split (microseconds) for 512 KB random
    reads: file system vs block/transport vs storage (Figure 13(a)).

    For Solros the split is derived from repro.obs spans: the run is
    traced, and the ``fs`` and ``device`` categories' interval unions
    give the proxy's file-system and storage time (tracing never
    changes simulated time).  For the virtio baseline the storage term
    is probed with a raw NVMe read and the relay-transport term from
    the relay model, with the remainder attributed to the
    (Phi-resident) file system.
    """
    setup = setup_fs_stack(stack, max_threads=1, trace=True)
    eng = setup.engine
    file_bytes = 64 * MB
    alloc_core = (
        setup.cores[0]
        if stack == "virtio"
        else (setup.machine or setup.system.machine).host_core(0)
    )
    eng.run_process(setup.fs.preallocate(alloc_core, BENCH_FILE, file_bytes))
    rng = random.Random(3)
    n_blocks = file_bytes // block_size

    def run(eng):
        core = setup.cores[0]
        fd = yield from setup.vfs.open(core, BENCH_FILE)
        t0 = eng.now
        for _ in range(ops):
            offset = rng.randrange(n_blocks) * block_size
            yield from setup.vfs.pread(core, fd, block_size, offset)
        elapsed = eng.now - t0
        yield from setup.vfs.close(core, fd)
        return elapsed

    elapsed = eng.run_process(run(eng))
    total_us = elapsed / ops / 1000.0
    pages = (block_size + 4095) // 4096

    if stack.startswith("solros"):
        from ..fs.stub import STUB_BASE_UNITS, STUB_PAGE_UNITS

        phi = setup.system.machine.phi(0)
        stub_us = (
            (STUB_BASE_UNITS + STUB_PAGE_UNITS * pages)
            * phi.params.branchy_mult
            / 1000.0
        )
        # Per read: only the measured reads open fs/device spans (the
        # proxy also serves the Topen/Tclunk, which have none).
        split = setup.obs.tracer.category_union_ns()
        fs_us = split.get("fs", 0) / ops / 1000.0 + stub_us
        storage_us = split.get("device", 0) / ops / 1000.0
        transport_us = max(0.0, total_us - fs_us - storage_us)
        setup.system.shutdown()
    elif stack == "virtio":
        from ..fs.virtio import RELAY_BYTES_PER_NS

        # Probe: the same 512 KB as raw (uncoalesced) NVMe commands.
        probe_eng = Engine()
        m2 = build_machine(probe_eng)
        dev2 = BlockDevice(m2.nvme, 64 * 1024)

        def probe(eng):
            t0 = eng.now
            yield from dev2.submit_read(
                m2.host_core(0), [(0, block_size // 4096)], "numa0"
            )
            return eng.now - t0

        storage_us = probe_eng.run_process(probe(probe_eng)) / 1000.0
        transport_us = block_size / RELAY_BYTES_PER_NS / 1000.0
        fs_us = max(0.0, total_us - storage_us - transport_us)
    else:
        raise ValueError(f"no breakdown defined for stack {stack!r}")
    return {
        "filesystem": fs_us,
        "transport": transport_us,
        "storage": storage_us,
        "total": total_us,
    }


def net_latency_breakdown(config: str, n_messages: int = 60) -> Dict[str, float]:
    """64-byte echo RTT split (microseconds): server-side network-stack
    time vs everything else (proxy/transport/wire/client) —
    Figure 13(b)."""
    from ..net.tcp import (
        PHI_STACK_PENALTY,
        TCP_FIXED_UNITS,
        TCP_SEG_UNITS,
    )

    samples = tcp_echo_samples(config, n_messages=n_messages)
    # Drop jittery tails: use the median RTT.
    from ..sim.stats import percentile

    total_us = percentile(samples, 50) / 1000.0
    params = default_params()
    units = TCP_FIXED_UNITS + TCP_SEG_UNITS  # one message, one segment
    if config == "phi-linux":
        per_op = units * PHI_STACK_PENALTY * params.phi.branchy_mult
        stack_ns = 2 * per_op + params.phi.interrupt_ns  # rx + tx + irq
    elif config == "host":
        stack_ns = 2 * units * params.host.branchy_mult + params.host.interrupt_ns
    elif config == "solros":
        # Server-side stack runs on the *host* (that is the point).
        stack_ns = 2 * units * params.host.branchy_mult + params.host.interrupt_ns
    else:
        raise ValueError(config)
    stack_us = stack_ns / 1000.0
    return {
        "stack": min(stack_us, total_us),
        "transport": max(0.0, total_us - stack_us),
        "total": total_us,
    }


# ----------------------------------------------------------------------
# §6.3: control-plane scalability (reconstructed Figure 18)
# ----------------------------------------------------------------------
def controlplane_aggregate_read(
    n_phis: int,
    sched: Optional[SchedConfig] = None,
    threads_per_phi: int = 8,
    block_size: int = 512 * KB,
    ops_per_thread: int = 8,
) -> Dict:
    """Aggregate GB/s and per-read p50/p99 with ``n_phis``
    co-processors hammering the shared control plane at once.

    With ``sched`` the reads go through the control-plane scheduler,
    and the result also reports what the plain GB/s number hides:
    per-co-processor throughput share and the scheduler's accounting.
    """
    from ..sim.stats import percentile

    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=DEFAULT_DISK_BLOCKS, max_inodes=64, sched=sched
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=n_phis))
    file_bytes = 128 * MB
    host_core = system.machine.host_core(0)
    eng.run_process(
        system.control.fs.preallocate(host_core, BENCH_FILE, file_bytes)
    )
    rng = random.Random(7)
    n_blocks = file_bytes // block_size
    moved = [0]
    latencies: List[int] = []

    def worker(phi_index, t):
        dp = system.dataplane(phi_index)
        core = dp.core(t)
        fd = yield from dp.fs.open(core, BENCH_FILE)
        for _ in range(ops_per_thread):
            offset = rng.randrange(n_blocks) * block_size
            t0 = eng.now
            data = yield from dp.fs.pread(core, fd, block_size, offset)
            latencies.append(eng.now - t0)
            moved[0] += len(data)
        yield from dp.fs.close(core, fd)

    start = eng.now
    procs = [
        eng.spawn(worker(p, t))
        for p in range(n_phis)
        for t in range(threads_per_phi)
    ]
    eng.run()
    assert all(pr.ok for pr in procs)
    elapsed = eng.now - start
    result = {
        "gbps": moved[0] / elapsed,
        "p50_us": percentile(latencies, 50) / 1000.0,
        "p99_us": percentile(latencies, 99) / 1000.0,
    }
    state = system.sched_state()
    if state is not None:
        # Open/close RPCs also count bytes (their wire size), but the
        # reads dominate by >3 orders of magnitude; shares are
        # effectively data.
        for key in ("shares", "workers_high_water", "completed",
                    "rejected"):
            result[key] = state[key]
    system.shutdown()
    return result


# ----------------------------------------------------------------------
# Control-plane QoS scheduling (repro.sched)
# ----------------------------------------------------------------------
def _sched_qos_config(policy: str) -> SolrosConfig:
    """The QoS benchmark's scheduler sizing.

    The pool is deliberately small and fixed (2 regular workers + the
    RT reserve): the NVMe read bus is a single FIFO lane, so every
    in-flight bulk scan adds head-of-line delay that *no* dispatch
    order can claw back.  Admission bounds are wide enough that the
    closed-loop tenants below never trip them — rejection/backoff has
    its own unit tests.
    """
    return SolrosConfig(
        disk_blocks=DEFAULT_DISK_BLOCKS,
        max_inodes=64,
        sched=SchedConfig(policy, workers_max=2),
    )


def sched_qos_unloaded(
    policy: str = "drr+priority",
    fg_ops: int = 60,
    fg_block: int = 512 * KB,
    seed: int = 11,
) -> Dict:
    """The latency-sensitive tenant alone: its no-contention baseline."""
    from ..sched.qos import QOS_RT
    from ..sim.stats import percentile

    eng = Engine()
    system = SolrosSystem(eng, _sched_qos_config(policy))
    eng.run_process(system.boot(n_phis=1))
    file_bytes = 128 * MB
    eng.run_process(
        system.control.fs.preallocate(
            system.machine.host_core(0), BENCH_FILE, file_bytes
        )
    )
    rng = random.Random(seed)
    n_blocks = file_bytes // fg_block
    latencies: List[int] = []

    def fg(eng):
        dp = system.dataplane(0)
        vfs = dp.fs_view(QOS_RT)
        core = dp.core(0)
        fd = yield from vfs.open(core, BENCH_FILE)
        for _ in range(fg_ops):
            offset = rng.randrange(n_blocks) * fg_block
            t0 = eng.now
            yield from vfs.pread(core, fd, fg_block, offset)
            latencies.append(eng.now - t0)
        yield from vfs.close(core, fd)

    eng.run_process(fg(eng))
    system.shutdown()
    return {
        "p50_us": percentile(latencies, 50) / 1000.0,
        "p99_us": percentile(latencies, 99) / 1000.0,
        "samples": list(latencies),
    }


def sched_qos_overload(
    policy: str,
    fg_ops: int = 60,
    fg_block: int = 512 * KB,
    bg_block: int = 256 * KB,
    bg_threads: Sequence[int] = (8, 4, 4),
    window_ms: int = 400,
    seed: int = 11,
) -> Dict:
    """The QoS overload scenario (the Fig. 18 companion experiment).

    One latency-sensitive tenant (phi0, CLASS_RT, 512 KB random reads,
    closed loop) shares the control plane with three background scan
    tenants (CLASS_BULK, continuous 256 KB random reads; phi1 runs 2×
    the threads of phi2/phi3, modeling one greedy co-processor).  The
    offered bulk load alone exceeds the SSD's read bandwidth, so the
    scheduler queue is never empty: dispatch order decides who eats
    the backlog.

    Returns the foreground latency distribution, the background
    tenants' byte shares over the measurement window (fair = 1/3
    each), and the scheduler's own accounting.
    """
    from ..sched.qos import QOS_BULK, QOS_RT
    from ..sim.stats import percentile

    eng = Engine()
    system = SolrosSystem(eng, _sched_qos_config(policy))
    n_phis = 1 + len(bg_threads)
    eng.run_process(system.boot(n_phis=n_phis))
    file_bytes = 128 * MB
    eng.run_process(
        system.control.fs.preallocate(
            system.machine.host_core(0), BENCH_FILE, file_bytes
        )
    )
    latencies: List[int] = []
    fg_finished: List[int] = []
    stubs: List = []  # every per-tenant stub, for retry accounting

    def fg(eng):
        dp = system.dataplane(0)
        vfs = dp.fs_view(QOS_RT)
        stubs.append(vfs.backend)
        core = dp.core(0)
        rng = random.Random(seed)
        n_blocks = file_bytes // fg_block
        fd = yield from vfs.open(core, BENCH_FILE)
        for _ in range(fg_ops):
            offset = rng.randrange(n_blocks) * fg_block
            t0 = eng.now
            yield from vfs.pread(core, fd, fg_block, offset)
            latencies.append(eng.now - t0)
        yield from vfs.close(core, fd)
        fg_finished.append(eng.now)

    def bg(phi_index, t):
        dp = system.dataplane(phi_index)
        vfs = dp.fs_view(QOS_BULK, retry_seed=t)
        stubs.append(vfs.backend)
        core = dp.core(t)
        rng = random.Random((seed, phi_index, t).__repr__())
        n_blocks = file_bytes // bg_block
        fd = yield from vfs.open(core, BENCH_FILE)
        while True:  # scan forever; the window bounds the run
            offset = rng.randrange(n_blocks) * bg_block
            yield from vfs.pread(core, fd, bg_block, offset)

    # Background scans start first so the foreground always contends.
    for phi_index, threads in enumerate(bg_threads, start=1):
        for t in range(threads):
            eng.spawn(bg(phi_index, t), name=f"bg{phi_index}.{t}")
    fg_proc = eng.spawn(fg(eng), name="fg")
    eng.run(until=window_ms * 1_000_000)
    if not fg_proc.ok and fg_proc.triggered:
        raise fg_proc.value
    assert fg_finished, (
        f"foreground did not finish within {window_ms} ms "
        f"(completed {len(latencies)}/{fg_ops} ops under {policy!r})"
    )
    sched = system.scheduler
    state = sched.state()
    bg_sources = [f"phi{i}" for i in range(1, n_phis)]
    bg_bytes = {
        src: sched.stats.per_source[src].bytes
        for src in bg_sources
        if src in sched.stats.per_source
    }
    total_bg = sum(bg_bytes.values())
    bg_shares = {
        src: (bg_bytes.get(src, 0) / total_bg if total_bg else 0.0)
        for src in bg_sources
    }
    stub_retries = sum(stub.retries for stub in stubs)
    system.shutdown()
    return {
        "policy": policy,
        "fg_p50_us": percentile(latencies, 50) / 1000.0,
        "fg_p99_us": percentile(latencies, 99) / 1000.0,
        "fg_done_ms": fg_finished[0] / 1e6,
        "bg_shares": bg_shares,
        "samples": list(latencies),
        "completed": state["completed"],
        "shed": state["shed"],
        "rejected": state["rejected"],
        "workers_high_water": state["workers_high_water"],
        "stub_retries": stub_retries,
    }


# ----------------------------------------------------------------------
# Fault injection + recovery (repro.faults)
# ----------------------------------------------------------------------
def faults_chaos_run(
    seed: int = 7,
    n_threads: int = 4,
    ops_per_thread: int = 12,
    block_size: int = 256 * KB,
    rpc_timeout_ns: int = 800_000,
) -> Dict:
    """Delegated random I/O under a seeded chaos plan.

    Four co-processor threads (readers and writers alternating) run a
    closed loop against a control plane whose NVMe flips bits, whose
    rings stall, and whose fs proxy crashes outright mid-run — all
    drawn from per-site streams of ``seed``, so two runs are
    bit-identical.  Every operation must still complete: NVMe errors
    surface as transient ``EIO`` and are re-issued after backoff, the
    proxy crash is survived by the RPC timeout + idempotent re-issue,
    and latency spikes/stalls only stretch the clock.

    Returns per-op latencies (measured inside the workers), throughput
    over the window that closes at the last operation, and the
    injector's own accounting.
    """
    from ..faults import FaultPlan, NvmeFaults, ProxyFaults, RingFaults
    from ..sim.stats import percentile

    eng = Engine()
    plan = FaultPlan(
        seed=seed,
        nvme=NvmeFaults(
            read_error_rate=0.04,
            write_error_rate=0.04,
            latency_spike_rate=0.08,
        ),
        ring=RingFaults(stall_rate=0.01, pcie_degrade_rate=0.03),
        proxy=ProxyFaults(crash_at_requests=(5,), restart_after_ns=300_000),
        rpc_timeout_ns=rpc_timeout_ns,
    )
    cfg = SolrosConfig(
        disk_blocks=DEFAULT_DISK_BLOCKS, max_inodes=64, fault_plan=plan
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    file_bytes = 64 * MB
    # Preallocation is setup, not the system under test: disarm the
    # injector around it so the chaos budget all lands on the run.
    system.faults.armed = False
    eng.run_process(
        system.control.fs.preallocate(
            system.machine.host_core(0), BENCH_FILE, file_bytes
        )
    )
    system.faults.armed = True
    dp = system.dataplane(0)
    n_blocks = file_bytes // block_size
    latencies: List[int] = []
    moved = [0]
    # Answered RPCs cancel their timeout timers, so the run ends with
    # the workers, but engine.now then also covers each worker's final
    # close: the throughput window closes at the last *operation*,
    # recorded inside the workers.
    last_done = [0]

    def worker(t):
        op = "read" if t % 2 == 0 else "write"
        rng = random.Random((seed, t).__repr__())
        core = dp.core(t)
        fd = yield from dp.fs.open(core, BENCH_FILE, O_RDWR)
        for _ in range(ops_per_thread):
            offset = rng.randrange(n_blocks) * block_size
            t0 = eng.now
            if op == "read":
                data = yield from dp.fs.pread(core, fd, block_size, offset)
                moved[0] += len(data)
            else:
                moved[0] += yield from dp.fs.pwrite(
                    core, fd, offset, length=block_size
                )
            latencies.append(eng.now - t0)
            last_done[0] = max(last_done[0], eng.now)
        yield from dp.fs.close(core, fd)

    start = eng.now
    procs = [
        eng.spawn(worker(t), name=f"chaos{t}") for t in range(n_threads)
    ]
    eng.run()
    for p in procs:
        if not p.ok:
            raise p.value
    state = system.faults_state()
    stub_retries = dp.fs.backend.retries
    system.shutdown()
    elapsed = last_done[0] - start
    return {
        "ops": len(latencies),
        "gbps": moved[0] / elapsed if elapsed else 0.0,
        "p50_us": percentile(latencies, 50) / 1000.0,
        "p99_us": percentile(latencies, 99) / 1000.0,
        "samples": list(latencies),
        "stub_retries": stub_retries,
        "counts": state["counts"],
        "breakers": state["breakers"],
    }


# ----------------------------------------------------------------------
# §4.4.3: shared listening socket (reconstructed Figure 15) and the
# KV-store scale-out
# ----------------------------------------------------------------------
SHARED_SOCKET_REQUESTS = 48  # over 8 client connections


def shared_socket_rate(n_phis: int):
    """Aggregate served requests/s with ``n_phis`` shared-socket
    members; returns the rate and the requests each member served."""
    eng, _m, tb, proxy, apis, system = _net_env("solros", n_phis)
    port = 9500
    served = {i: 0 for i in range(n_phis)}

    def phi_server(i):
        dp = system.dataplane(i)
        core = dp.core(0)
        listener = yield from apis[i].listen(
            core, port, RoundRobinBalancer() if i == 0 else None
        )
        while True:
            sock = yield from listener.accept(core)
            while True:
                payload, n = yield from sock.recv(core)
                if payload is None:
                    break
                # Simulated request handling on the Phi: this is the
                # per-request work the members parallelize.
                yield core.compute(30_000, "branchy")
                served[i] += 1
                yield from sock.send(core, b"ok", 64)

    def client(j, n_requests):
        core = tb.client_cpu.core(j % 16)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        for _ in range(n_requests):
            yield from conn.send(core, b"req", 64)
            yield from conn.recv(core)
        yield from conn.close(core)

    for i in range(n_phis):
        eng.spawn(phi_server(i))
    start = eng.now
    n_clients = 8
    procs = [
        eng.spawn(client(j, SHARED_SOCKET_REQUESTS // n_clients))
        for j in range(n_clients)
    ]

    def waiter(eng):
        yield eng.all_of(procs)
        return eng.now

    end = eng.run_process(waiter(eng))
    proxy.stop()
    system.shutdown()
    total = sum(served.values())
    rate = total * 1e9 / (end - start)
    return rate, served


def kvstore_ops_per_sec(n_shards: int) -> float:
    """Aggregate put+get ops/s with ``n_shards`` co-processor shards
    behind the content-based balancer; checks every key's placement."""
    n_ops = 96
    n_client_workers = 24
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=32))
    eng.run_process(system.boot(n_phis=n_shards))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    shards = []
    for i in range(n_shards):
        api = proxy.attach(system.dataplane(i))
        shard = KvShard(eng, system.dataplane(i), api, i)
        shard.start()
        shards.append(shard)
    client = KvClient(tb.client, tb.client_cpu)

    def worker(w):
        for j in range(w, n_ops, n_client_workers):
            key = f"bench-key-{j}"
            yield from client.put(key, f"value-{j}")
            reply = yield from client.get(key)
            assert reply == ("ok", f"value-{j}")

    start = eng.now
    procs = [eng.spawn(worker(w)) for w in range(n_client_workers)]
    eng.run()
    assert all(p.ok for p in procs)
    elapsed = eng.now - start
    ops_per_sec = 2 * n_ops * 1e9 / elapsed  # put + get per key
    # Placement check: every key on its hash shard.
    for j in range(n_ops):
        key = f"bench-key-{j}"
        owner = key_shard(key, n_shards)
        assert shards[owner].data.get(key) == f"value-{j}"
    for shard in shards:
        shard.stop()
    proxy.stop()
    system.shutdown()
    return ops_per_sec


# ----------------------------------------------------------------------
# §6.2 applications (reconstructed Figures 16 and 17)
# ----------------------------------------------------------------------
def textindex_seconds(stack: str) -> float:
    """Index 32 synthetic 2 MB docs with 32 workers on one stack (I/O
    dominates, as in the paper); returns elapsed seconds."""
    n_docs = 32
    workers = 32
    setup = setup_fs_stack(stack, max_threads=workers)
    eng = setup.engine
    corpus = SyntheticCorpus(n_docs=n_docs, avg_doc_bytes=2048 * KB, seed=3)
    populate_core = _populate_core(setup, stack)

    def populate(eng):
        yield from setup.fs.mkdir(populate_core, "/corpus")
        for i in range(n_docs):
            inode = yield from setup.fs.create(
                populate_core, f"/corpus/{corpus.doc_name(i)}"
            )
            yield from setup.fs.write(
                populate_core, inode, 0, data=corpus.doc_bytes(i)
            )

    eng.run_process(populate(eng))

    indexer = TextIndexer(eng, setup.vfs)
    result = eng.run_process(
        indexer.run(setup.cores[:workers], "/corpus"), name="index"
    )
    assert result.docs_indexed == n_docs
    if setup.system is not None:
        setup.system.shutdown()
    return result.elapsed_ns / 1e9


def imagesearch_run(stack: str):
    """k-NN search over a 16 MB feature database (64-dim, 64 K
    vectors, 192 queries, 8 workers) on one stack; returns the
    SearchResult."""
    dim = 64
    workers = 8
    setup = setup_fs_stack(stack, max_threads=workers)
    eng = setup.engine
    ds = FeatureDataset(n_vectors=64 * 1024, dim=dim, seed=21)
    queries = ds.queries(192)
    populate_core = _populate_core(setup, stack)

    def populate(eng):
        inode = yield from setup.fs.create(populate_core, "/features.db")
        yield from setup.fs.write(populate_core, inode, 0, data=ds.to_bytes())

    eng.run_process(populate(eng))

    search = ImageSearch(eng, setup.vfs, dim=dim)
    result = eng.run_process(
        search.run(setup.cores[:workers], "/features.db", queries, k=5),
        name="search",
    )
    if setup.system is not None:
        setup.system.shutdown()
    return result


# ----------------------------------------------------------------------
# Ablations: one Solros mechanism on or off
# ----------------------------------------------------------------------
def ring_combining_pairs_per_sec(combining: bool, n_threads: int) -> float:
    """Fig. 8's Phi-local Solros ring with combining on, or swapped
    for MCS locks (``RingPolicy.combining=False``)."""
    iters = 50
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    rb = RingBuffer(
        eng, m.fabric, 1 << 20,
        master_cpu=phi, sender_cpu=phi, receiver_cpu=phi,
        policy=RingPolicy(combining=combining),
    )

    def worker(i):
        core = phi.core(i)
        for _ in range(iters):
            yield from rb.send(core, b"x", 64)
            yield from rb.recv(core)

    procs = [eng.spawn(worker(i)) for i in range(n_threads)]
    eng.run()
    assert all(p.ok for p in procs)
    return n_threads * iters * 1e9 / eng.now


def datapath_gbps(phi_numa: str, force) -> float:
    """Cold 512 KB random reads (GB/s) by 8 threads from a Phi on the
    SSD's NUMA domain (``"same"``) or the other one, with the data
    path forced to ``P2P``/``BUFFERED`` or left to the policy
    (``None``)."""
    threads = 8
    ops = 6
    block = 512 * KB
    stack = "solros" if phi_numa == "same" else "solros-xnuma"
    setup = setup_fs_stack(stack, max_threads=threads)
    setup.system.control.policy.force_mode = force
    eng = setup.engine
    file_bytes = 96 * MB
    host_core = setup.system.machine.host_core(0)
    eng.run_process(setup.fs.preallocate(host_core, BENCH_FILE, file_bytes))
    rng = random.Random(5)
    n_blocks = file_bytes // block
    # Unique offsets: every read is cold, so the comparison isolates
    # the data *path*, not cache-hit luck.
    offsets = [b * block for b in rng.sample(range(n_blocks), ops * threads)]
    moved = [0]

    def worker(core, mine):
        fd = yield from setup.vfs.open(core, BENCH_FILE, O_RDWR)
        for offset in mine:
            data = yield from setup.vfs.pread(core, fd, block, offset)
            moved[0] += len(data)
        yield from setup.vfs.close(core, fd)

    start = eng.now
    procs = [
        eng.spawn(worker(setup.cores[t], offsets[t::threads]))
        for t in range(threads)
    ]
    eng.run()
    assert all(p.ok for p in procs)
    gbps = moved[0] / (eng.now - start)
    setup.system.shutdown()
    return gbps


COALESCE_FRAGMENTS = 16  # 8 KB extents per read call


def nvme_coalescing_run(coalesce: bool):
    """Fragmented reads by 12 workers straight on the NVMe driver, with
    io-vector coalescing on or off; returns calls/s, doorbells and
    interrupts."""
    n_calls = 48
    workers = 12
    eng = Engine()
    m = build_machine(eng)
    dev = BlockDevice(m.nvme, 128 * 1024)
    rng = random.Random(2)

    def worker(w):
        core = m.host_core(w)
        for _ in range(n_calls // workers):
            extents = [
                (rng.randrange(100_000), 8 * KB // 4096)
                for _ in range(COALESCE_FRAGMENTS)
            ]
            yield from dev.submit_read(core, extents, "numa0", coalesce=coalesce)

    procs = [eng.spawn(worker(w)) for w in range(workers)]
    eng.run()
    assert all(p.ok for p in procs)
    stats = m.nvme.stats
    calls = workers * (n_calls // workers)
    calls_per_sec = calls * 1e9 / eng.now
    return calls_per_sec, stats.doorbells, stats.interrupts


def shared_cache_two_readers(cache_bytes: Optional[int]):
    """Phi 2 streams a 64 MB file in buffered mode, then phi 3 reads it
    again; returns both passes' GB/s and the cache hit rate."""
    file_bytes = 64 * MB
    block = 512 * KB
    threads = 4
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=48 * 1024, max_inodes=32, buffer_cache_bytes=cache_bytes
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=4))
    # Force buffered mode so the cache is on-path for both planes.
    system.control.policy.force_mode = BUFFERED
    host_core = system.machine.host_core(0)
    eng.run_process(
        system.control.fs.preallocate(host_core, "/shared.dat", file_bytes)
    )

    def worker(dp, t):
        core = dp.core(t)
        fd = yield from dp.fs.open(core, "/shared.dat", O_RDWR)
        for i in range(t, file_bytes // block, threads):
            yield from dp.fs.pread(core, fd, block, i * block)
        yield from dp.fs.close(core, fd)

    def stream(dp):
        t0 = eng.now
        yield eng.all_of([eng.spawn(worker(dp, t)) for t in range(threads)])
        return eng.now - t0

    first = eng.run_process(stream(system.dataplane(2)))
    second = eng.run_process(stream(system.dataplane(3)))
    hit_rate = (
        system.control.cache.stats.hit_rate
        if system.control.cache is not None
        else 0.0
    )
    system.shutdown()
    return file_bytes / first, file_bytes / second, hit_rate


def prefetch_scan(prefetch: bool):
    """Phis 0 and 1 sample a 48 MB dataset (marking it hot), then
    phis 2 and 3 scan it in full; returns the scan GB/s, the cache hit
    rate and the number of prefetches."""
    path = "/dataset.bin"
    file_bytes = 48 * MB
    block = 512 * KB
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=48 * 1024, max_inodes=32, enable_prefetch=prefetch
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=4))
    host_core = system.machine.host_core(0)
    eng.run_process(system.control.fs.preallocate(host_core, path, file_bytes))

    def sample(phi_index):
        dp = system.dataplane(phi_index)
        core = dp.core(0)
        fd = yield from dp.fs.open(core, path)
        for k in range(3):
            yield from dp.fs.pread(core, fd, 64 * KB, k * MB)
        yield from dp.fs.close(core, fd)

    for i in (0, 1):
        eng.run_process(sample(i))
    # Give the background prefetch (if any) time to complete.
    eng.run()

    def scan(phi_index, t):
        dp = system.dataplane(phi_index)
        core = dp.core(t)
        stripe = (phi_index - 2) * 2 + t  # 4 disjoint stripes
        fd = yield from dp.fs.open(core, path)
        for i in range(stripe, file_bytes // block, 4):
            yield from dp.fs.pread(core, fd, block, i * block)
        yield from dp.fs.close(core, fd)

    start = eng.now
    procs = [eng.spawn(scan(p, t)) for p in (2, 3) for t in range(2)]
    eng.run()
    assert all(pr.ok for pr in procs)
    gbps = file_bytes / (eng.now - start)
    hit_rate = system.control.cache.stats.hit_rate
    prefetches = (
        system.control.prefetcher.stats.prefetches
        if system.control.prefetcher
        else 0
    )
    system.shutdown()
    return gbps, hit_rate, prefetches


# ----------------------------------------------------------------------
# Table 1: lines of code
# ----------------------------------------------------------------------
def count_loc(subdir: str) -> int:
    """Lines in the ``.py`` files under ``repro/<subdir>``."""
    total = 0
    for path in (Path(repro.__file__).parent / subdir).rglob("*.py"):
        with path.open() as fh:
            total += sum(1 for _ in fh)
    return total
