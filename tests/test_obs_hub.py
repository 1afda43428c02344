"""One observability hub per engine: components built on an engine
record into its hub from construction on, with no wiring call, and a
disabled hub hands every component the same no-op tracer and metrics.
"""

from collections import Counter

from repro.bench.perfgate.suite import export_to_obs
from repro.core import SolrosConfig, SolrosSystem
from repro.faults import FaultPlan
from repro.fs.vfs import O_BUFFER, O_CREAT, O_RDWR
from repro.hw import build_machine
from repro.net import ContentBasedBalancer, SocketAddr
from repro.net.testbed import NetTestbed
from repro.obs import NULL_METRICS, NULL_TRACER, ObservabilityHub, hub_of
from repro.obs.catalog import METRICS, row_of
from repro.obs.metrics import NULL_METRIC
from repro.sched import SchedConfig
from repro.sim import Engine
from repro.transport import RpcChannel

# The metric names of a traced system with a scheduler, a quiet fault
# plan and a net proxy, after a few fs ops and one echo.
TRACED_SYSTEM_METRICS = [
    "cache.hit_rate",
    "cache.hits",
    "cache.misses",
    "cache.resident_blocks",
    "combining.fs-rpc.phi0.req.deq.batch",
    "combining.fs-rpc.phi0.req.enq.batch",
    "combining.fs-rpc.phi0.resp.deq.batch",
    "combining.fs-rpc.phi0.resp.enq.batch",
    "combining.net.phi0.in.deq.batch",
    "combining.net.phi0.in.enq.batch",
    "combining.net.phi0.out.deq.batch",
    "combining.net.phi0.out.enq.batch",
    "combining.net.phi0.rpc.req.deq.batch",
    "combining.net.phi0.rpc.req.enq.batch",
    "combining.net.phi0.rpc.resp.deq.batch",
    "combining.net.phi0.rpc.resp.enq.batch",
    "faults.breaker.nvme0.state",
    "faults.breaker.trips",
    "faults.fallback.buffered",
    "faults.nic.drops",
    "faults.nvme.latency_spikes",
    "faults.nvme.read_errors",
    "faults.nvme.write_errors",
    "faults.pcie.degraded",
    "faults.proxy.crashes",
    "faults.proxy.dropped",
    "faults.ring.stalls",
    "faults.rpc.dedup_hits",
    "faults.rpc.retries",
    "faults.rpc.timeouts",
    "net.inbound",
    "net.outbound",
    "nvme.nvme0.cmd_bytes",
    "proxy.path.buffered",
    "proxy.path.p2p",
    "ring.fs-rpc.phi0.req.copy.dma",
    "ring.fs-rpc.phi0.req.copy.memcpy",
    "ring.fs-rpc.phi0.req.occupancy_bytes",
    "ring.fs-rpc.phi0.resp.copy.dma",
    "ring.fs-rpc.phi0.resp.copy.memcpy",
    "ring.fs-rpc.phi0.resp.occupancy_bytes",
    "ring.net.phi0.in.copy.dma",
    "ring.net.phi0.in.copy.memcpy",
    "ring.net.phi0.in.occupancy_bytes",
    "ring.net.phi0.out.copy.dma",
    "ring.net.phi0.out.copy.memcpy",
    "ring.net.phi0.out.occupancy_bytes",
    "ring.net.phi0.rpc.req.copy.dma",
    "ring.net.phi0.rpc.req.copy.memcpy",
    "ring.net.phi0.rpc.req.occupancy_bytes",
    "ring.net.phi0.rpc.resp.copy.dma",
    "ring.net.phi0.rpc.resp.copy.memcpy",
    "ring.net.phi0.rpc.resp.occupancy_bytes",
    "rpc.fs-rpc.phi0.calls",
    "rpc.fs-rpc.phi0.inflight",
    "rpc.net.phi0.rpc.calls",
    "rpc.net.phi0.rpc.inflight",
    "sched.admitted",
    "sched.queue.depth",
    "sched.queue.depth.c0",
    "sched.queue.depth.c1",
    "sched.queue.depth.c2",
    "sched.rejected",
    "sched.service_ns",
    "sched.shed",
    "sched.src.net.phi0.bytes",
    "sched.src.phi0.bytes",
    "sched.submitted",
    "sched.wait_ns",
    "sched.workers",
]


def _full_system(trace):
    """A booted one-Phi system with a scheduler, a quiet fault plan and
    an attached net proxy."""
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=trace,
        buffer_cache_bytes=1 << 20, sched=SchedConfig(),
        fault_plan=FaultPlan(),
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy(scheduler=system.scheduler)
    api = proxy.attach(system.dataplane(0))
    return eng, system, tb, proxy, api


def _fs_ops_and_one_echo(eng, system, tb, api):
    phi = system.dataplane(0)
    core = phi.core(0)

    def fs_ops(eng):
        fd = yield from phi.fs.open(core, "/f", O_CREAT | O_RDWR)
        yield from phi.fs.write(core, fd, length=64 * 1024)
        yield from phi.fs.pread(core, fd, 64 * 1024, 0)
        yield from phi.fs.close(core, fd)
        fd = yield from phi.fs.open(core, "/f", O_RDWR | O_BUFFER)
        yield from phi.fs.pread(core, fd, 64 * 1024, 0)
        yield from phi.fs.close(core, fd)

    eng.run_process(fs_ops(eng))

    def server(eng):
        listener = yield from api.listen(core, 9000)
        sock = yield from listener.accept(core)
        payload, n = yield from sock.recv(core)
        yield from sock.send(core, payload, n)

    def client(eng):
        c = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(c, SocketAddr("host", 9000))
        yield from conn.send(c, "ping", 64)
        reply = yield from conn.recv(c)
        yield from conn.close(c)
        return reply

    eng.spawn(server(eng))
    proc = eng.spawn(client(eng))
    eng.run()
    assert proc.value == ("ping", 64)


def test_traced_system_registers_the_pinned_metric_names():
    eng, system, tb, _proxy, api = _full_system(trace=True)
    _fs_ops_and_one_echo(eng, system, tb, api)
    assert system.obs.metrics.names() == TRACED_SYSTEM_METRICS


# Spans per name of the traced system after ``_fs_ops_and_one_echo``,
# a buffered write, four contending stats and one outbound connect:
# one or more of every span a per-message site opens.
TRACED_SYSTEM_SPANS = {
    "combining.wait": 4, "dma.pull": 1, "dma.push": 1,
    "fs.allocate+fiemap": 2, "fs.close": 3, "fs.fiemap": 2, "fs.open": 3,
    "fs.pread": 2, "fs.pwrite": 2, "fs.stat": 4, "net.connect": 1,
    "net.recv": 1, "net.send": 2, "net.tcp_send": 2, "nvme.cmd.read": 2,
    "nvme.cmd.write": 2, "nvme.read": 2, "nvme.write": 2, "rb.copy_in": 32,
    "rb.copy_out": 33, "rb.enqueue": 32, "rb.queued": 32, "rpc.9p": 14,
    "rpc.net": 1, "rpc.serve.9p": 14, "rpc.serve.net": 1,
}


def test_traced_system_emits_every_per_message_span():
    """The per-message sites skip the tracer only for an untraced
    request: traced, each still opens and closes its span."""
    eng, system, tb, _proxy, api = _full_system(trace=True)
    _fs_ops_and_one_echo(eng, system, tb, api)
    phi = system.dataplane(0)

    def buffered_write(eng):
        core = phi.core(1)
        fd = yield from phi.fs.open(core, "/f", O_RDWR | O_BUFFER)
        yield from phi.fs.pwrite(core, fd, 0, length=4096)
        yield from phi.fs.close(core, fd)

    def stat(core):
        yield from phi.fs.stat(core, "/f")

    def client_server(eng):
        c = tb.client_cpu.core(1)
        conn = yield from tb.client.listen(7000).accept(c)
        payload, _n = yield from conn.recv(c)
        return payload

    def phi_client(eng):
        core = phi.core(6)
        sock = yield from api.connect(core, SocketAddr("client", 7000))
        yield from sock.send(core, "hi", 16)
        yield from sock.close(core)

    procs = [eng.spawn(buffered_write(eng))]
    procs += [eng.spawn(stat(phi.core(2 + i))) for i in range(4)]
    procs += [eng.spawn(client_server(eng)), eng.spawn(phi_client(eng))]
    eng.run()
    assert all(p.ok for p in procs) and procs[-2].value == "hi"
    spans = system.obs.tracer.spans
    assert all(s.finished for s in spans)
    assert Counter(s.name for s in spans) == TRACED_SYSTEM_SPANS


def test_every_catalog_row_has_an_emitter():
    """A row no component registers is stale: the traced system and the
    perf gate's registry mirror together register every one."""
    eng, system, tb, _proxy, api = _full_system(trace=True)
    _fs_ops_and_one_echo(eng, system, tb, api)
    perfgate = export_to_obs({
        "metrics": {"fs.read.p2p.gbps": {"value": 1.0}},
        "errors": {"fs_read_p2p": "boom"},
    })
    names = system.obs.metrics.names() + perfgate.names()
    emitted = {row_of(name) for name in names}
    assert [row.pattern for row in METRICS if row not in emitted] == []


def test_views_export_their_stats_fields():
    eng, system, tb, proxy, api = _full_system(trace=True)
    _fs_ops_and_one_echo(eng, system, tb, api)
    control = system.control
    cache, fs = control.cache.stats, control.fs_proxy.stats
    sched, net = control.scheduler.stats, proxy.stats
    channel = proxy.channels[0]
    rings = [
        system.dataplane(0).fs_channel.request_ring,
        system.dataplane(0).fs_channel.response_ring,
        channel.rpc.request_ring, channel.rpc.response_ring,
        channel.inbound, channel.outbound,
    ]
    expected = {
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "proxy.path.p2p": fs.p2p_reads + fs.p2p_writes,
        "proxy.path.buffered": fs.buffered_reads + fs.buffered_writes,
        "sched.submitted": sched.submitted,
        "sched.admitted": sched.admitted,
        "sched.rejected": sched.rejected,
        "sched.shed": sched.shed,
        **{
            f"sched.src.{name}.bytes": src.bytes
            for name, src in sched.per_source.items()
        },
        **{f"ring.{r.name}.copy.dma": r.stats.dma_copies for r in rings},
        **{f"ring.{r.name}.copy.memcpy": r.stats.memcpy_copies for r in rings},
        **control.faults.counts,
    }
    snap = system.obs.metrics.snapshot()
    assert {name: snap[name]["value"] for name in expected} == expected
    assert snap["net.inbound"] == {
        "type": "meter", "bytes": net.bytes_in, "ops": net.messages_in,
        "intervals": 0,
    }
    assert snap["net.outbound"] == {
        "type": "meter", "bytes": net.bytes_out, "ops": net.messages_out,
        "intervals": 0,
    }
    # Both paths and every scheduled source saw work, so a view wired
    # to the wrong field or registered twice reads a different number.
    assert fs.p2p_writes and fs.buffered_reads and sched.submitted
    assert all(src.bytes for src in sched.per_source.values())


def test_bare_rpc_channel_records_into_its_engines_hub():
    eng = Engine()
    hub = ObservabilityHub(eng)
    assert hub_of(eng) is hub
    m = build_machine(eng)
    ch = RpcChannel(
        eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host, name="bare"
    )
    ch.start_client(m.phi_core(0, 60))

    def handler(core, method, payload, ctx):
        yield core.compute(100)
        return payload

    ch.start_server([m.host_core(1)], handler)

    def client(eng):
        root = hub.tracer.root("test", "stub")
        out = yield from ch.call(m.phi_core(0, 0), "echo", 7, ctx=root.ctx())
        hub.tracer.end(root)
        ch.stop()
        return out

    assert eng.run_process(client(eng)) == 7
    assert {"rpc.bare.calls", "rpc.bare.inflight"} <= set(hub.metrics.names())
    assert hub.metrics.get("rpc.bare.calls").meter.ops == 1
    names = {s.name for s in hub.tracer.finished_spans()}
    assert {"rpc.echo", "rpc.serve.echo"} <= names


def test_disabled_hub_hands_out_shared_null_objects():
    eng, system, tb, proxy, api = _full_system(trace=False)
    _fs_ops_and_one_echo(eng, system, tb, api)
    hub = system.obs
    assert hub_of(eng) is hub
    assert hub.tracer is NULL_TRACER and hub.metrics is NULL_METRICS
    control = system.control
    channel = system.dataplane(0).fs_channel
    ring = channel.request_ring
    tracers = [
        system.machine.nvme.tracer, channel.tracer, ring.tracer,
        ring._enq_side.tracer, control.fs_proxy.tracer, proxy.tracer,
        proxy.channels[0].tracer,
    ]
    assert all(t is NULL_TRACER for t in tracers)
    metrics = [
        system.machine.nvme._h_cmd_bytes, channel._m_calls,
        channel._g_inflight, ring._g_occupancy,
        ring._enq_side._h_batch, control.cache._g_resident,
        control.scheduler._h_wait, control.scheduler.pool._g_workers,
        control.fs_proxy.breaker("nvme0")._g_state,
    ]
    assert all(m is NULL_METRIC for m in metrics)
    assert hub.metrics.snapshot() == {}


def test_engine_without_hub_records_nothing():
    eng = Engine()
    assert eng.obs is None
    hub = hub_of(eng)
    assert not hub.enabled and hub.metrics is NULL_METRICS


def test_resident_blocks_gauge_follows_invalidation():
    """A P2P write drops the blocks a buffered read cached; the gauge
    must drop with them.  The write covers three times the cached range,
    so the cache-hit rule still lets it go peer to peer."""
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=True,
        buffer_cache_bytes=1 << 20,
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    phi = system.dataplane(0)
    core = phi.core(0)
    cached, nbytes = 64 * 1024, 192 * 1024

    def run(eng):
        fd = yield from phi.fs.open(core, "/f", O_CREAT | O_RDWR)
        yield from phi.fs.write(core, fd, length=nbytes)
        yield from phi.fs.close(core, fd)
        fd = yield from phi.fs.open(core, "/f", O_RDWR | O_BUFFER)
        yield from phi.fs.pread(core, fd, cached, 0)
        yield from phi.fs.close(core, fd)
        filled = len(system.control.cache)
        p2p_writes = system.control.fs_proxy.stats.p2p_writes
        fd = yield from phi.fs.open(core, "/f", O_RDWR)
        yield from phi.fs.pwrite(core, fd, 0, length=nbytes)
        yield from phi.fs.close(core, fd)
        assert system.control.fs_proxy.stats.p2p_writes == p2p_writes + 1
        return filled

    filled = eng.run_process(run(eng))
    cache = system.control.cache
    gauge = system.obs.metrics.get("cache.resident_blocks")
    assert filled > 0 and len(cache) < filled
    assert gauge.value == len(cache)


def test_net_inbound_meter_counts_content_balanced_first_requests():
    eng = Engine()
    system = SolrosSystem(
        eng, SolrosConfig(disk_blocks=8192, max_inodes=16, trace=True)
    )
    eng.run_process(system.boot(n_phis=2))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    apis = [proxy.attach(system.dataplane(i)) for i in range(2)]
    balancer = ContentBasedBalancer(
        lambda payload, n: int(payload.split("-")[1]) % n
    )
    port = 9100

    def phi_server(i):
        core = system.dataplane(i).core(0)
        listener = yield from apis[i].listen(
            core, port, balancer if i == 0 else None
        )
        while True:
            sock = yield from listener.accept(core)
            payload, n = yield from sock.recv(core)
            yield from sock.send(core, b"ok", 2)

    def clients(eng):
        core = tb.client_cpu.core(0)
        for key in range(4):
            conn = yield from tb.client.connect(core, SocketAddr("host", port))
            yield from conn.send(core, f"key-{key}", 64)
            yield from conn.recv(core)
            yield from conn.close(core)

    for i in range(2):
        eng.spawn(phi_server(i))
    proc = eng.spawn(clients(eng))
    eng.run()
    assert proc.ok
    inbound = system.obs.metrics.get("net.inbound")
    assert proxy.stats.messages_in >= 4
    assert inbound.to_dict()["ops"] == proxy.stats.messages_in
    assert inbound.to_dict()["bytes"] == proxy.stats.bytes_in
