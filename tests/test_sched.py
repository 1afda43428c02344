"""Tests for repro.sched: dispatch policies, admission control + stub
backoff, deadline shedding, elastic worker pool, clean drain/shutdown,
decision determinism, and the end-to-end scheduled FS path."""

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.fs import O_CREAT, O_RDWR
from repro.sched import (
    CLASS_BULK,
    CLASS_NORMAL,
    CLASS_RT,
    DrrPolicy,
    DrrPriorityPolicy,
    FifoPolicy,
    QOS_BULK,
    QOS_RT,
    Qos,
    RequestScheduler,
    RetryPolicy,
    SCHED_POLICIES,
    SchedConfig,
    SchedRejected,
    SchedRequest,
    make_policy,
)
from repro.sched.qos import clamp_class
from repro.sim import Engine, SimError
from repro.transport import RemoteCallError


# ----------------------------------------------------------------------
# QoS vocabulary
# ----------------------------------------------------------------------
def test_clamp_class_bounds():
    assert clamp_class(-5) == CLASS_RT
    assert clamp_class(0) == CLASS_RT
    assert clamp_class(1) == CLASS_NORMAL
    assert clamp_class(2) == CLASS_BULK
    assert clamp_class(99) == CLASS_BULK


@pytest.mark.parametrize("priority", [CLASS_RT - 1, CLASS_BULK + 1, 99])
def test_qos_rejects_priority_outside_class_range(priority):
    with pytest.raises(ValueError, match="outside the class range"):
        Qos(priority=priority)
    for cls in (CLASS_RT, CLASS_NORMAL, CLASS_BULK):
        assert Qos(priority=cls).priority == cls


def test_retry_policy_bounds_and_determinism():
    import random

    policy = RetryPolicy(base_ns=2_000, max_ns=64_000, max_tries=5)
    rng = random.Random(7)
    for attempt in range(8):
        ceiling = min(64_000, 2_000 << attempt)
        delay = policy.delay(attempt, rng)
        # Upper-half jitter: always in (ceiling/2, ceiling].
        assert ceiling // 2 < delay <= ceiling + 1
    # The scheduler's retry-after hint raises the base.
    hinted = policy.delay(0, random.Random(1), hint_ns=50_000)
    assert hinted > 25_000
    # Deterministic given the same seed.
    a = [policy.delay(i, random.Random(3)) for i in range(4)]
    b = [policy.delay(i, random.Random(3)) for i in range(4)]
    assert a == b
    with pytest.raises(ValueError):
        RetryPolicy(base_ns=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_ns=100, max_ns=50)


# ----------------------------------------------------------------------
# Dispatch policies (pure queueing, no simulation)
# ----------------------------------------------------------------------
def _req(seq, source="phi0", cls=CLASS_NORMAL, cost=4096, deadline=None):
    return SchedRequest(
        seq, source, None, None, None, 0, cls, deadline, cost, 0
    )


def _drain_order(policy, max_class=None):
    out = []
    while True:
        req = policy.pop(max_class)
        if req is None:
            return out
        out.append(req.seq)


def test_fifo_policy_is_arrival_order():
    p = FifoPolicy()
    for i in range(4):
        p.push(_req(i, cls=i % 3))
    assert len(p) == 4
    assert _drain_order(p) == [0, 1, 2, 3]
    assert p.pop() is None


def test_drr_policy_byte_fair_across_sources():
    p = DrrPolicy(quantum=64 * 1024)
    # One greedy source with large requests, one modest with small.
    for i in range(8):
        p.push(_req(i, source="big", cost=256 * 1024))
    for i in range(8, 16):
        p.push(_req(i, source="small", cost=64 * 1024))
    served = {"big": 0, "small": 0}
    for _ in range(8):
        req = p.pop()
        served[req.source] += req.cost
    # While both stay backlogged, served bytes match within a quantum
    # rotation (not request counts: 'big' gets 4x fewer pops).
    assert abs(served["big"] - served["small"]) <= 256 * 1024
    _drain_order(p)
    # Deficit resets when a source idles: no banked credit.
    assert p._deficit == {"big": 0, "small": 0}


def test_drr_priority_policy_class_then_fairness():
    p = DrrPriorityPolicy(quantum=64 * 1024)
    p.push(_req(0, source="phi1", cls=CLASS_BULK, cost=64 * 1024))
    p.push(_req(1, source="phi0", cls=CLASS_RT, cost=4096))
    p.push(_req(2, source="phi2", cls=CLASS_BULK, cost=64 * 1024))
    # RT always dispatches ahead of queued bulk.
    assert p.pop().seq == 1
    assert p.class_depth(CLASS_BULK) == 2
    assert p.pop(max_class=CLASS_RT) is None
    assert sorted(_drain_order(p)) == [0, 2]


def test_make_policy_registry():
    assert SCHED_POLICIES == ("fifo", "drr", "drr+priority")
    for name in SCHED_POLICIES:
        assert make_policy(name).name == name
    for name in ("lottery", "priority", "edf"):
        with pytest.raises(SimError, match="unknown scheduler policy") as exc:
            make_policy(name)
        assert str(SCHED_POLICIES) in str(exc.value)


def test_bad_scheduler_parameters_rejected():
    eng = Engine()
    with pytest.raises(SimError, match="admission bounds"):
        RequestScheduler(eng, None, SchedConfig(source_credits=0))
    from repro.sched.workers import ElasticWorkerPool

    with pytest.raises(ValueError, match="bad pool bounds"):
        ElasticWorkerPool(eng, None, min_workers=4, max_workers=2)


# ----------------------------------------------------------------------
# End-to-end: the scheduled FS path
# ----------------------------------------------------------------------
def _boot(policy, n_phis=1, **sched_kw):
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, sched=SchedConfig(policy, **sched_kw)
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=n_phis))
    return eng, system


def _write_file(eng, phi, path, data):
    core = phi.core(0)

    def setup(eng):
        fd = yield from phi.fs.open(core, path, O_CREAT | O_RDWR)
        yield from phi.fs.write(core, fd, data=data)
        yield from phi.fs.close(core, fd)

    eng.run_process(setup(eng))


def _read_once(vfs, core, path, nbytes):
    fd = yield from vfs.open(core, path, O_RDWR)
    data = yield from vfs.read(core, fd, nbytes)
    yield from vfs.close(core, fd)
    return data


def test_scheduled_path_end_to_end():
    eng, system = _boot("drr+priority")
    phi = system.dataplane(0)
    payload = b"solros" * 1000
    _write_file(eng, phi, "/f.bin", payload)
    data = eng.run_process(_read_once(phi.fs, phi.core(0), "/f.bin",
                                      len(payload)))
    assert data == payload
    sched = system.scheduler
    assert sched is not None
    state = system.sched_state()
    assert state["policy"] == "drr+priority"
    assert state["completed"] == state["submitted"] > 0
    assert state["rejected"] == 0 and state["shed"] == 0
    assert state["sources"] == ["phi0"]
    assert state["shares"] == {"phi0": 1.0}
    assert state["depth"] == 0 and state["inflight"] == 0


def test_legacy_default_has_no_scheduler():
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=4096, max_inodes=16))
    eng.run_process(system.boot(n_phis=1))
    assert system.scheduler is None
    assert system.sched_state() is None


def test_admission_rejection_triggers_stub_backoff():
    eng, system = _boot(
        "fifo", source_credits=1,
        workers_min=2, workers_max=2,
    )
    phi = system.dataplane(0)
    payload = b"x" * 4096
    _write_file(eng, phi, "/small.bin", payload)
    backend = phi.fs.backend
    assert backend.rejections == 0  # sequential setup never collides

    results = []

    def reader(core):
        data = yield from _read_once(phi.fs, core, "/small.bin", 4096)
        results.append(data)

    procs = [eng.spawn(reader(phi.core(i)), name=f"rd{i}") for i in range(4)]
    eng.run()
    assert all(p.ok for p in procs)
    assert results == [payload] * 4
    # With one credit and four concurrent callers, someone was pushed
    # back — and the stub's bounded backoff absorbed every rejection.
    sched = system.scheduler
    assert sched.stats.rejected > 0
    assert backend.rejections == sched.stats.rejected
    assert backend.retries == backend.rejections
    assert sched.stats.completed == sched.stats.admitted


def test_rejection_verdict_carries_retry_hint():
    eng, system = _boot("fifo", source_credits=1)
    sched = system.scheduler
    sched._outstanding["phi0"] = 1  # simulate a busy source
    verdict = sched.submit("phi0", None, _FakeMsg(), None, 64)
    assert isinstance(verdict, SchedRejected)
    assert "out of credits" in verdict.reason
    assert verdict.retry_after_ns >= 2_000
    sched._outstanding["phi0"] = 0


class _FakeMsg:
    priority = CLASS_NORMAL
    deadline = None
    payload = None
    size = 64


def test_deadline_expired_requests_are_shed():
    eng, system = _boot(
        "fifo", workers_min=1, workers_max=1,
    )
    phi = system.dataplane(0)
    big = b"b" * (512 * 1024)
    _write_file(eng, phi, "/big.bin", big)
    _write_file(eng, phi, "/small.bin", b"s" * 4096)
    # 10us is far below the 512 KB service time the deadline request
    # queues behind on the single worker.
    urgent = phi.fs_view(Qos(priority=CLASS_RT, deadline_ns=10_000))
    outcome = []

    def blocker(eng):
        data = yield from _read_once(phi.fs, phi.core(0), "/big.bin",
                                     len(big))
        outcome.append(("big", len(data)))

    def doomed(eng):
        yield 1_000  # submit while the big read holds the only worker
        try:
            yield from _read_once(urgent, phi.core(1), "/small.bin", 4096)
        except RemoteCallError as err:
            outcome.append(("shed", type(err.cause).__name__))

    eng.spawn(blocker(eng))
    eng.spawn(doomed(eng))
    eng.run()
    assert ("big", len(big)) in outcome
    # Shedding hits the deadline-stamped data op, not the open (which
    # sneaks in before the big transfer monopolizes the worker).
    assert ("shed", "SchedDeadlineExceeded") in outcome
    assert system.scheduler.stats.shed >= 1


def test_elastic_pool_grows_and_shrinks():
    eng, system = _boot(
        "fifo", workers_min=1, workers_max=4,
        grow_depth_per_worker=1, idle_shrink_ns=50_000,
    )
    phi = system.dataplane(0)
    _write_file(eng, phi, "/f.bin", b"z" * (64 * 1024))

    procs = [
        eng.spawn(_read_once(phi.fs, phi.core(i), "/f.bin", 64 * 1024),
                  name=f"rd{i}")
        for i in range(6)
    ]
    eng.run()  # runs past the last elastic worker's idle retirement
    assert all(p.ok for p in procs)
    pool = system.scheduler.pool
    assert pool.grown >= 1
    assert pool.shrunk == pool.grown  # every elastic worker retired
    assert pool.active == 1           # back to the permanent floor
    assert pool.high_water >= 2


def test_drain_completes_queued_requests_then_rejects():
    eng, system = _boot(
        "fifo", workers_min=1, workers_max=1,
    )
    phi = system.dataplane(0)
    payload = b"d" * (64 * 1024)
    _write_file(eng, phi, "/f.bin", payload)

    def opener(eng):
        fds = []
        for _ in range(5):
            fd = yield from phi.fs.open(phi.core(0), "/f.bin", O_RDWR)
            fds.append(fd)
        return fds

    fds = eng.run_process(opener(eng))
    results = []

    def reader(core, fd):
        # One RPC per reader: all five are admitted (and queued on the
        # single worker) before the drain begins.
        data = yield from phi.fs.pread(core, fd, len(payload), 0)
        results.append(data)

    def drainer(eng):
        yield 50_000  # let a backlog build on the single worker
        yield from system.scheduler.drain()

    procs = [
        eng.spawn(reader(phi.core(i), fds[i]), name=f"rd{i}")
        for i in range(5)
    ]
    drain_proc = eng.spawn(drainer(eng))
    eng.run()
    # Everything admitted before the drain still completed.
    assert all(p.ok for p in procs) and drain_proc.ok
    assert results == [payload] * 5
    sched = system.scheduler
    state = sched.state()
    assert state["running"] is False and state["draining"] is True
    assert state["depth"] == 0 and state["inflight"] == 0
    assert state["completed"] == state["admitted"]
    assert sched.pool.active == 0
    # Post-drain submissions bounce with the stopping verdict, and the
    # stub gives up once its bounded retries are spent.
    phi.fs.backend.retry = RetryPolicy(max_tries=2)
    with pytest.raises(RemoteCallError) as exc:
        eng.run_process(_read_once(phi.fs, phi.core(0), "/f.bin", 4096))
    assert isinstance(exc.value.cause, SchedRejected)
    assert "stopping" in exc.value.cause.reason


def test_hard_stop_halts_workers():
    eng, system = _boot("drr+priority")
    phi = system.dataplane(0)
    _write_file(eng, phi, "/f.bin", b"q" * 4096)
    system.shutdown()  # SolrosSystem.shutdown() calls scheduler.stop()
    assert system.scheduler.running is False
    eng.run()  # deliver the worker interrupts
    assert system.scheduler.pool.active == 0


def test_fs_view_shares_channel_and_buffer_ids():
    eng, system = _boot("drr")
    phi = system.dataplane(0)
    bulk = phi.fs_view(QOS_BULK, retry_seed=3)
    assert bulk.backend is not phi.fs.backend
    assert bulk.backend.channel is phi.fs.backend.channel
    assert bulk.backend.qos == QOS_BULK
    # Sibling stubs draw from the parent's buffer-id sequence, so
    # concurrent tenants never collide on transfer buffers.
    assert bulk.backend._next_buffer.__self__ is phi.fs.backend


def test_net_scheduled_path():
    from repro.net import SocketAddr
    from repro.net.testbed import NetTestbed

    eng, system = _boot("drr+priority")
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy(scheduler=system.scheduler)
    api = proxy.attach(system.dataplane(0))
    phi = system.dataplane(0)
    results = []

    def server(eng):
        core = phi.core(0)
        listener = yield from api.listen(core, 9000)
        sock = yield from listener.accept(core)
        payload, n = yield from sock.recv(core)
        yield from sock.send(core, payload, n)

    def client(eng):
        core = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(core, SocketAddr("host", 9000))
        yield from conn.send(core, "ping", 64)
        payload, _n = yield from conn.recv(core)
        results.append(payload)
        yield from conn.close(core)

    server_proc = eng.spawn(server(eng))
    client_proc = eng.spawn(client(eng))
    eng.run()
    assert server_proc.ok and client_proc.ok
    assert results == ["ping"]
    # The network proxy's control RPCs flowed through the scheduler
    # alongside (absent here) FS traffic.
    state = system.sched_state()
    assert "net.phi0" in state["sources"]
    assert state["completed"] == state["admitted"] > 0
    assert state["rejected"] == 0


def _mixed_workload_decisions():
    eng, system = _boot(
        "drr+priority", n_phis=2, record_decisions=True,
    )
    payload = b"w" * (64 * 1024)
    for i in range(2):
        _write_file(eng, system.dataplane(i), f"/f{i}.bin", payload)
    rt = system.dataplane(0).fs_view(QOS_RT)
    bulk = system.dataplane(1).fs_view(QOS_BULK)

    def tenant(vfs, phi, path, ops):
        for _ in range(ops):
            yield from _read_once(vfs, phi.core(0), path, len(payload))

    eng.spawn(tenant(rt, system.dataplane(0), "/f0.bin", 4))
    eng.spawn(tenant(bulk, system.dataplane(1), "/f1.bin", 4))
    eng.run()
    sched = system.scheduler
    return tuple(sched.decision_log), eng.now, sched.stats.shares()


def test_decision_log_is_deterministic():
    first = _mixed_workload_decisions()
    second = _mixed_workload_decisions()
    assert first == second
    log = first[0]
    assert len(log) > 0
    kinds = {entry[0] for entry in log}
    assert "admit" in kinds and "dispatch" in kinds


def _collection_sizes(obj):
    names = getattr(obj, "__slots__", None) or sorted(vars(obj))
    values = {name: getattr(obj, name) for name in names}
    return {n: len(v) for n, v in values.items() if hasattr(v, "__len__")}


def test_scheduler_stats_do_not_grow_with_requests():
    """The plain-Python accounting holds counters only: nothing in
    ``stats`` or its per-source entries keeps one item per request."""
    def footprint(n_reads):
        eng, system = _boot("drr")
        phi = system.dataplane(0)
        _write_file(eng, phi, "/f.bin", b"g" * 4096)
        for _ in range(n_reads):
            eng.run_process(_read_once(phi.fs, phi.core(0), "/f.bin", 4096))
        stats = system.scheduler.stats
        sizes = [_collection_sizes(stats)] + [
            _collection_sizes(src)
            for _name, src in sorted(stats.per_source.items())
        ]
        return stats.completed, sizes

    few_done, few = footprint(1)
    many_done, many = footprint(6)
    assert many_done > few_done
    assert many == few


def test_scheduler_metrics_exported():
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=True, sched=SchedConfig("drr"),
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    phi = system.dataplane(0)
    _write_file(eng, phi, "/f.bin", b"m" * 4096)
    eng.run_process(_read_once(phi.fs, phi.core(0), "/f.bin", 4096))
    metrics = system.obs.metrics
    names = set(metrics.names())
    assert {
        "sched.submitted", "sched.admitted", "sched.rejected", "sched.shed",
        "sched.queue.depth", "sched.workers", "sched.wait_ns",
        "sched.service_ns", "sched.src.phi0.bytes",
    } <= names
    assert metrics.get("sched.submitted").value > 0
    assert metrics.get("sched.src.phi0.bytes").value > 0
    assert metrics.get("sched.wait_ns").count > 0


def test_admitted_counter_matches_stats():
    """``sched.admitted`` counts what ``stats.admitted`` counts: every
    admission, and no rejection."""
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=True,
        sched=SchedConfig("drr+priority", source_credits=2),
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    phi = system.dataplane(0)
    _write_file(eng, phi, "/f.bin", b"a" * 4096)
    procs = [
        eng.spawn(_read_once(phi.fs, phi.core(i), "/f.bin", 4096))
        for i in range(6)
    ]
    eng.run()
    assert all(p.ok for p in procs)
    stats = system.scheduler.stats
    assert stats.admitted > 0 and stats.rejected > 0
    assert system.obs.metrics.get("sched.admitted").value == stats.admitted


def test_captured_qos_run_exports_every_scheduler_series():
    """A captured drr+priority overload run (the ``bench sched``
    workload, shortened) exports the full ``sched.*`` series set with
    per-source byte counters from every system that scheduled."""
    from repro.bench import sched_qos_overload
    from repro.obs import disable_capture, enable_capture, metrics_json

    capture = enable_capture()
    try:
        sched_qos_overload("drr+priority", fg_ops=20, window_ms=150)
    finally:
        disable_capture()
    doc = metrics_json(capture.metric_pairs())
    assert doc, "scheduler metrics JSON is empty"
    required = {
        "sched.submitted", "sched.admitted", "sched.rejected",
        "sched.shed", "sched.queue.depth", "sched.workers",
        "sched.wait_ns", "sched.service_ns",
    }
    schedful = [
        (label, reg) for label, reg in doc.items()
        if any(name.startswith("sched.") for name in reg)
    ]
    assert schedful, "no system exported sched.* series"
    for label, reg in schedful:
        missing = required - set(reg)
        assert not missing, f"{label}: missing series {missing}"
        assert reg["sched.submitted"]["value"] > 0, label
        shares = [n for n in reg if n.startswith("sched.src.")]
        assert shares, f"{label}: no per-source byte counters"


# ----------------------------------------------------------------------
# No path nests transport locks
# ----------------------------------------------------------------------
@pytest.fixture
def lock_probe(monkeypatch):
    """Count ``TicketLock``/``MCSLock`` acquisitions and the most locks
    any one core held at once.  A path that never holds two locks has
    an empty acquisition-order graph, so it cannot deadlock ABBA."""
    from repro.transport.locks import MCSLock, TicketLock

    held = {}
    probe = {"acquires": 0, "max_held": 0}
    for cls in (TicketLock, MCSLock):
        def acquire(self, core, *node, _acquire=cls.acquire):
            yield from _acquire(self, core, *node)
            probe["acquires"] += 1
            held[core] = held.get(core, 0) + 1
            probe["max_held"] = max(probe["max_held"], held[core])

        def release(self, core, *node, _release=cls.release):
            held[core] -= 1
            yield from _release(self, core, *node)

        monkeypatch.setattr(cls, "acquire", acquire)
        monkeypatch.setattr(cls, "release", release)
    return probe


def test_drr_priority_path_never_nests_locks(lock_probe):
    """With MCS-locked rings (combining off, so the transport actually
    takes locks) the drr+priority stub -> ring -> proxy -> scheduler
    handoff never holds two locks on one core."""
    from repro.transport.ringbuf import RingPolicy

    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, sched=SchedConfig("drr+priority"),
        ring_policy=RingPolicy(combining=False),
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=2))
    payload = b"w" * (64 * 1024)
    for i in range(2):
        _write_file(eng, system.dataplane(i), f"/f{i}.bin", payload)
    rt = system.dataplane(0).fs_view(QOS_RT)
    bulk = system.dataplane(1).fs_view(QOS_BULK)

    def tenant(vfs, phi, path, ops):
        for _ in range(ops):
            yield from _read_once(vfs, phi.core(0), path, len(payload))

    eng.spawn(tenant(rt, system.dataplane(0), "/f0.bin", 4))
    eng.spawn(tenant(bulk, system.dataplane(1), "/f1.bin", 4))
    eng.run()
    # The probe must actually have run for "never two" to mean anything.
    assert lock_probe["acquires"] > 0
    assert lock_probe["max_held"] == 1


@pytest.mark.parametrize("algo", ["ticket", "mcs"])
def test_two_lock_queue_never_nests_locks(lock_probe, algo):
    """Fig. 8's contended two-lock queue takes its head and tail locks
    one at a time on every core."""
    from repro.bench.figures import ringbuf_local_pairs_per_sec

    ringbuf_local_pairs_per_sec(algo, n_threads=8, iters=10)
    assert lock_probe["acquires"] == 2 * 8 * 10
    assert lock_probe["max_held"] == 1
