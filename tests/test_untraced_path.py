"""An untraced request makes no call into the disabled tracer or
metrics.

With tracing off every component holds the shared ``NullTracer`` and
``NULL_METRICS``, and each per-message site tests what it already
holds (the parent context, the span, ``tracer.enabled`` or the hub's
``enabled`` read at construction) before it would call them.  These
tests make every null call raise once the system is booted, then run
file-system calls and KV requests through it.

That a traced run still emits every span is
``test_obs_hub.py::test_traced_system_emits_every_per_message_span``,
which pins the count of each span name the per-message sites open.
"""

import pytest

from repro.apps import KvClient, KvShard
from repro.core import SolrosConfig, SolrosSystem
from repro.fs.vfs import O_BUFFER, O_CREAT, O_RDWR
from repro.net.testbed import NetTestbed
from repro.obs.metrics import _NullMetric
from repro.obs.tracer import NullTracer
from repro.sim import Engine


@pytest.fixture()
def refuse_null_calls(monkeypatch):
    """Arm, on call, a patch under which every null tracer or metric
    call is recorded and raises; returns the record."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"untraced request called {name}")

        return call

    def arm():
        for name in ("child", "root", "end"):
            monkeypatch.setattr(NullTracer, name, refuse(f"NullTracer.{name}"))
        for name in ("set", "add", "record", "inc"):
            monkeypatch.setattr(_NullMetric, name, refuse(f"NullMetric.{name}"))
        return calls

    return arm


def test_fs_calls_make_no_null_obs_call(refuse_null_calls):
    eng = Engine()
    system = SolrosSystem(
        eng, SolrosConfig(disk_blocks=8192, max_inodes=16, buffer_cache_bytes=1 << 20)
    )
    eng.run_process(system.boot(n_phis=1))
    phi = system.dataplane(0)
    core = phi.core(0)
    nbytes = 64 * 1024
    calls = refuse_null_calls()

    def run(eng):
        fd = yield from phi.fs.open(core, "/f", O_CREAT | O_RDWR)
        written = yield from phi.fs.pwrite(core, fd, 0, length=nbytes)
        p2p = yield from phi.fs.pread(core, fd, nbytes, 0)
        yield from phi.fs.close(core, fd)
        fd = yield from phi.fs.open(core, "/f", O_RDWR | O_BUFFER)
        buffered = yield from phi.fs.pread(core, fd, nbytes, 0)
        cached = yield from phi.fs.pread(core, fd, nbytes, 0)
        yield from phi.fs.close(core, fd)
        st = yield from phi.fs.stat(core, "/f")
        return written, len(p2p), len(buffered), len(cached), st["size"]

    assert eng.run_process(run(eng)) == (nbytes,) * 5
    stats = system.control.fs_proxy.stats
    # Both data paths, the cache's hits and misses all ran.
    assert stats.p2p_reads and stats.p2p_writes and stats.buffered_reads
    assert system.control.cache.stats.hits and system.control.cache.stats.misses
    assert calls == []


def test_kv_requests_through_the_shared_socket_make_no_null_obs_call(
    refuse_null_calls,
):
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=2))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    for i in range(2):
        KvShard(eng, system.dataplane(i), proxy.attach(system.dataplane(i)), i).start()
    client = KvClient(tb.client, tb.client_cpu)
    calls = refuse_null_calls()

    def flow(eng):
        yield from client.put("alpha", "1")
        return (yield from client.get("alpha"))

    assert eng.run_process(flow(eng)) == ("ok", "1")
    assert proxy.stats.accepts == 2
    assert calls == []
