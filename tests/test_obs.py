"""Tests for repro.obs: tracer, metrics, exporters, and the
end-to-end Solros integration (span totals agree with an outside
oracle)."""

import json

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    RateMeter,
    SpanContext,
    Tracer,
    chrome_trace,
    ctx_of,
    disable_capture,
    enable_capture,
    metrics_json,
)
from repro.fs.blockdev import BlockDevice
from repro.fs.extfs import ExtFS
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.sim import Engine


# ----------------------------------------------------------------------
# Tracer unit tests
# ----------------------------------------------------------------------
def test_span_nesting_and_ordering():
    eng = Engine()
    tracer = Tracer(eng)

    def proc(eng):
        root = tracer.begin("request", "stub")
        yield 100
        child = tracer.begin("rpc", "transport", parent=root)
        yield 50
        grandchild = tracer.begin("disk", "device", parent=child.ctx())
        yield 25
        tracer.end(grandchild)
        tracer.end(child)
        yield 10
        tracer.end(root, outcome="ok")
        return root

    root = eng.run_process(proc(eng))

    spans = tracer.finished_spans()
    assert len(spans) == 3
    # All three share the root's trace; parent links form a chain.
    assert {s.trace_id for s in spans} == {root.trace_id}
    by_name = {s.name: s for s in spans}
    assert by_name["request"].parent_id is None
    assert by_name["rpc"].parent_id == by_name["request"].span_id
    assert by_name["disk"].parent_id == by_name["rpc"].span_id
    # Timestamps follow the simulated clock.
    assert by_name["request"].start_ns == 0
    assert by_name["rpc"].start_ns == 100
    assert by_name["disk"].duration_ns == 25
    assert by_name["request"].end_ns == 185
    assert by_name["request"].attrs["outcome"] == "ok"
    # The DFS tree lists the chain at increasing depth.
    tree = tracer.span_tree(root.trace_id)
    assert [(depth, s.name) for depth, s in tree] == [
        (0, "request"), (1, "rpc"), (2, "disk"),
    ]
    assert tracer.categories() == ["device", "stub", "transport"]


def test_span_context_propagation_shape():
    eng = Engine()
    tracer = Tracer(eng)
    root = tracer.begin("a", "stub")
    ctx = root.ctx()
    assert isinstance(ctx, SpanContext)
    child = tracer.begin("b", "transport", parent=ctx)
    assert (child.trace_id, child.parent_id) == (root.trace_id, root.span_id)
    # A parentless begin starts a fresh trace.
    other = tracer.begin("c", "stub")
    assert other.trace_id != root.trace_id
    assert sorted(tracer.traces()) == [root.trace_id, other.trace_id]


def test_category_union_counts_overlap_once():
    eng = Engine()
    tracer = Tracer(eng)

    def proc(eng):
        a = tracer.begin("cmd1", "device")
        yield 60
        b = tracer.begin("cmd2", "device", parent=a.ctx())
        yield 40
        tracer.end(a)
        yield 40
        tracer.end(b)

    eng.run_process(proc(eng))
    # cmd1 covers [0,100), cmd2 covers [60,140): union is 140, sum 180.
    assert tracer.category_union_ns() == {"device": 140}
    # Self time: cmd1 minus the overlap with its child, plus the child.
    assert tracer.category_self_ns() == {"device": 60 + 80}


def test_tracer_caps_retained_spans():
    eng = Engine()
    tracer = Tracer(eng, max_spans=2)
    spans = [tracer.begin(f"s{i}", "stub") for i in range(4)]
    for s in spans:
        tracer.end(s)
    assert len(tracer.spans) == 2
    assert tracer.dropped == 2
    # Overflow spans are still real, usable objects.
    assert spans[3].finished


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.begin("x", "stub", core=None, whatever=1)
    assert NULL_TRACER.end(span) is span
    assert NULL_TRACER.root("x", "stub", whatever=1) is None
    assert NULL_TRACER.child("y", "stub", SpanContext(1, 1)) is None
    assert NULL_TRACER.end(None) is None
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.category_union_ns() == {}


def test_root_child_helpers_and_ctx_of():
    eng = Engine()
    tracer = Tracer(eng)
    root = tracer.root("req", "stub", size=4)
    assert root.parent_id is None and root.attrs == {"size": 4}
    child = tracer.child("rpc", "transport", ctx_of(root), ring="r")
    assert (child.trace_id, child.parent_id) == (root.trace_id, root.span_id)
    # An untraced request (no parent context) opens nothing, and
    # closing the missing span is a no-op.
    assert tracer.child("rpc", "transport", None) is None
    assert tracer.end(None, error=True) is None
    assert len(tracer.spans) == 2
    fallback = SpanContext(7, 8)
    assert ctx_of(None) is None
    assert ctx_of(None, fallback) is fallback
    assert ctx_of(child, fallback).span_id == child.span_id


# ----------------------------------------------------------------------
# Metrics unit tests
# ----------------------------------------------------------------------
def test_registry_creates_and_reuses_by_name():
    eng = Engine()
    reg = MetricsRegistry(eng)
    c = reg.counter("faults.rpc.retries")
    g = reg.gauge("ring.r.occupancy_bytes")
    h = reg.histogram("combining.q.batch")
    m = reg.meter("rpc.r.calls")
    assert isinstance(c, Counter) and isinstance(g, Gauge)
    assert isinstance(h, HistogramMetric) and isinstance(m, RateMeter)
    assert reg.counter("faults.rpc.retries") is c
    assert len(reg) == 4 and "ring.r.occupancy_bytes" in reg
    with pytest.raises(TypeError):
        reg.gauge("faults.rpc.retries")


def test_counter_and_gauge_semantics():
    eng = Engine()
    reg = MetricsRegistry(eng)
    c = reg.counter("faults.rpc.retries")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)

    g = reg.gauge("sched.queue.depth")

    def proc(eng):
        g.set(3)
        yield 100
        g.add(-1)
        yield 50
        g.set(7)

    eng.run_process(proc(eng))
    assert g.value == 7 and g.min == 2 and g.max == 7 and g.sets == 3
    assert g.series() == [(0, 3), (100, 2), (150, 7)]


def test_rate_meter_ticks_on_sim_clock():
    eng = Engine()
    reg = MetricsRegistry(eng)
    meter = reg.meter("rpc.io.calls")

    def proc(eng):
        meter.add(nbytes=2000, nops=2)
        yield 1000
        rates = meter.tick()
        return rates

    rates = eng.run_process(proc(eng))
    assert rates["bytes"] == 2000.0
    assert rates["gb_per_sec"] == pytest.approx(2.0)
    assert meter.to_dict()["intervals"] == 1


def test_snapshot_is_json_ready():
    eng = Engine()
    reg = MetricsRegistry(eng)
    a, b = "faults.rpc.retries", "sched.queue.depth"
    c, d = "sched.wait_ns", "rpc.d.calls"
    reg.counter(a).inc()
    reg.gauge(b).set(1.5)
    reg.histogram(c).record(10)
    reg.meter(d).add(nbytes=100)
    snap = reg.snapshot()
    assert set(snap) == {a, b, c, d}
    assert snap[a]["type"] == "counter"
    assert snap[c]["count"] == 1
    json.dumps(snap)  # must not raise


def test_views_read_their_sources_at_snapshot():
    eng = Engine()
    reg = MetricsRegistry(eng)
    ops = {"a": 0, "b": 0}
    traffic = [0, 0]
    reg.view("sched.submitted", lambda: ops["a"])
    # A second source under one name adds to the same total.
    reg.view("sched.submitted", lambda: ops["b"])
    reg.view("net.inbound", lambda: tuple(traffic))
    ops["a"], ops["b"], traffic[:] = 2, 3, [640, 10]
    assert reg.counter("sched.submitted").value == 5
    # The same export as the counter and meter they stand for.
    assert reg.snapshot() == {
        "net.inbound": {"type": "meter", "bytes": 640, "ops": 10, "intervals": 0},
        "sched.submitted": {"type": "counter", "value": 5},
    }
    assert NULL_METRICS.view("sched.submitted", lambda: 1) is None
    assert NULL_METRICS.snapshot() == {}


# ----------------------------------------------------------------------
# Exporter unit tests
# ----------------------------------------------------------------------
def test_chrome_trace_document_shape():
    eng = Engine()
    tracer = Tracer(eng)
    reg = MetricsRegistry(eng)

    def proc(eng):
        root = tracer.begin("req", "stub")
        yield 2000
        reg.gauge("sched.queue.depth").set(1)
        yield 500
        tracer.end(root)

    eng.run_process(proc(eng))
    doc = chrome_trace([("sim", tracer, reg)])
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "C"}
    x = next(e for e in events if e["ph"] == "X")
    assert x["name"] == "req" and x["cat"] == "stub"
    assert x["ts"] == 0.0 and x["dur"] == 2.5      # ns -> usec
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["ts"] == 2.0 and counter["args"]["value"] == 1
    meta = [e for e in events if e["ph"] == "M"]
    assert {"process_name", "thread_name"} == {e["name"] for e in meta}
    json.dumps(doc)

    mdoc = metrics_json([("sim", reg)])
    assert mdoc["sim"]["sched.queue.depth"]["value"] == 1


# ----------------------------------------------------------------------
# Integration: a Solros file read end to end
# ----------------------------------------------------------------------
def _build_traced_system(trace=True):
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=trace,
        buffer_cache_bytes=8 * 1024 * 1024,
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    return eng, system


def _read_workload(eng, system, nbytes=256 * 1024):
    phi = system.dataplane(0)
    vfs = phi.fs
    core = phi.core(0)

    def run(eng):
        fd = yield from vfs.open(core, "/bench", O_CREAT | O_RDWR)
        yield from vfs.write(core, fd, length=nbytes)
        yield from vfs.close(core, fd)
        fd = yield from vfs.open(core, "/bench")
        out = yield from vfs.pread(core, fd, nbytes, 0)
        yield from vfs.close(core, fd)
        return out

    out = eng.run_process(run(eng))
    system.shutdown()
    return out


def test_solros_read_produces_linked_span_tree():
    eng, system = _build_traced_system()
    tracer = system.obs.tracer
    _read_workload(eng, system)

    cats = set(tracer.categories())
    assert {"stub", "transport", "proxy", "fs", "device"} <= cats

    # Every root is a stub-level operation; find the pread trace.
    roots = {s.name: s for s in tracer.roots()}
    assert "fs.pread" in roots and "fs.open" in roots
    pread = roots["fs.pread"]
    tree = tracer.span_tree(pread.trace_id)
    names = [s.name for _d, s in tree]
    assert names[0] == "fs.pread"
    assert "rpc.9p" in names
    assert "rpc.serve.9p" in names
    assert any(n.startswith("nvme.cmd.") for n in names)
    # The single read request touches at least four categories.
    per_request = {s.category for _d, s in tree}
    assert len(per_request) >= 4
    # Spans nest sanely: children start no earlier than their parent.
    by_id = {s.span_id: s for _d, s in tree}
    for _d, s in tree:
        if s.parent_id is not None and s.parent_id in by_id:
            assert s.start_ns >= by_id[s.parent_id].start_ns


def test_span_totals_match_an_outside_oracle(monkeypatch):
    """Fig. 13(a) is read off the ``fs`` and ``device`` span unions.

    Check them against timers wrapped around the host file system's
    data-path calls and the block device from outside the stack; the
    workload is sequential, so each union equals the summed call
    durations exactly."""
    eng, system = _build_traced_system()
    phi = system.dataplane(0)
    core = phi.core(0)
    # Create the file first: its directory-block write is metadata I/O
    # outside the read/write data path that the spans cover.
    fd = eng.run_process(phi.fs.open(core, "/bench", O_CREAT | O_RDWR))
    eng.run_process(phi.fs.close(core, fd))

    totals = {"fs": 0, "device": 0}

    def timed(owner, name, category):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = eng.now
            result = yield from original(*args, **kwargs)
            totals[category] += eng.now - start
            return result

        monkeypatch.setattr(owner, name, wrapper)

    timed(ExtFS, "fiemap", "fs")
    timed(ExtFS, "_ensure_allocated", "fs")
    timed(BlockDevice, "submit_read", "device")
    timed(BlockDevice, "submit_write", "device")
    _read_workload(eng, system)

    union = system.obs.tracer.category_union_ns()
    assert totals["fs"] > 0 and totals["device"] > 0
    assert union["fs"] == totals["fs"]
    assert union["device"] == totals["device"]


def test_tracing_never_changes_simulated_time():
    eng_off, system_off = _build_traced_system(trace=False)
    _read_workload(eng_off, system_off)
    eng_on, system_on = _build_traced_system(trace=True)
    _read_workload(eng_on, system_on)
    assert system_off.obs.enabled is False
    assert system_on.obs.enabled is True
    assert eng_on.now == eng_off.now
    assert len(system_on.obs.tracer.finished_spans()) > 0


def test_metrics_populated_by_read_workload():
    eng, system = _build_traced_system()
    metrics = system.obs.metrics
    _read_workload(eng, system)

    names = metrics.names()
    assert any(n.startswith("ring.") and n.endswith(".occupancy_bytes")
               for n in names)
    assert any(n.startswith("rpc.") and n.endswith(".inflight")
               for n in names)
    calls = next(
        metrics.get(n) for n in names
        if n.startswith("rpc.") and n.endswith(".calls")
    )
    assert calls.meter.ops >= 6  # open/write/close/open/pread/close
    # The in-flight gauge returned to zero when the workload drained.
    inflight = next(
        metrics.get(n) for n in names
        if n.startswith("rpc.") and n.endswith(".inflight")
    )
    assert inflight.value == 0 and inflight.max >= 1
    hits = metrics.get("cache.hits")
    misses = metrics.get("cache.misses")
    assert hits is not None and misses is not None
    assert hits.value + misses.value > 0
    assert metrics.get("nvme.nvme0.cmd_bytes").count > 0


def test_capture_hook_collects_systems():
    capture = enable_capture()
    try:
        eng, system = _build_traced_system(trace=False)
        # Capture overrides config.trace=False: the hub is enabled and
        # registered with the capture.
        assert system.obs.enabled
        assert system.obs in capture.hubs
        _read_workload(eng, system)
    finally:
        disable_capture()
    triples = capture.export_triples()
    assert len(triples) == 1
    label, tracer, metrics = triples[0]
    assert label == "solros#1"
    assert tracer.finished_spans()
    doc = chrome_trace(triples)
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    assert capture.metric_pairs()[0][1] is metrics


# ----------------------------------------------------------------------
# The bench runner survives crashing experiments (repro.bench cli)
# ----------------------------------------------------------------------
def test_run_one_reports_errors_without_aborting(tmp_path, capsys):
    from repro.bench.cli import run_one

    bench = tmp_path / "bench_broken.py"
    bench.write_text(
        "def test_a_crashes(benchmark):\n"
        "    raise RuntimeError('boom')\n"
        "\n"
        "def test_b_fails_shape(benchmark):\n"
        "    assert 1 == 2, 'shape'\n"
        "\n"
        "def test_c_passes(benchmark):\n"
        "    pass\n"
    )
    ok = run_one("broken", str(bench))
    out = capsys.readouterr().out
    assert ok is False
    assert "ERROR: RuntimeError('boom')" in out
    assert "SHAPE-CHECK FAILED: shape" in out
    assert "test_c_passes: ok" in out


def test_bench_cli_exports_trace_and_metrics(tmp_path):
    """``python -m repro.bench fig13 --trace-out ... --metrics-out ...``
    writes a Perfetto trace with every fs-path span category and a
    metrics document holding counters and gauges."""
    from repro.bench.cli import main

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main([
        "fig13", "--trace-out", str(trace_path),
        "--metrics-out", str(metrics_path),
    ]) == 0

    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    assert spans, "trace has no span events"
    cats = {e["cat"] for e in spans}
    assert {"stub", "transport", "proxy", "fs", "device"} <= cats
    for e in spans:
        assert e["dur"] >= 0 and e["ts"] >= 0
        assert "trace" in e["args"] and "span" in e["args"]

    metrics = json.loads(metrics_path.read_text())
    assert metrics, "metrics JSON is empty"
    kinds = {m["type"] for reg in metrics.values() for m in reg.values()}
    assert {"counter", "gauge"} <= kinds
