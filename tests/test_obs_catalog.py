"""The catalog in ``repro.obs.catalog`` is the one declaration of every
metric name and span category: the registry and the tracer reject
anything it does not declare, and docs/OBSERVABILITY.md's tables are
rendered from it."""

import re
from pathlib import Path

import pytest

from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from repro.obs.catalog import METRICS, SPAN_CATEGORIES, render_doc, row_of
from repro.sim import Engine

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def test_registry_and_tracer_accept_catalog_names():
    eng = Engine()
    metrics, tracer = MetricsRegistry(eng), Tracer(eng)
    metrics.counter("sched.submitted")
    # A placeholder stands for one or more dotted segments.
    metrics.counter("ring.fs-rpc.phi0.req.copy.dma")
    metrics.counter("sched.src.net.phi0.bytes")
    metrics.gauge("perfgate.fs.read.p2p.gbps")
    # An exact row wins over a pattern of another kind.
    metrics.counter("perfgate.errors")
    tracer.begin("fs.open", "stub")
    span = tracer.root("fs.open", "stub")
    tracer.child("rpc.9p", "stub", span)
    assert len(metrics) == 5 and len(tracer.spans) == 3


def test_registry_and_tracer_reject_undeclared_and_misnamed():
    eng = Engine()
    metrics, tracer = MetricsRegistry(eng), Tracer(eng)
    with pytest.raises(ValueError, match="'Sched.Bad' is not declared"):
        metrics.counter("Sched.Bad")
    with pytest.raises(ValueError, match="'sched.unknown' is not declared"):
        metrics.counter("sched.unknown")
    with pytest.raises(ValueError, match="span category 'bogus'"):
        tracer.begin("fs.open", "bogus")
    assert len(metrics) == 0 and tracer.spans == []


def test_tracer_rejects_unknown_root_and_child_categories():
    eng = Engine()
    tracer = Tracer(eng)
    root = tracer.root("fs.open", "stub")
    with pytest.raises(ValueError, match="span category 'rootcat'"):
        tracer.root("fs.open", "rootcat")
    with pytest.raises(ValueError, match="span category 'childcat'"):
        tracer.child("rpc.9p", "childcat", root.ctx())
    # The disabled tracer and registry check nothing.
    assert NULL_TRACER.root("fs.open", "rootcat") is None
    NULL_METRICS.counter("Sched.Bad").inc()


def test_registry_rejects_a_declared_name_of_another_kind():
    eng = Engine()
    metrics = MetricsRegistry(eng)
    with pytest.raises(TypeError, match="declared a counter, not a gauge"):
        metrics.gauge("sched.submitted")
    with pytest.raises(TypeError, match="cannot be a view"):
        metrics.view("sched.queue.depth", lambda: 0)


def test_catalog_rows_follow_the_naming_scheme():
    segment = re.compile(r"^([a-z0-9_-]|<[a-z]+>)+$")
    patterns = [m.pattern for m in METRICS]
    assert len(set(patterns)) == len(patterns)
    for row in METRICS:
        assert row.kind in ("counter", "gauge", "histogram", "meter"), row
        assert all(segment.match(s) for s in row.pattern.split(".")), row
        assert row.meaning
    assert [name for name, _by, _spans in SPAN_CATEGORIES] == [
        "stub", "transport", "proxy", "fs", "device", "net",
    ]
    # A placeholder takes lowercase dotted segments only.
    assert row_of("ring.any.thing.copy.dma").kind == "counter"
    with pytest.raises(ValueError):
        row_of("ring.But.Not.This.copy.dma")


def test_observability_doc_tables_are_rendered_from_the_catalog():
    text = DOC.read_text()
    assert render_doc(text) == text, (
        "docs/OBSERVABILITY.md's catalog tables are stale; regenerate "
        "them with: PYTHONPATH=src python -c \"from pathlib import Path; "
        "from repro.obs.catalog import render_doc; "
        "p = Path('docs/OBSERVABILITY.md'); "
        "p.write_text(render_doc(p.read_text()))\""
    )
