"""repro.bench.perfgate: the deterministic perf-regression gate.

Covers the compare semantics (improvement / within-tolerance noise /
regression / missing metric / new metric / schema mismatch), the CLI
exit codes, byte-identical reproducibility of back-to-back suite
runs, the synthetic-slowdown injection the gate exists to catch,
partial results from crashing benchmarks, and the repro.obs export.
"""

import json

import pytest

from repro.bench.perfgate import (
    SCHEMA,
    SUITE,
    CompareError,
    baseline_path,
    compare_docs,
    export_to_obs,
    run_suite,
    to_json,
)
from repro.bench.perfgate import cli as perfgate_cli
from repro.bench.perfgate import suite as perfgate_suite


def make_doc(metrics, schema=SCHEMA, errors=None):
    """A minimal result doc with sane per-metric defaults."""
    full = {}
    for name, fields in metrics.items():
        entry = {
            "value": 100.0,
            "units": "ops/s",
            "direction": "higher",
            "tolerance_pct": 2.0,
            "bench": "synthetic",
        }
        entry.update(fields)
        full[name] = entry
    return {
        "schema": schema,
        "suite": ["synthetic"],
        "seed": 1,
        "environment": {"clock": "simulated"},
        "errors": errors or {},
        "metrics": full,
    }


# ----------------------------------------------------------------------
# compare semantics
# ----------------------------------------------------------------------
def test_compare_within_tolerance_is_ok():
    base = make_doc({"m": {"value": 100.0}})
    cur = make_doc({"m": {"value": 98.5}})  # -1.5% < 2% tolerance
    report = compare_docs(base, cur)
    assert report.ok
    (delta,) = report.deltas
    assert delta.status == "ok"
    assert delta.delta_pct == pytest.approx(-1.5)


def test_compare_improvement_beyond_tolerance_passes():
    base = make_doc({"m": {"value": 100.0}})
    cur = make_doc({"m": {"value": 110.0}})
    report = compare_docs(base, cur)
    assert report.ok
    assert report.deltas[0].status == "improvement"


def test_compare_regression_fails():
    base = make_doc({"m": {"value": 100.0}})
    cur = make_doc({"m": {"value": 90.0}})
    report = compare_docs(base, cur)
    assert not report.ok
    assert report.deltas[0].status == "regression"
    assert "FAIL" in report.render()


def test_compare_lower_is_better_direction():
    # Latency metric: going *up* beyond tolerance is the regression.
    base = make_doc({"lat": {"value": 50.0, "direction": "lower"}})
    worse = make_doc({"lat": {"value": 55.0, "direction": "lower"}})
    better = make_doc({"lat": {"value": 45.0, "direction": "lower"}})
    assert not compare_docs(base, worse).ok
    report = compare_docs(base, better)
    assert report.ok and report.deltas[0].status == "improvement"


def test_compare_missing_metric_fails():
    base = make_doc({"m": {"value": 100.0}, "gone": {"value": 5.0}})
    cur = make_doc({"m": {"value": 100.0}})
    report = compare_docs(base, cur)
    assert not report.ok
    assert [d.status for d in report.deltas] == ["missing", "ok"]


def test_compare_new_metric_is_informational():
    base = make_doc({"m": {"value": 100.0}})
    cur = make_doc({"m": {"value": 100.0}, "fresh": {"value": 1.0}})
    report = compare_docs(base, cur)
    assert report.ok
    assert report.by_status("new")[0].name == "fresh"


def test_compare_schema_mismatch_raises():
    base = make_doc({"m": {"value": 100.0}}, schema="perfgate/v0")
    cur = make_doc({"m": {"value": 100.0}})
    with pytest.raises(CompareError):
        compare_docs(base, cur)
    with pytest.raises(CompareError):
        compare_docs(cur, base)


def test_compare_malformed_doc_raises():
    with pytest.raises(CompareError):
        compare_docs({"schema": SCHEMA, "metrics": None},
                     make_doc({"m": {}}))


def test_compare_zero_baseline_edge():
    base = make_doc({"m": {"value": 0.0}})
    same = make_doc({"m": {"value": 0.0}})
    grew = make_doc({"m": {"value": 1.0}})
    assert compare_docs(base, same).ok
    # Growth from zero in the good direction is an improvement.
    assert compare_docs(base, grew).deltas[0].status == "improvement"


def test_compare_tolerance_taken_from_current_suite():
    # The code under test widened the band: the same drop now passes.
    base = make_doc({"m": {"value": 100.0, "tolerance_pct": 2.0}})
    cur = make_doc({"m": {"value": 96.0, "tolerance_pct": 5.0}})
    assert compare_docs(base, cur).ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_compare_exit_codes_and_report(tmp_path):
    base = tmp_path / "base.json"
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    base.write_text(to_json(make_doc({"m": {"value": 100.0}})))
    good.write_text(to_json(make_doc({"m": {"value": 100.0}})))
    bad.write_text(to_json(make_doc({"m": {"value": 50.0}})))
    report = tmp_path / "report.txt"
    assert perfgate_cli.main(["compare", str(base), str(good)]) == 0
    assert perfgate_cli.main(
        ["compare", str(base), str(bad), "--report", str(report)]
    ) == 1
    assert "regression" in report.read_text()
    # Schema mismatch / unreadable inputs are usage errors, not gates.
    v0 = tmp_path / "v0.json"
    v0.write_text(to_json(make_doc({"m": {}}, schema="nope/v0")))
    assert perfgate_cli.main(["compare", str(base), str(v0)]) == 2
    assert perfgate_cli.main(
        ["compare", str(base), str(tmp_path / "absent.json")]
    ) == 2


def test_cli_compare_json_output(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(to_json(make_doc({"m": {"value": 100.0}})))
    assert perfgate_cli.main(
        ["compare", str(base), str(base), "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["counts"] == {"ok": 1}


def test_cli_list_names_every_benchmark(capsys):
    assert perfgate_cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for bench in SUITE:
        assert bench.bid in out


def test_cli_run_unknown_only_id(tmp_path):
    assert perfgate_cli.main(
        ["run", "--out", str(tmp_path / "o.json"), "--only", "nope"]
    ) == 2


def test_cli_run_update_baseline(tmp_path, monkeypatch):
    blessed = tmp_path / "BENCH_baseline.json"
    monkeypatch.setattr(perfgate_cli, "baseline_path", lambda: blessed)
    out = tmp_path / "BENCH_perf.json"
    assert perfgate_cli.main(
        ["run", "--out", str(out), "--only", "ringbuf_local",
         "--update-baseline"]
    ) == 0
    assert out.read_bytes() == blessed.read_bytes()
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert "ringbuf.local.pairs_per_sec" in doc["metrics"]


# ----------------------------------------------------------------------
# Determinism + the gate end to end
# ----------------------------------------------------------------------
def test_back_to_back_full_runs_are_byte_identical(tmp_path):
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert perfgate_cli.main(["run", "--out", str(p1)]) == 0
    assert perfgate_cli.main(["run", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_injected_slowdown_trips_the_gate(monkeypatch):
    import repro.transport.ringbuf as ringbuf

    clean = run_suite(only=["ringbuf_local"])
    monkeypatch.setattr(
        ringbuf, "RB_ENQ_COMBINER_UNITS",
        ringbuf.RB_ENQ_COMBINER_UNITS * 4,
    )
    slow = run_suite(only=["ringbuf_local"])
    report = compare_docs(clean, slow)
    assert not report.ok
    (delta,) = report.by_status("regression")
    assert delta.name == "ringbuf.local.pairs_per_sec"
    assert delta.delta_pct < -2.0


def test_crashing_benchmark_leaves_partial_results(tmp_path, monkeypatch):
    bench = next(b for b in SUITE if b.bid == "ringbuf_pcie")

    def boom():
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(bench, "_run", boom)
    doc = run_suite(only=["ringbuf_local", "ringbuf_pcie"])
    assert "ringbuf_pcie" in doc["errors"]
    assert "synthetic crash" in doc["errors"]["ringbuf_pcie"]
    # The healthy benchmark's metrics still landed.
    assert "ringbuf.local.pairs_per_sec" in doc["metrics"]
    assert "ringbuf.pcie.lazy.ops_per_sec" not in doc["metrics"]
    # The CLI still writes the file, and flags the crash via exit 1.
    out = tmp_path / "partial.json"
    assert perfgate_cli.main(
        ["run", "--out", str(out),
         "--only", "ringbuf_local", "--only", "ringbuf_pcie"]
    ) == 1
    assert json.loads(out.read_text())["errors"]


def test_committed_baseline_matches_suite_definition():
    """The blessed file must cover exactly the current suite's metric
    names (values are the perf-gate CI job's business, not tier-1's)."""
    path = baseline_path()
    assert path.exists(), "BENCH_baseline.json is not committed"
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA
    assert not doc["errors"]
    expected = {s.name for b in SUITE for s in b.metrics}
    assert set(doc["metrics"]) == expected


# ----------------------------------------------------------------------
# repro.obs export + repro.bench wiring
# ----------------------------------------------------------------------
def test_export_to_obs_mirrors_metrics():
    doc = make_doc(
        {"a.b": {"value": 3.5}}, errors={"dead_bench": "RuntimeError()"}
    )
    registry = export_to_obs(doc, capture=None)
    assert registry.get("perfgate.a.b").value == 3.5
    assert registry.get("perfgate.errors").value == 1


def test_export_to_obs_joins_active_capture(tmp_path):
    from repro.obs import disable_capture, enable_capture

    capture = enable_capture()
    try:
        export_to_obs(make_doc({"a.b": {"value": 1.0}}))
    finally:
        disable_capture()
    pairs = dict(capture.metric_pairs())
    (label,) = [k for k in pairs if k.startswith("perfgate")]
    assert "perfgate.a.b" in pairs[label].names()


def test_cli_run_metrics_out_exports_perfgate_gauges(tmp_path):
    out = tmp_path / "perf.json"
    metrics = tmp_path / "metrics.json"
    assert perfgate_cli.main(
        ["run", "--out", str(out), "--only", "ringbuf_local",
         "--metrics-out", str(metrics)]
    ) == 0
    doc = json.loads(metrics.read_text())
    names = {name for reg in doc.values() for name in reg}
    assert "perfgate.ringbuf.local.pairs_per_sec" in names


def test_bench_cli_discovers_perfgate():
    from repro.bench.claims import CLAIMS

    assert "perfgate" in CLAIMS


def test_suite_metric_names_are_unique():
    names = [s.name for b in perfgate_suite.SUITE for s in b.metrics]
    assert len(names) == len(set(names))
