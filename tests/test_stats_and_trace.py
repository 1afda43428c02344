"""Unit tests for statistics helpers."""

import pytest

from repro.sim import Histogram, ThroughputMeter
from repro.sim.stats import cdf_points, mean, percentile, summarize


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_mean_empty_and_simple():
    assert mean([]) == 0.0
    assert mean([2, 4, 6]) == 4.0


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5.0
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 99) == 7.0


def test_percentile_validates():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_summarize_empty():
    s = summarize([])
    assert s["count"] == 0 and s["max"] == 0.0


def test_cdf_points_empty():
    assert cdf_points([]) == []


def test_histogram_log_buckets():
    h = Histogram()
    for v in [1, 2, 3, 500, 700, 100_000]:
        h.record(v)
    assert h.count == 6
    rows = h.buckets()
    assert sum(count for _lo, _hi, count in rows) == 6
    for lo, hi, _count in rows:
        assert hi == 2 * lo
    with pytest.raises(ValueError):
        h.record(-1)


def test_histogram_sub_one_values_report_unit_bucket():
    # Regression: values in [0, 1) used to land in the bucket labeled
    # (1, 2) because int(log2(v)) clamps to 0.  They belong in (0, 1).
    h = Histogram()
    h.record(0)
    h.record(0.25)
    h.record(1)
    rows = h.buckets()
    assert rows[0] == (0, 1, 2)
    assert rows[1] == (1, 2, 1)
    assert h.count == 3
    assert h.total == pytest.approx(1.25)
    assert h.mean == pytest.approx(1.25 / 3)
    h.reset()
    assert h.count == 0 and h.buckets() == []


def test_throughput_meter_units():
    meter = ThroughputMeter()
    meter.add(nbytes=1_000_000, nops=10)
    # 1 MB in 1 ms -> 1 GB/s (decimal).
    assert meter.gb_per_sec(1_000_000) == pytest.approx(1.0)
    assert meter.mb_per_sec(1_000_000) == pytest.approx(1000.0)
    assert meter.ops_per_sec(1_000_000) == pytest.approx(10_000)
    assert meter.gb_per_sec(0) == 0.0


def test_throughput_meter_interval_and_reset():
    meter = ThroughputMeter()
    meter.add(nbytes=1000, nops=2)
    first = meter.interval(1000)
    assert first["bytes"] == 1000.0 and first["ops"] == 2.0
    assert first["gb_per_sec"] == pytest.approx(1.0)
    assert first["ops_per_sec"] == pytest.approx(2e6)
    # Next interval only sees what arrived since the mark.
    meter.add(nbytes=500, nops=1)
    second = meter.interval(2000)
    assert second["bytes"] == 500.0 and second["ops"] == 1.0
    # Cumulative totals are untouched by interval marks.
    assert meter.bytes == 1500 and meter.ops == 3
    # Zero-length interval reports zero rates.
    assert meter.interval(2000)["gb_per_sec"] == 0.0
    with pytest.raises(ValueError):
        meter.interval(1999)
    meter.reset()
    assert meter.bytes == 0 and meter.ops == 0
    assert meter.interval(100)["bytes"] == 0.0
