"""Unit tests for Resource and BandwidthLink."""

import pytest

from repro.sim import Engine, Resource, BandwidthLink


def test_resource_serializes_beyond_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    finish_times = []

    def worker(eng):
        yield from res.using(100)
        finish_times.append(eng.now)

    for _ in range(4):
        eng.spawn(worker(eng))
    eng.run()
    # Two run 0-100, next two 100-200.
    assert finish_times == [100, 100, 200, 200]


def test_resource_release_without_request_raises():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(Exception):
        res.release()


def test_resource_queue_length_visible():
    eng = Engine()
    res = Resource(eng, capacity=1)
    probe = []

    def holder(eng):
        yield from res.using(100)

    def waiter(eng):
        yield 10
        ev = res.request()
        probe.append(res.queue_length)
        yield ev
        res.release()

    eng.spawn(holder(eng))
    eng.spawn(waiter(eng))
    eng.run()
    assert probe == [1]


def test_bandwidth_link_single_transfer_time():
    eng = Engine()
    # 1 byte/ns == 1 GB/s; 1000 bytes -> 1000 ns plus 50 ns latency.
    link = BandwidthLink(eng, bytes_per_ns=1.0, latency_ns=50)

    def main(eng):
        yield from link.transfer(1000)
        return eng.now

    assert eng.run_process(main(eng)) == 1050


def test_bandwidth_link_concurrent_transfers_serialize():
    eng = Engine()
    link = BandwidthLink(eng, bytes_per_ns=1.0, latency_ns=0)
    done = []

    def sender(eng):
        yield from link.transfer(100)
        done.append(eng.now)

    for _ in range(3):
        eng.spawn(sender(eng))
    eng.run()
    assert done == [100, 200, 300]
    assert link.bytes_moved == 300


def test_bandwidth_link_multiple_channels_parallelize():
    eng = Engine()
    link = BandwidthLink(eng, bytes_per_ns=1.0, latency_ns=0, channels=3)
    done = []

    def sender(eng):
        yield from link.transfer(100)
        done.append(eng.now)

    for _ in range(3):
        eng.spawn(sender(eng))
    eng.run()
    assert done == [100, 100, 100]


def test_bandwidth_link_zero_bytes_costs_latency_only():
    eng = Engine()
    link = BandwidthLink(eng, bytes_per_ns=2.0, latency_ns=30)

    def main(eng):
        yield from link.transfer(0)
        return eng.now

    assert eng.run_process(main(eng)) == 30


def test_bandwidth_link_rejects_bad_params():
    eng = Engine()
    with pytest.raises(ValueError):
        BandwidthLink(eng, bytes_per_ns=0)

    link = BandwidthLink(eng, bytes_per_ns=1.0)

    def main(eng):
        yield from link.transfer(-1)

    with pytest.raises(ValueError):
        eng.run_process(main(eng))
