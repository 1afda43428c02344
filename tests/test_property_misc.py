"""Property-based tests for the DES engine, statistics, TCP ordering,
the buffer cache, and the load balancers."""

from collections import OrderedDict
from itertools import groupby

from hypothesis import given, settings, strategies as st

from repro.fs import BlockDevice, BufferCache
from repro.hw import build_machine
from repro.obs.metrics import MetricsRegistry
from repro.net import (
    ContentBasedBalancer,
    LeastLoadedBalancer,
    LoopbackWire,
    Network,
    RoundRobinBalancer,
    SocketAddr,
    TcpHost,
)
from repro.sim import Engine
from repro.sim.stats import cdf_points, percentile, summarize

settings.register_profile("misc", max_examples=30, deadline=None)
settings.load_profile("misc")


# ----------------------------------------------------------------------
# DES engine
# ----------------------------------------------------------------------
@given(
    delays=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30
    )
)
def test_engine_time_is_monotonic_and_exact(delays):
    eng = Engine()
    observed = []

    def proc(eng):
        for d in delays:
            yield d
            observed.append(eng.now)

    eng.run_process(proc(eng))
    assert observed == [sum(delays[: i + 1]) for i in range(len(delays))]
    assert all(b >= a for a, b in zip(observed, observed[1:]))


@given(
    delays=st.lists(
        st.integers(min_value=0, max_value=5_000), min_size=2, max_size=20
    )
)
def test_all_of_completes_at_max_delay(delays):
    eng = Engine()

    def child(d):
        yield d
        return d

    def main(eng):
        procs = [eng.spawn(child(d)) for d in delays]
        values = yield eng.all_of(procs)
        return values, eng.now

    values, now = eng.run_process(main(eng))
    assert values == delays
    assert now == max(delays)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@given(
    samples=st.lists(
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_percentile_bounds_and_monotonicity(samples):
    p0 = percentile(samples, 0)
    p50 = percentile(samples, 50)
    p100 = percentile(samples, 100)
    assert p0 == min(samples)
    assert p100 == max(samples)
    assert p0 <= p50 <= p100
    s = summarize(samples)
    assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
    assert s["count"] == len(samples)


@given(
    samples=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=150
    )
)
def test_cdf_points_monotone_and_complete(samples):
    points = cdf_points(samples, npoints=12)
    values = [v for v, _p in points]
    percents = [p for _v, p in points]
    assert values == sorted(values)
    assert percents == sorted(percents)
    assert percents[-1] == 100.0
    assert values[-1] == max(samples)


# ----------------------------------------------------------------------
# TCP ordering
# ----------------------------------------------------------------------
@given(
    messages=st.lists(
        st.integers(min_value=1, max_value=8_000), min_size=1, max_size=25
    )
)
def test_tcp_delivers_all_messages_in_order(messages):
    eng = Engine()
    m = build_machine(eng)
    net = Network(eng)
    a = TcpHost(net, "a", m.host, jitter=False)
    b = TcpHost(net, "b", m.host_sockets[1], jitter=False)
    net.link("a", "b", LoopbackWire())
    b.listen(80)
    got = []

    def server(eng):
        core = m.host_core(0, socket=1)
        conn = yield from b._listeners[80].accept(core)
        while True:
            payload, n = yield from conn.recv(core)
            if payload is None:
                return
            got.append((payload, n))

    def client(eng):
        core = m.host_core(1)
        conn = yield from a.connect(core, SocketAddr("b", 80))
        for i, size in enumerate(messages):
            yield from conn.send(core, i, size)
        yield from conn.close(core)

    s = eng.spawn(server(eng))
    c = eng.spawn(client(eng))
    eng.run()
    assert s.ok and c.ok
    assert got == [(i, size) for i, size in enumerate(messages)]


# ----------------------------------------------------------------------
# Buffer cache
# ----------------------------------------------------------------------
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=30,
    ),
    capacity_blocks=st.integers(min_value=4, max_value=64),
)
def test_cache_never_exceeds_capacity_and_split_is_partition(
    inserts, capacity_blocks
):
    eng = Engine()
    m = build_machine(eng)
    dev = BlockDevice(m.nvme, 4096)
    cache = BufferCache(capacity_blocks * 4096)
    for first, count in inserts:
        cache.insert(dev, [(first, count)])
        assert len(cache) <= capacity_blocks
    # split_extents partitions any query exactly.
    query = [(0, 64), (100, 32)]
    cached, missing = cache.split_extents(dev, query)
    covered = set()
    for bucket in (cached, missing):
        for first, count in bucket:
            for b in range(first, first + count):
                assert b not in covered, "overlapping split"
                covered.add(b)
    expected = set()
    for first, count in query:
        expected.update(range(first, first + count))
    assert covered == expected
    for first, count in cached:
        for b in range(first, first + count):
            assert cache.contains(dev, b)


def _split_reference(lru, dev, extents):
    """Per-block split_extents: one probe per block, runs per extent."""
    cached, missing, hits = [], [], 0
    for first, count in extents:
        probes = []
        for b in range(first, first + count):
            key = (id(dev), b)
            hit = key in lru
            if hit:
                lru.move_to_end(key)
                hits += 1
            probes.append((b, hit))
        for hit, run in groupby(probes, key=lambda p: p[1]):
            run = list(run)
            (cached if hit else missing).append((run[0][0], len(run)))
    return cached, missing, hits


extent_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=1, max_value=24),
    ),
    min_size=1,
    max_size=8,
)


@given(inserts=extent_lists, queries=st.lists(extent_lists, min_size=1, max_size=4))
def test_cache_split_matches_per_block_reference(inserts, queries):
    eng = Engine()
    m = build_machine(eng)
    dev = BlockDevice(m.nvme, 4096)
    metrics = MetricsRegistry(eng)
    cache = BufferCache(48 * 4096, metrics=metrics)
    cache.insert(dev, inserts)
    lru = OrderedDict(cache._lru)
    hits = misses = 0
    for query in queries:
        want_cached, want_missing, want_hits = _split_reference(lru, dev, query)
        hits += want_hits
        misses += sum(c for _f, c in query) - want_hits
        assert cache.split_extents(dev, query) == (want_cached, want_missing)
        assert list(cache._lru) == list(lru)
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
        assert metrics.counter("cache.hits").value == hits
        assert metrics.counter("cache.misses").value == misses
        assert metrics.gauge("cache.hit_rate").value == cache.stats.hit_rate


# ----------------------------------------------------------------------
# Load balancers
# ----------------------------------------------------------------------
@given(
    n_members=st.integers(min_value=1, max_value=8),
    n_picks=st.integers(min_value=1, max_value=64),
)
def test_round_robin_is_perfectly_fair(n_members, n_picks):
    balancer = RoundRobinBalancer()
    members = list(range(n_members))
    counts = [0] * n_members
    for _ in range(n_picks):
        counts[balancer.pick(members, [0] * n_members)] += 1
    assert max(counts) - min(counts) <= 1


@given(
    loads=st.lists(
        st.integers(min_value=0, max_value=100), min_size=1, max_size=8
    )
)
def test_least_loaded_picks_minimum(loads):
    balancer = LeastLoadedBalancer()
    members = list(range(len(loads)))
    index = balancer.pick(members, loads)
    assert loads[index] == min(loads)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                  max_size=40),
    n_members=st.integers(min_value=1, max_value=6),
)
def test_content_based_is_deterministic_per_key(keys, n_members):
    balancer = ContentBasedBalancer(lambda payload, n: payload % n)
    members = list(range(n_members))
    for key in keys:
        first = balancer.pick(members, [0] * n_members, key)
        second = balancer.pick(members, [0] * n_members, key)
        assert first == second == key % n_members
