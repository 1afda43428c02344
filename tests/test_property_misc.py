"""Property-based tests for the DES engine, statistics, TCP ordering,
the block device, the buffer cache, and the load balancers."""

from collections import OrderedDict
from itertools import groupby

from hypothesis import example, given, settings, strategies as st

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
from repro.sim import Engine, SimError
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


cache_extents = st.tuples(
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=1, max_value=24),
)
extent_lists = st.lists(cache_extents, min_size=1, max_size=8)


@given(
    inserts=st.lists(cache_extents, min_size=0, max_size=8),
    queries=st.lists(extent_lists, min_size=1, max_size=4),
)
@example(inserts=[], queries=[[(0, 4), (10, 2)], [(3, 1)]])
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
    # invalidate against a per-block pop, the empty cache included.
    for query in queries:
        cache.invalidate(dev, query)
        for first, count in query:
            for b in range(first, first + count):
                lru.pop((id(dev), b), None)
        assert list(cache._lru) == list(lru)
        assert metrics.gauge("cache.resident_blocks").value == len(lru)


# ----------------------------------------------------------------------
# Block device
# ----------------------------------------------------------------------
DEV_BS, DEV_BLOCKS = 512, 32


class _DictDevice:
    """Reference device: a dict of whole blocks; an absent block is
    zeros.  A partial block is read, modified and written back, and
    every extent of a call is range-checked."""

    def __init__(self):
        self.blocks = {}

    def _check(self, *blocknos):
        for b in blocknos:
            if not 0 <= b < DEV_BLOCKS:
                raise SimError(f"block {b} out of range")

    def _block(self, b):
        return self.blocks.get(b, bytes(DEV_BS))

    def read_block_data(self, b):
        self._check(b)
        return self._block(b)

    def write_block_data(self, b, data):
        self._check(b)
        if len(data) > DEV_BS:
            raise SimError("data larger than block")
        self.blocks[b] = data + bytes(DEV_BS - len(data))

    def gather(self, extents, offset, count):
        for first, n in extents:
            self._check(first, first + n - 1)
        blocks = [self._block(b) for f, n in extents for b in range(f, f + n)]
        skip = offset % DEV_BS
        return b"".join(blocks)[skip : skip + count]

    def scatter(self, extents, offset, data):
        skip, pos = offset % DEV_BS, 0
        for first, n in extents:
            self._check(first, first + n - 1)
            for b in range(first, first + n):
                chunk = data[pos : pos + DEV_BS - skip]
                if chunk:
                    old = self._block(b)
                    self.blocks[b] = old[:skip] + chunk + old[skip + len(chunk) :]
                    pos, skip = pos + len(chunk), 0
        if pos < len(data):
            raise SimError("data overflows extents")


def _outcome(call, *args):
    try:
        return call(*args)
    except SimError:
        return SimError


# Some extents run past the last block, so every call can hit the
# range check.
dev_extents = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DEV_BLOCKS),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=3,
)
dev_offsets = st.integers(min_value=0, max_value=3 * DEV_BS)
dev_ops = st.one_of(
    st.tuples(
        st.just("scatter"), dev_extents, dev_offsets,
        st.binary(max_size=5 * DEV_BS),
    ),
    st.tuples(
        st.just("write_block_data"),
        st.integers(min_value=-1, max_value=DEV_BLOCKS),
        st.binary(max_size=DEV_BS + 8),
    ),
)
dev_reads = st.lists(
    st.tuples(dev_extents, dev_offsets, st.integers(min_value=0, max_value=6 * DEV_BS)),
    max_size=6,
)


@settings(max_examples=200)
@given(ops=st.lists(dev_ops, max_size=12), reads=dev_reads)
@example(
    # An unaligned write with a partial first and last block; reads of
    # it, a short read, and a read of never-written blocks.
    ops=[("scatter", [(3, 2), (10, 1)], 700, bytes(range(256)) * 4)],
    reads=[
        ([(3, 2), (10, 1)], 700, 1024),
        ([(3, 1)], 100, 2000),
        ([(20, 2)], 0, 1024),
    ],
)
@example(
    # Overflowing data, out-of-range blocks, a short block write
    # (zero-padded) and an oversized one.
    ops=[
        ("scatter", [(1, 1)], 0, b"y" * 600),
        ("scatter", [(30, 3)], 0, b"z"),
        ("write_block_data", 5, b"abc"),
        ("write_block_data", 5, b"de"),
        ("write_block_data", DEV_BLOCKS, b""),
        ("write_block_data", 6, b"q" * (DEV_BS + 1)),
    ],
    reads=[([(5, 1)], 0, DEV_BS), ([(30, 3)], 0, 10)],
)
def test_flat_image_matches_dict_of_blocks(ops, reads):
    dev = BlockDevice(build_machine(Engine()).nvme, DEV_BLOCKS, block_size=DEV_BS)
    oracle = _DictDevice()
    for name, *args in ops:
        got = _outcome(getattr(dev, name), *args)
        assert got == _outcome(getattr(oracle, name), *args)
        for b in range(-1, DEV_BLOCKS + 1):
            got = _outcome(dev.read_block_data, b)
            assert got == _outcome(oracle.read_block_data, b)
    for extents, offset, count in reads:
        assert _outcome(dev.gather, extents, offset, count) == _outcome(
            oracle.gather, extents, offset, count
        )
    nonzero = sum(any(block) for block in oracle.blocks.values())
    assert dev.materialized_blocks() == nonzero


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
