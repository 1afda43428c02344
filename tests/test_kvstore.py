"""Tests for the sharded key-value store (the §4.4.3 motivating app)."""

import pytest

from repro.apps import KvClient, KvShard, key_shard
from repro.core import SolrosConfig, SolrosSystem
from repro.net.testbed import NetTestbed
from repro.sim import Engine


N_SHARDS = 4


@pytest.fixture()
def kv_env():
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=32))
    eng.run_process(system.boot(n_phis=N_SHARDS))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    shards = []
    for i in range(N_SHARDS):
        api = proxy.attach(system.dataplane(i))
        shard = KvShard(eng, system.dataplane(i), api, i)
        shard.start()
        shards.append(shard)
    client = KvClient(tb.client, tb.client_cpu)
    return eng, system, tb, proxy, shards, client


def test_put_get_roundtrip(kv_env):
    eng, system, tb, proxy, shards, client = kv_env

    def flow(eng):
        yield from client.put("alpha", "1")
        yield from client.put("beta", "2")
        a = yield from client.get("alpha")
        b = yield from client.get("beta")
        missing = yield from client.get("gamma")
        return a, b, missing

    a, b, missing = eng.run_process(flow(eng))
    assert a == ("ok", "1")
    assert b == ("ok", "2")
    assert missing == ("miss", None)


def test_keys_land_on_their_hash_shard(kv_env):
    eng, system, tb, proxy, shards, client = kv_env
    keys = [f"key-{i}" for i in range(12)]

    def flow(eng):
        for key in keys:
            yield from client.put(key, key.upper())

    eng.run_process(flow(eng))
    for key in keys:
        owner = key_shard(key, N_SHARDS)
        assert shards[owner].data.get(key) == key.upper()
        for other in range(N_SHARDS):
            if other != owner:
                assert key not in shards[other].data


def test_shard_stats_count_requests(kv_env):
    eng, system, tb, proxy, shards, client = kv_env

    def flow(eng):
        yield from client.put("k", "v")
        hit = yield from client.get("k")
        stats = yield from client.shard_stats("k")
        return hit, stats

    hit, stats = eng.run_process(flow(eng))
    assert hit == ("ok", "v")
    status, info = stats
    assert status == "ok"
    assert info["shard"] == key_shard("k", N_SHARDS)
    assert (info["put"], info["get"], info["miss"]) == (1, 1, 0)
    assert info["keys"] == 1
    assert "delete" not in info


def test_unknown_op_is_an_error(kv_env):
    eng, system, tb, proxy, shards, client = kv_env

    reply = eng.run_process(client._request(("delete", "k")))
    assert reply == ("error", "unknown op 'delete'")


def test_snapshot_and_recovery(kv_env):
    eng, system, tb, proxy, shards, client = kv_env
    keys = [f"persist-{i}" for i in range(8)]

    def populate(eng):
        for key in keys:
            yield from client.put(key, "durable")
        for shard in shards:
            yield from shard.snapshot()

    eng.run_process(populate(eng))

    # "Restart": wipe in-memory state, recover from the Solros FS.
    for shard in shards:
        shard.data = {}

    def recover(eng):
        total = 0
        for shard in shards:
            total += yield from shard.recover()
        return total

    assert eng.run_process(recover(eng)) == len(keys)

    def verify(eng):
        results = []
        for key in keys:
            results.append((yield from client.get(key)))
        return results

    assert eng.run_process(verify(eng)) == [("ok", "durable")] * len(keys)


def test_recover_with_no_snapshot_is_empty(kv_env):
    eng, system, tb, proxy, shards, client = kv_env

    def flow(eng):
        n = yield from shards[2].recover()
        return n

    assert eng.run_process(flow(eng)) == 0


def test_unknown_op_reports_error(kv_env):
    eng, system, tb, proxy, shards, client = kv_env

    def flow(eng):
        reply = yield from client._request(("increment", "key-0", 1))
        return reply

    status, message = eng.run_process(flow(eng))
    assert status == "error"
    assert "increment" in message
