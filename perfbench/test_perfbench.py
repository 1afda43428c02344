"""Self-tests of the benchmark: its checks catch wrong results, its
percentiles are honest, it moves when a layer is slowed, and the
traced run reproduces the untraced one.

Run from the repository root::

    python3 -m pytest perfbench -q

Most tests use small operation counts; the percentile test runs every
workload at full size.
"""

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import run as bench
from catalog import END_TO_END, PER_LAYER, SIM_METRICS
from layers import PACKAGES
from workloads import WORKLOADS

from repro.apps.kvstore import KvShard
from repro.fs.vfs import Vfs
from repro.hw.nvme import NvmeDevice
from repro.transport.ringbuf import RingBuffer
from repro.transport.rpc import RpcChannel

SEED = 1
SMALL = {"fs-read-p2p": 400, "fs-small-mixed": 800, "net-kv": 800}


def measure(name, ops=None, reps=1):
    """Runs of ``reps`` repetitions of one workload at ``ops`` ops."""
    workload = WORKLOADS[name](SEED, ops or SMALL[name])
    return [bench.repetition(workload)[1] for _ in range(reps)]


def sim(run):
    metrics = bench.sim_metrics(run)
    assert set(metrics) == set(SIM_METRICS)
    return metrics


@contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def sim_delay(ns):
    """Wrap a generator method so each call first waits ``ns``."""
    def make(original):
        def slowed(*args, **kwargs):
            yield ns
            return (yield from original(*args, **kwargs))
        return slowed
    return make


def host_busy(seconds):
    """Wrap a generator method so each call first burns host CPU."""
    def make(original):
        def busy(*args, **kwargs):
            end = time.process_time() + seconds
            while time.process_time() < end:
                pass
            return (yield from original(*args, **kwargs))
        return busy
    return make


# ----------------------------------------------------------------------
# The catalog and BENCHMARK.json agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_catalog():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _clock in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        PER_LAYER
    )
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )


# ----------------------------------------------------------------------
# Correctness inside the command
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_op_is_right_and_repeats_exactly(name):
    first, second = measure(name, reps=2)
    for run in (first, second):
        assert run.failed == 0, run.errors
        assert run.attempted == len(run.lat_ns) > 0
    assert sim(first) == sim(second)


def test_swapped_pread_arguments_are_caught():
    # The Vfs.pread(core, fd, nbytes, offset) gotcha: a caller that
    # passes (offset, nbytes) reads the wrong bytes.
    def make(original):
        def swapped(self, core, fd, nbytes, offset):
            return original(self, core, fd, offset, nbytes)
        return swapped

    with patched(Vfs, "pread", make):
        (run,) = measure("fs-read-p2p", ops=8)
    assert run.failed > 0


def test_lost_puts_are_caught():
    # A shard that acknowledges updates without applying them.
    def make(original):
        def forgetful(self, request):
            if request[0] == "put" and "/0/" not in request[2]:
                return ("ok", None)
            return original(self, request)
        return forgetful

    with patched(KvShard, "_apply", make):
        (run,) = measure("net-kv", ops=400)
    assert run.failed > 0


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in Path(bench.__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net-kv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Percentile honesty (full size)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_at_least_ten_samples_lie_beyond_each_p99(name):
    (run,) = measure(name, ops=WORKLOADS[name].DEFAULT_OPS)
    counts = bench.sample_counts(run)
    assert counts["sample.beyond_p99"] >= 10, counts
    assert counts["sample.write_beyond_p99"] >= 10, counts
    metrics = sim(run)
    assert metrics["sim_p99_us"] > metrics["sim_p50_us"]
    assert metrics["sim_write_p99_us"] > metrics["sim_write_p50_us"]


# ----------------------------------------------------------------------
# Sensitivity: slowing one layer moves the numbers it should
# ----------------------------------------------------------------------
def test_nvme_delay_slows_p2p_reads_and_not_net_kv():
    (p2p,) = measure("fs-read-p2p")
    (kv,) = measure("net-kv")
    with patched(NvmeDevice, "submit", sim_delay(400_000)):
        (slow_p2p,) = measure("fs-read-p2p")
        (slow_kv,) = measure("net-kv")
    assert sim(slow_p2p)["sim_gbps"] < 0.9 * sim(p2p)["sim_gbps"]
    assert sim(slow_kv) == sim(kv)


def test_rpc_delay_raises_fs_small_mixed_p50():
    (base,) = measure("fs-small-mixed")
    with patched(RpcChannel, "call", sim_delay(10_000)):
        (slow,) = measure("fs-small-mixed")
    assert sim(slow)["sim_p50_us"] > sim(base)["sim_p50_us"] + 5


def test_rpc_is_off_the_net_kv_message_path():
    # Connection-per-request traffic reaches the shards through the
    # net service's rings; RpcChannel.call only carries socket set-up
    # (listen), which happens before the measured region.
    (base,) = measure("net-kv")
    with patched(RpcChannel, "call", sim_delay(10_000)):
        (slow,) = measure("net-kv")
    assert sim(slow) == sim(base)


def test_ring_delay_raises_net_kv_p50():
    (base,) = measure("net-kv")
    with patched(RingBuffer, "send", sim_delay(10_000)):
        (slow,) = measure("net-kv")
    assert sim(slow)["sim_p50_us"] > sim(base)["sim_p50_us"] + 5


def test_host_busy_work_lowers_host_rate_only():
    def rate(runs):
        return statistics.median(len(r.lat_ns) / r.host_s for r in runs)

    base = measure("fs-small-mixed", reps=2)
    with patched(RingBuffer, "send", host_busy(200e-6)):
        slow = measure("fs-small-mixed", reps=2)
    assert rate(slow) < 0.8 * rate(base)
    assert sim(slow[0]) == sim(base[0])


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
ACTIVE = {
    "fs-read-p2p": (
        "fs.stub.calls", "transport.rpc.calls", "transport.ringbuf.sends",
        "transport.combining.calls", "fs.proxy.requests", "fs.extfs.calls",
        "hw.nvme.cmds", "hw.nvme.bytes", "fs.buffercache.lookups",
    ),
    "fs-small-mixed": (
        "fs.stub.calls", "transport.rpc.calls", "transport.ringbuf.sends",
        "transport.combining.calls", "fs.proxy.requests", "fs.extfs.calls",
        "fs.buffercache.lookups", "fs.buffercache.hit_ratio", "hw.nvme.cmds",
        "hw.topology.dma_bytes",
    ),
    "net-kv": (
        "transport.ringbuf.sends", "transport.combining.calls",
        "net.socket_api.calls", "net.tcp.calls", "hw.nic.packets",
        "net.balancer.max_shard_share",
    ),
}
IDLE = {
    "fs-read-p2p": ("net.tcp.calls", "hw.nic.packets", "hw.topology.dma_bytes"),
    "fs-small-mixed": ("net.tcp.calls", "hw.nic.packets", "core.policy.p2p_ratio"),
    "net-kv": ("fs.stub.calls", "hw.nvme.cmds", "hw.topology.dma_bytes"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reproduces_and_decomposes(name):
    workload = WORKLOADS[name](SEED, SMALL[name])
    out = bench.traced(workload)
    assert out.correct, out.problems    # includes traced sim == untraced sim
    metrics = out.metrics
    assert set(metrics) == {n for n, *_rest in PER_LAYER}
    for key in ACTIVE[name]:
        assert metrics[key] > 0, key
    for key in IDLE[name]:
        assert metrics[key] == 0, key
    if name == "fs-read-p2p":
        assert metrics["core.policy.p2p_ratio"] == 1.0
    if name != "net-kv":
        recs = out.probe.recs
        assert (
            recs["fs.stub"].mean_us()
            >= recs["transport.rpc"].mean_us()
            >= recs["fs.proxy"].mean_us()
            > 0
        )
    rollup = out.probe.host_rollup()
    parts = sum(metrics[f"host.{pkg}_s"] for pkg in PACKAGES + ("other",))
    assert parts == pytest.approx(rollup["total"], rel=1e-9)
    assert metrics["host.tracing_overhead"] > 1.0
