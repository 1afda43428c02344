"""Per-layer probes for the traced run.

:class:`Probe` wraps the public calls of each layer module from the
outside (the program itself is not edited) and records, on the
simulated clock, how often each was called and how long each call
took: ``engine.now`` at entry and at return.  Wrapping a generator in
another generator that only forwards (``yield from``) adds no
simulated event, so a traced run reproduces the untraced run's
simulated results exactly.

Only calls that start while the probe is active (the measured region)
are recorded.  The same window is profiled with ``cProfile``, and
host self time is rolled up by the ``repro`` package that owns each
function.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time
from collections import Counter
from typing import Dict, List

from repro.core.policy import P2P, DataPathPolicy
from repro.fs.buffercache import BufferCache
from repro.fs.extfs import ExtFS
from repro.fs.proxy import SolrosFsProxy
from repro.fs.stub import SolrosFsBackend
from repro.hw.nic import NicDevice
from repro.hw.nvme import NvmeDevice
from repro.hw.topology import Fabric
from repro.net.balancer import LoadBalancer
from repro.net.socket_api import SolrosNetApi, SolrosSocket
from repro.net.tcp import Connection, TcpHost
from repro.sim.stats import percentile
from repro.transport.combining import CombiningQueue
from repro.transport.ringbuf import RingBuffer
from repro.transport.rpc import RpcChannel

PACKAGES = ("sim", "transport", "fs", "hw", "net", "core", "apps", "obs")
STUB_CALLS = (
    "open", "close", "pread", "pwrite", "fsync", "stat", "unlink", "mkdir",
    "readdir",
)
EXTFS_CALLS = ("lookup", "read", "write", "fiemap", "create", "unlink", "stat")


class Rec:
    """Calls, errors and simulated durations (ns) of one wrapped set."""

    __slots__ = ("calls", "errors", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.durations: List[int] = []

    def mean_us(self) -> float:
        if not self.durations:
            return 0.0
        return sum(self.durations) / len(self.durations) / 1000.0

    def pct_us(self, p: float) -> float:
        if not self.durations:
            return 0.0
        return percentile(self.durations, p) / 1000.0


class Probe:
    """Install with ``with Probe() as probe:``; bracket the measured
    region with :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.engine = None
        self.active = False
        self.recs: Dict[str, Rec] = {}
        self.counts: Counter = Counter()
        self.proxy_cores: set = set()
        self.queues: Dict[int, tuple] = {}   # id -> (queue, batches at first sight)
        self.rings: Dict[int, tuple] = {}    # id -> (ring, dma, memcpy at first sight)
        self.picks: Counter = Counter()
        self._nvme_inflight = 0
        self._nvme_busy_from = 0
        self.nvme_busy_ns = 0
        self.profiler = cProfile.Profile(builtins=False)
        self.host_s = 0.0
        self._t0 = 0.0
        self._patches: list = []

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def __enter__(self) -> "Probe":
        for name in STUB_CALLS:
            self._wrap(SolrosFsBackend, name, "fs.stub")
        self._wrap(RpcChannel, "call", "transport.rpc")
        self._wrap(RingBuffer, "send", "transport.ringbuf.send", before=self._on_ring)
        self._wrap(RingBuffer, "recv", "transport.ringbuf.recv", before=self._on_ring)
        self._wrap(
            CombiningQueue, "execute", "transport.combining", before=self._on_queue
        )
        self._wrap(SolrosFsProxy, "handle", "fs.proxy", before=self._on_proxy)
        for name in EXTFS_CALLS:
            self._wrap(ExtFS, name, "fs.extfs")
        self._wrap(
            NvmeDevice, "submit", "hw.nvme", before=self._nvme_enter,
            after=self._nvme_exit,
        )
        self._wrap(Fabric, "dma_copy", "hw.topology", before=self._on_dma)
        self._wrap(SolrosSocket, "send", "net.socket_api")
        self._wrap(SolrosSocket, "recv", "net.socket_api")
        self._wrap(SolrosNetApi, "connect", "net.socket_api")
        self._wrap(Connection, "send", "net.tcp")
        self._wrap(Connection, "recv", "net.tcp")
        self._wrap(TcpHost, "connect", "net.tcp")
        self._wrap(NicDevice, "transmit", "hw.nic", before=self._on_nic)
        self._wrap(NicDevice, "receive", "hw.nic", before=self._on_nic)
        self._wrap_plain(BufferCache, "split_extents", self._cache_lookup)
        self._wrap_plain(DataPathPolicy, "choose", self._policy_choose)
        for cls in LoadBalancer.__subclasses__():
            if "pick" in cls.__dict__:
                self._wrap_plain(cls, "pick", self._balancer_pick)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr, key, before=None, after=None) -> None:
        """Replace the generator method ``owner.attr`` by a timed one."""
        original = owner.__dict__[attr]
        rec = self.recs.setdefault(key, Rec())
        probe = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not probe.active:
                return (yield from original(*args, **kwargs))
            if before is not None:
                before(*args, **kwargs)
            t0 = probe.engine.now
            rec.calls += 1
            try:
                result = yield from original(*args, **kwargs)
            except Exception:
                rec.errors += 1
                raise
            finally:
                if after is not None:
                    after()
            rec.durations.append(probe.engine.now - t0)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def _wrap_plain(self, owner, attr, observe) -> None:
        """Replace the plain method ``owner.attr``; ``observe`` sees the
        call's arguments, its result and the object's state around it."""
        original = owner.__dict__[attr]
        probe = self

        @functools.wraps(original)
        def observed(obj, *args, **kwargs):
            if not probe.active:
                return original(obj, *args, **kwargs)
            return observe(original, obj, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, observed)

    # ------------------------------------------------------------------
    # Measured region
    # ------------------------------------------------------------------
    def start(self, engine) -> None:
        self.engine = engine
        self.active = True
        self._t0 = time.process_time()
        self.profiler.enable()

    def stop(self) -> None:
        if self.active:
            self.profiler.disable()
            self.host_s += time.process_time() - self._t0
            self.active = False

    # ------------------------------------------------------------------
    # Per-call observers
    # ------------------------------------------------------------------
    def _on_ring(self, ring, *args, **kwargs) -> None:
        if id(ring) not in self.rings:
            s = ring.stats
            self.rings[id(ring)] = (ring, s.dma_copies, s.memcpy_copies)

    def _on_queue(self, queue, *args, **kwargs) -> None:
        if id(queue) not in self.queues:
            self.queues[id(queue)] = (queue, queue.stats.batches)

    def _on_proxy(self, proxy, core, *args, **kwargs) -> None:
        self.proxy_cores.add(id(core))

    def _nvme_enter(self, device, initiator, ops, *args, **kwargs) -> None:
        mdts = device.params.mdts_bytes
        self.counts["nvme.cmds"] += sum(-(-op.nbytes // mdts) for op in ops)
        self.counts["nvme.bytes"] += sum(op.nbytes for op in ops)
        if self._nvme_inflight == 0:
            self._nvme_busy_from = self.engine.now
        self._nvme_inflight += 1

    def _nvme_exit(self) -> None:
        self._nvme_inflight -= 1
        if self._nvme_inflight == 0:
            self.nvme_busy_ns += self.engine.now - self._nvme_busy_from

    def _on_dma(self, fabric, initiator, src, dst, nbytes) -> None:
        self.counts["dma.bytes"] += nbytes

    def _on_nic(self, nic, nbytes) -> None:
        self.counts["nic.packets"] += nic.packet_count(nbytes)

    def _cache_lookup(self, original, cache, *args, **kwargs):
        stats = cache.stats
        hits, misses = stats.hits, stats.misses
        result = original(cache, *args, **kwargs)
        self.counts["cache.hits"] += stats.hits - hits
        self.counts["cache.lookups"] += stats.hits - hits + stats.misses - misses
        return result

    def _policy_choose(self, original, policy, *args, **kwargs):
        decision = original(policy, *args, **kwargs)
        self.counts["policy.decisions"] += 1
        if decision.mode == P2P:
            self.counts["policy.p2p"] += 1
        return decision

    def _balancer_pick(self, original, balancer, *args, **kwargs):
        index = original(balancer, *args, **kwargs)
        self.picks[index] += 1
        return index

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def host_rollup(self) -> Dict[str, float]:
        """Profiled self time (s) per ``repro`` package, plus the total."""
        by_pkg = dict.fromkeys(PACKAGES + ("other",), 0.0)
        stats = pstats.Stats(self.profiler)
        for (filename, _line, _func), row in stats.stats.items():
            by_pkg[package_of(filename)] += row[2]   # tottime
        by_pkg["total"] = stats.total_tt
        return by_pkg

    def metrics(self, sim_ns: int) -> Dict[str, float]:
        """Every per-layer metric; a layer the workload leaves idle
        reads 0."""
        r, c = self.recs, self.counts
        stub, rpc, proxy = r["fs.stub"], r["transport.rpc"], r["fs.proxy"]
        send, recv = r["transport.ringbuf.send"], r["transport.ringbuf.recv"]
        nvme = r["hw.nvme"]
        dma = sum(ring.stats.dma_copies - d for ring, d, _m in self.rings.values())
        copies = dma + sum(
            ring.stats.memcpy_copies - m for ring, _d, m in self.rings.values()
        )
        batches = sum(q.stats.batches - b for q, b in self.queues.values())
        combining = r["transport.combining"].calls
        picks = sum(self.picks.values())
        host = self.host_rollup()
        total = host.pop("total")
        out = {
            "fs.stub.calls": stub.calls,
            "fs.stub.sim_us_p50": stub.pct_us(50),
            "fs.stub.sim_us_p99": stub.pct_us(99),
            "transport.rpc.calls": rpc.calls,
            "transport.rpc.errors": rpc.errors,
            "transport.rpc.sim_us_p50": rpc.pct_us(50),
            "transport.rpc.sim_us_p99": rpc.pct_us(99),
            "transport.ringbuf.sends": send.calls,
            "transport.ringbuf.send_sim_us_mean": send.mean_us(),
            "transport.ringbuf.recv_sim_us_mean": recv.mean_us(),
            "transport.ringbuf.dma_share": dma / copies if copies else 0.0,
            "transport.combining.calls": combining,
            "transport.combining.ops_per_batch": (
                combining / batches if batches else 0.0
            ),
            "fs.proxy.requests": proxy.calls,
            "fs.proxy.handle_sim_us_p50": proxy.pct_us(50),
            # Time an RPC spends outside the proxy handler: rings,
            # dispatch and waiting for a free proxy worker.  Only the
            # fs workloads call the proxy, and there every RPC is fs.
            "fs.proxy.queue_wait_sim_us_mean": (
                rpc.mean_us() - proxy.mean_us() if proxy.calls else 0.0
            ),
            "fs.proxy.busy_ratio": (
                sum(proxy.durations) / (len(self.proxy_cores) * sim_ns)
                if proxy.calls else 0.0
            ),
            "fs.extfs.calls": r["fs.extfs"].calls,
            "fs.extfs.sim_us_mean": r["fs.extfs"].mean_us(),
            "fs.buffercache.lookups": c["cache.lookups"],
            "fs.buffercache.hit_ratio": (
                c["cache.hits"] / c["cache.lookups"] if c["cache.lookups"] else 0.0
            ),
            "core.policy.p2p_ratio": (
                c["policy.p2p"] / c["policy.decisions"]
                if c["policy.decisions"] else 0.0
            ),
            "hw.nvme.cmds": c["nvme.cmds"],
            "hw.nvme.bytes": c["nvme.bytes"],
            "hw.nvme.sim_us_p50": nvme.pct_us(50),
            "hw.nvme.busy_ratio": self.nvme_busy_ns / sim_ns,
            "hw.topology.dma_bytes": c["dma.bytes"],
            "hw.topology.dma_sim_us_mean": r["hw.topology"].mean_us(),
            "net.socket_api.calls": r["net.socket_api"].calls,
            "net.socket_api.sim_us_p50": r["net.socket_api"].pct_us(50),
            "net.tcp.calls": r["net.tcp"].calls,
            "net.tcp.sim_us_mean": r["net.tcp"].mean_us(),
            "hw.nic.packets": c["nic.packets"],
            "hw.nic.sim_us_mean": r["hw.nic"].mean_us(),
            "net.balancer.max_shard_share": (
                max(self.picks.values()) / picks if picks else 0.0
            ),
        }
        for pkg, seconds in host.items():
            out[f"host.{pkg}_s"] = seconds
        out["host.sim_share"] = host["sim"] / total if total else 0.0
        return out


def package_of(filename: str) -> str:
    """The ``repro`` package a profiled function belongs to."""
    parts = filename.replace("\\", "/").split("/")
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in PACKAGES:
            return parts[i + 1]
    return "other"
