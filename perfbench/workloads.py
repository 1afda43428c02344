"""The three workloads: seeded inputs, set-up, and the measured loop.

Every workload is a closed loop of simulated threads: a thread issues
its next operation only when the previous one has returned.  All
randomness comes from ``random.Random`` streams derived from the seed,
so one seed always yields the same operations and the same
simulated-time results; the simulator never sees the seed itself.

A workload object is built once per seed and then set up and measured
any number of times.  Each ``setup()`` builds a fresh engine and
machine, so every repetition replays exactly the same simulation.

The system is driven only through its public entry points:
``SolrosSystem``/``SolrosConfig``, ``DataPlaneOS.fs`` (a ``Vfs``),
``NetTestbed`` and ``KvShard``/``KvClient``.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.apps import KvClient, KvShard, key_shard
from repro.core import SolrosConfig, SolrosSystem
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.net.testbed import NetTestbed
from repro.sim import Engine

KB = 1024
MB = 1024 * KB
BLOCK = 4 * KB


class Run:
    """What one measured region produced.

    ``lat_ns`` holds the simulated latency of every operation,
    ``write_ns`` that of the writes (``pwrite``/``put``) alone.  Every
    failed or wrong-result operation counts in ``failed``; the first
    few are described in ``errors``.
    """

    def __init__(self) -> None:
        self.lat_ns: List[int] = []
        self.write_ns: List[int] = []
        self.payload_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.start_ns = 0
        self.end_ns = 0
        self.host_s = 0.0
        # In the end-to-end run a HostClock marks every ``mark_every``
        # completed ops, so the host rate is taken per segment.
        self.clock = None
        self.mark_every = 0
        self.marks: list = []

    def op(self, latency_ns: int, write: bool = False, nbytes: int = 0) -> None:
        self.attempted += 1
        self.lat_ns.append(latency_ns)
        if write:
            self.write_ns.append(latency_ns)
        self.payload_bytes += nbytes
        if self.clock is not None and len(self.lat_ns) % self.mark_every == 0:
            self.marks.append(self.clock.mark())

    def segment_rates(self) -> List[float]:
        """Completed ops per host reference second in each segment."""
        return self.clock.rates(self.marks, self.mark_every)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def finish(self, engine: Engine) -> None:
        self.end_ns = max(self.end_ns, engine.now)

    @property
    def sim_ns(self) -> int:
        return self.end_ns - self.start_ns


def zipf_cum_weights(n: int, s: float) -> List[float]:
    """Cumulative Zipf(s) weights over ranks 1..n (for ``choices``)."""
    return list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


class Workload:
    """Interface shared by the three workloads."""

    name = "abstract"
    # A layers.Probe brackets the measured region in the traced run; a
    # hostclock.HostClock marks it in the end-to-end run.
    probe = None
    clock = None
    SEGMENTS = 40      # host-clock segments per measured region

    def __init__(self, seed: int, ops: Optional[int] = None):
        self.seed = seed
        self.ops = ops or self.DEFAULT_OPS
        self.engine: Optional[Engine] = None

    def rng(self, stream: str) -> random.Random:
        """An independent seeded stream (stable across Python runs)."""
        return random.Random(f"perfbench/{self.name}/{self.seed}/{stream}")

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Run:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def _measured(self, run: Run, threads) -> None:
        """Run the closed-loop threads as the measured region, timing
        it on the host clock."""
        if self.probe is not None:
            self.probe.start(self.engine)
        if self.clock is not None:
            run.clock = self.clock
            run.mark_every = max(1, self.ops // self.SEGMENTS)
            run.marks.append(self.clock.mark())
        t0 = time.process_time()
        self._run_threads(run, threads)
        run.host_s = time.process_time() - t0
        if self.probe is not None:
            self.probe.stop()

    def _run_threads(self, run: Run, threads) -> None:
        """Spawn the closed-loop threads at the current instant and run
        the engine until they have all finished."""
        eng = self.engine
        run.start_ns = run.end_ns = eng.now
        procs = [eng.spawn(gen, name=f"bench{i}") for i, gen in enumerate(threads)]
        eng.run()
        for proc in procs:
            if not proc.triggered:
                run.fail("thread did not finish")
            elif not proc.ok:
                run.fail(f"thread crashed: {proc.value!r}")


class FsWorkload(Workload):
    """A file-system workload: each thread ``t`` writes only into its
    own ``WREGION`` bytes of ``WFILE``, modelled in ``wmodel[t]``."""

    def measure(self) -> Run:
        run = Run()
        self.wmodel = [bytearray(self.WREGION) for _ in range(self.THREADS)]
        self._measured(run, [self._thread(run, t) for t in range(self.THREADS)])
        self.engine.run_process(self._verify_writes(run))
        return run

    def _verify_writes(self, run: Run):
        """Read every write region back (untimed) and compare."""
        fs, core = self.dp.fs, self.cores[0]
        fd = yield from fs.open(core, self.WFILE, O_RDWR)
        for t in range(self.THREADS):
            data = yield from fs.pread(core, fd, self.WREGION, t * self.WREGION)
            if data != self.wmodel[t]:
                run.fail(f"write region {t} does not read back")
        yield from fs.close(core, fd)

    def close(self) -> None:
        self.system.shutdown()


# ----------------------------------------------------------------------
# fs-read-p2p: the paper's headline path (Fig. 1a / Fig. 11)
# ----------------------------------------------------------------------
class FsReadP2P(FsWorkload):
    """4 threads on the NUMA-local Phi: random 512 KB ``pread``s of a
    preallocated file, with one 128-512 KB ``pwrite`` in four.

    The policy picks NVMe→Phi P2P DMA, which bypasses the host buffer
    cache, so the device and the DMA path are the bottleneck.  A short
    seeded think time between operations keeps the four threads from
    locking into one fixed interleaving, so the latency distribution
    reflects contention instead of a single repeated value.
    """

    name = "fs-read-p2p"
    DEFAULT_OPS = 5000
    THREADS = 4
    IO = 512 * KB
    FILE = "/p2p.dat"
    FILE_BYTES = 32 * MB
    WFILE = "/p2p-w.dat"
    WREGION = 4 * MB              # each thread writes its own region
    WRITE_EVERY = 4
    WRITE_MIN = 128 * KB
    THINK_MEAN_NS = 40_000

    def __init__(self, seed: int, ops: Optional[int] = None):
        super().__init__(seed, ops)
        self.content = self.rng("content").randbytes(self.FILE_BYTES)
        self.wdata = self.rng("wdata").randbytes(2 * self.IO)
        per_thread = self.ops // self.THREADS
        # Write sizes are spread evenly over WRITE_MIN..IO, in a seeded
        # order per thread.
        n_writes = per_thread // self.WRITE_EVERY
        lo, hi = self.WRITE_MIN // BLOCK, self.IO // BLOCK
        sizes = [
            (lo + (hi - lo) * k // max(1, n_writes - 1)) * BLOCK
            for k in range(n_writes)
        ]
        self.plans = []
        for t in range(self.THREADS):
            rng = self.rng(f"thread{t}")
            rng.shuffle(sizes)
            wsize = iter(sizes)
            plan = []
            for i in range(per_thread):
                think = int(rng.expovariate(1.0 / self.THINK_MEAN_NS))
                if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                    size = next(wsize)
                    off = rng.randrange((self.WREGION - size) // BLOCK) * BLOCK
                    src = rng.randrange((2 * self.IO - size) // BLOCK) * BLOCK
                    plan.append(("w", think, off, size, src))
                else:
                    off = rng.randrange((self.FILE_BYTES - self.IO) // BLOCK) * BLOCK
                    plan.append(("r", think, off, self.IO, 0))
            self.plans.append(plan)

    def setup(self) -> None:
        self.engine = eng = Engine()
        cfg = SolrosConfig(disk_blocks=16 * 1024, max_inodes=16)
        self.system = SolrosSystem(eng, cfg)
        eng.run_process(self.system.boot(n_phis=1))
        self.dp = self.system.dataplane(0)
        self.cores = self.dp.app_cores(self.THREADS)
        eng.run_process(self._populate(self.cores[0]))

    def _populate(self, core):
        fs = self.dp.fs
        fd = yield from fs.open(core, self.FILE, O_CREAT | O_RDWR)
        for off in range(0, self.FILE_BYTES, self.IO):
            yield from fs.pwrite(core, fd, off, self.content[off : off + self.IO])
        yield from fs.close(core, fd)
        fd = yield from fs.open(core, self.WFILE, O_CREAT | O_RDWR)
        wbytes = self.THREADS * self.WREGION
        for off in range(0, wbytes, self.IO):
            yield from fs.pwrite(core, fd, off, length=self.IO)
        yield from fs.close(core, fd)

    def _thread(self, run: Run, t: int):
        eng, fs, core = self.engine, self.dp.fs, self.cores[t]
        rfd = yield from fs.open(core, self.FILE, O_RDWR)
        wfd = yield from fs.open(core, self.WFILE, O_RDWR)
        base = t * self.WREGION
        for kind, think, off, size, src in self.plans[t]:
            yield think
            t0 = eng.now
            try:
                if kind == "r":
                    data = yield from fs.pread(core, rfd, size, off)
                    ok = data == self.content[off : off + size]
                else:
                    chunk = self.wdata[src : src + size]
                    n = yield from fs.pwrite(core, wfd, base + off, chunk)
                    ok = n == size
                    self.wmodel[t][off : off + size] = chunk
            except Exception as err:  # counted, the loop goes on
                run.fail(f"{kind}@{off}: {err!r}")
                continue
            if ok:
                run.op(eng.now - t0, write=kind == "w", nbytes=size)
            else:
                run.fail(f"{kind}@{off}: wrong result")
            run.finish(eng)
        yield from fs.close(core, rfd)
        yield from fs.close(core, wfd)


# ----------------------------------------------------------------------
# fs-small-mixed: per-operation fixed cost on the buffered path
# ----------------------------------------------------------------------
class FsSmallMixed(FsWorkload):
    """8 threads on a cross-NUMA Phi, so the policy picks the buffered
    path.  The mix: Zipf-skewed 4 KB ``pread``s over a working set
    twice the buffer cache, 4 KB ``pwrite``s, open/close, stat and
    create/unlink.  Fixed per-operation cost dominates: stub, RPC
    rings, proxy queue, ExtFS metadata and cache hits and misses.
    """

    name = "fs-small-mixed"
    DEFAULT_OPS = 10800
    THREADS = 8
    PHI = 2                        # phi2 sits across the NUMA boundary
    CACHE_BYTES = 8 * MB
    FILE = "/ws.dat"
    FILE_BYTES = 2 * CACHE_BYTES
    WFILE = "/wr.dat"
    WREGION = 256 * KB
    SMALL = 16                     # small files for open/close and stat
    SMALL_BYTES = 200
    ZIPF_S = 0.9
    WARM_READS = 256
    # (kind, weight) of each step, and the system calls a step makes:
    # open is open+close, create is create+close+unlink.
    MIX = (("read", 50), ("write", 30), ("open", 10), ("stat", 8), ("create", 7))
    CALLS = {"read": 1, "write": 1, "open": 2, "stat": 1, "create": 3}

    def __init__(self, seed: int, ops: Optional[int] = None):
        super().__init__(seed, ops)
        self.content = self.rng("content").randbytes(self.FILE_BYTES)
        self.small = [
            self.rng(f"small{i}").randbytes(self.SMALL_BYTES)
            for i in range(self.SMALL)
        ]
        self.wdata = self.rng("wdata").randbytes(64 * BLOCK)
        nblocks = self.FILE_BYTES // BLOCK
        perm = list(range(nblocks))
        self.rng("perm").shuffle(perm)
        cum = zipf_cum_weights(nblocks, self.ZIPF_S)
        self.warm = [perm[r] for r in range(self.WARM_READS)]
        # Every thread runs the exact mix, in its own seeded order.
        weight = sum(w for _k, w in self.MIX)
        calls = sum(w * self.CALLS[k] for k, w in self.MIX) / weight
        steps = round(self.ops / self.THREADS / calls)
        kinds = [k for k, w in self.MIX for _ in range(round(steps * w / weight))]
        self.plans = []
        for t in range(self.THREADS):
            rng = self.rng(f"thread{t}")
            rng.shuffle(kinds)
            plan = []
            for kind in kinds:
                if kind == "read":
                    rank = rng.choices(range(nblocks), cum_weights=cum)[0]
                    plan.append(("read", perm[rank] * BLOCK))
                elif kind == "write":
                    off = rng.randrange(self.WREGION // BLOCK) * BLOCK
                    src = rng.randrange(63) * BLOCK
                    plan.append(("write", off, src))
                elif kind == "open":
                    plan.append(("open", rng.randrange(self.SMALL)))
                elif kind == "stat":
                    plan.append(("stat", rng.randrange(self.SMALL + 1)))
                else:
                    plan.append(("create",))
            self.plans.append(plan)

    def _small_path(self, i: int) -> str:
        return f"/s{i}"

    def setup(self) -> None:
        self.engine = eng = Engine()
        cfg = SolrosConfig(
            disk_blocks=16 * 1024,
            max_inodes=64,
            buffer_cache_bytes=self.CACHE_BYTES,
        )
        self.system = SolrosSystem(eng, cfg)
        eng.run_process(self.system.boot(n_phis=self.PHI + 1))
        self.dp = self.system.dataplane(self.PHI)
        self.cores = self.dp.app_cores(self.THREADS)
        eng.run_process(self._populate(self.cores[0]))
        # Cache warm-up: touch the hottest blocks once, four at a time.
        eng.run_process(self._warm())

    def _populate(self, core):
        fs = self.dp.fs
        fd = yield from fs.open(core, self.FILE, O_CREAT | O_RDWR)
        step = 256 * KB
        for off in range(0, self.FILE_BYTES, step):
            yield from fs.pwrite(core, fd, off, self.content[off : off + step])
        yield from fs.close(core, fd)
        fd = yield from fs.open(core, self.WFILE, O_CREAT | O_RDWR)
        yield from fs.pwrite(core, fd, 0, length=self.THREADS * self.WREGION)
        yield from fs.close(core, fd)
        for i, data in enumerate(self.small):
            fd = yield from fs.open(core, self._small_path(i), O_CREAT | O_RDWR)
            yield from fs.pwrite(core, fd, 0, data)
            yield from fs.close(core, fd)

    def _warm(self):
        eng, fs = self.engine, self.dp.fs

        def reader(core, blocks):
            fd = yield from fs.open(core, self.FILE, O_RDWR)
            for b in blocks:
                yield from fs.pread(core, fd, BLOCK, b * BLOCK)
            yield from fs.close(core, fd)

        procs = [
            eng.spawn(reader(self.cores[i], self.warm[i::4])) for i in range(4)
        ]
        yield eng.all_of(procs)

    def _call(self, run: Run, what: str, gen, check, write=False, nbytes=0):
        """Time one system call; ``check(result)`` says if it is right."""
        eng = self.engine
        t0 = eng.now
        try:
            result = yield from gen
        except Exception as err:  # counted, the loop goes on
            run.fail(f"{what}: {err!r}")
            return None
        if check(result):
            run.op(eng.now - t0, write=write, nbytes=nbytes)
        else:
            run.fail(f"{what}: wrong result {result!r}")
        run.finish(eng)
        return result

    def _thread(self, run: Run, t: int):
        fs, core = self.dp.fs, self.cores[t]
        rfd = yield from fs.open(core, self.FILE, O_RDWR)
        wfd = yield from fs.open(core, self.WFILE, O_RDWR)
        base = t * self.WREGION
        created = 0
        for step in self.plans[t]:
            kind = step[0]
            if kind == "read":
                off = step[1]
                want = self.content[off : off + BLOCK]
                yield from self._call(
                    run, f"pread@{off}", fs.pread(core, rfd, BLOCK, off),
                    lambda data: data == want, nbytes=BLOCK,
                )
            elif kind == "write":
                off, src = step[1], step[2]
                chunk = self.wdata[src : src + BLOCK]
                n = yield from self._call(
                    run, f"pwrite@{off}", fs.pwrite(core, wfd, base + off, chunk),
                    lambda n: n == BLOCK, write=True, nbytes=BLOCK,
                )
                if n == BLOCK:
                    self.wmodel[t][off : off + BLOCK] = chunk
            elif kind == "open":
                path = self._small_path(step[1])
                fd = yield from self._call(
                    run, f"open {path}", fs.open(core, path, O_RDWR),
                    lambda fd: isinstance(fd, int),
                )
                if fd is not None:
                    yield from self._call(
                        run, f"close {path}", fs.close(core, fd), lambda r: r is None
                    )
            elif kind == "stat":
                i = step[1]
                if i == self.SMALL:
                    path, size = self.FILE, self.FILE_BYTES
                else:
                    path, size = self._small_path(i), self.SMALL_BYTES
                yield from self._call(
                    run, f"stat {path}", fs.stat(core, path),
                    lambda st, size=size: st["size"] == size,
                )
            else:
                created += 1
                path = f"/tmp{t}-{created}"
                fd = yield from self._call(
                    run, f"create {path}", fs.open(core, path, O_CREAT | O_RDWR),
                    lambda fd: isinstance(fd, int),
                )
                if fd is not None:
                    yield from self._call(
                        run, f"close {path}", fs.close(core, fd), lambda r: r is None
                    )
                    yield from self._call(
                        run, f"unlink {path}", fs.unlink(core, path),
                        lambda r: r is None,
                    )
        yield from fs.close(core, rfd)
        yield from fs.close(core, wfd)


# ----------------------------------------------------------------------
# net-kv: the shared listening socket and the network stack
# ----------------------------------------------------------------------
class NetKv(Workload):
    """2 Phi shards behind the shared listening socket with the
    content-based balancer; 8 closed-loop clients on the client
    machine make connection-per-request ``get``/``put`` calls, 90/10,
    over Zipf keys preloaded in set-up.  The file system is idle.

    Each key has one writer client, so the versions of a key are put
    one after another; a ``get`` is right when it returns a version
    that was visible at some instant between its call and its reply.
    """

    name = "net-kv"
    DEFAULT_OPS = 12000
    CLIENTS = 8
    SHARDS = 2
    KEYS = 256
    ZIPF_S = 0.99
    PUT_EVERY = 10
    PRELOAD_WORKERS = 16
    VALUE_BYTES = 128

    def __init__(self, seed: int, ops: Optional[int] = None):
        super().__init__(seed, ops)
        perm = list(range(self.KEYS))
        self.rng("perm").shuffle(perm)
        self.keys = [f"key{i:04d}" for i in perm]   # rank order
        self.filler = self.rng("filler").randbytes(self.VALUE_BYTES).hex()
        cum = zipf_cum_weights(self.KEYS, self.ZIPF_S)
        owned = [
            [r for r in range(self.KEYS) if r % self.CLIENTS == c]
            for c in range(self.CLIENTS)
        ]
        per_client = self.ops // self.CLIENTS
        self.plans = []
        for c in range(self.CLIENTS):
            rng = self.rng(f"client{c}")
            own_cum = zipf_cum_weights(len(owned[c]), self.ZIPF_S)
            plan = []
            puts = set()
            for block in range(0, per_client, self.PUT_EVERY):
                puts.add(block + rng.randrange(self.PUT_EVERY))
            for i in range(per_client):
                if i in puts:
                    rank = rng.choices(owned[c], cum_weights=own_cum)[0]
                    plan.append(("put", self.keys[rank]))
                else:
                    rank = rng.choices(range(self.KEYS), cum_weights=cum)[0]
                    plan.append(("get", self.keys[rank]))
            self.plans.append(plan)

    def value(self, key: str, version: int) -> str:
        """Version ``version`` of ``key``: ``VALUE_BYTES`` characters."""
        head = f"{key}/{version}/"
        return head + self.filler[: self.VALUE_BYTES - len(head)]

    def setup(self) -> None:
        self.engine = eng = Engine()
        cfg = SolrosConfig(disk_blocks=8192, max_inodes=32)
        self.system = SolrosSystem(eng, cfg)
        eng.run_process(self.system.boot(n_phis=self.SHARDS))
        self.testbed = tb = NetTestbed(eng, self.system.machine, seed=self.seed)
        self.proxy = tb.solros_proxy()
        self.shards = []
        for i in range(self.SHARDS):
            dp = self.system.dataplane(i)
            shard = KvShard(eng, dp, self.proxy.attach(dp), i)
            shard.start()
            self.shards.append(shard)
        self.clients = [
            KvClient(tb.client, tb.client_cpu) for _ in range(self.CLIENTS)
        ]
        # Preload version 0 of every key.
        self.history: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        run = Run()
        self._run_threads(
            run,
            [
                self._preload(run, self.keys[w :: self.PRELOAD_WORKERS])
                for w in range(self.PRELOAD_WORKERS)
            ],
        )
        if run.failed:
            raise RuntimeError(f"net-kv preload failed: {run.errors}")

    def _preload(self, run: Run, keys):
        client = self.clients[0]
        for key in keys:
            reply = yield from client.put(key, self.value(key, 0))
            if reply != ("ok", None):
                run.fail(f"preload {key}: {reply!r}")
            self.history[key] = [(0, self.engine.now)]

    def measure(self) -> Run:
        run = Run()
        self.gets: List[Tuple[str, int, int, object]] = []
        self._measured(run, [self._client(run, c) for c in range(self.CLIENTS)])
        self._check(run)
        return run

    def _client(self, run: Run, c: int):
        eng, client = self.engine, self.clients[c]
        for kind, key in self.plans[c]:
            t0 = eng.now
            try:
                if kind == "put":
                    versions = self.history[key]
                    version = len(versions)
                    versions.append((t0, None))
                    value = self.value(key, version)
                    reply = yield from client.put(key, value)
                    versions[version] = (t0, eng.now)
                    ok = reply == ("ok", None)
                    nbytes = len(value)
                else:
                    reply = yield from client.get(key)
                    self.gets.append((key, t0, eng.now, reply))
                    ok = reply[0] == "ok"
                    nbytes = len(reply[1]) if ok else 0
            except Exception as err:  # counted, the loop goes on
                run.fail(f"{kind} {key}: {err!r}")
                continue
            if ok:
                run.op(eng.now - t0, write=kind == "put", nbytes=nbytes)
            else:
                run.fail(f"{kind} {key}: {reply!r}")
            run.finish(eng)

    def _check(self, run: Run) -> None:
        """Check every get against the put history, and every shard's
        final contents against the last version of each key."""
        for key, start, end, reply in self.gets:
            versions = self.history[key]
            # Visible at the call: the newest version whose put had
            # returned; visible by the reply: any put already issued.
            lo = max(
                v for v, (_s, e) in enumerate(versions)
                if e is not None and e <= start
            )
            hi = max(v for v, (s, _e) in enumerate(versions) if s <= end)
            if not any(
                reply == ("ok", self.value(key, v)) for v in range(lo, hi + 1)
            ):
                run.fail(f"get {key} returned {reply!r}")
        for key, versions in self.history.items():
            owner = self.shards[key_shard(key, self.SHARDS)]
            if owner.data.get(key) != self.value(key, len(versions) - 1):
                run.fail(f"shard holds a stale {key}")

    def close(self) -> None:
        for shard in self.shards:
            shard.stop()
        self.proxy.stop()
        self.system.shutdown()


WORKLOADS = {cls.name: cls for cls in (FsReadP2P, FsSmallMixed, NetKv)}
