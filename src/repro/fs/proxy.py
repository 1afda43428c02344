"""Control-plane file-system proxy (§4.3.2).

The proxy pulls extended-9P RPCs from co-processors and executes them
against the host's extent file system.  For data calls it is *not* a
dumb relay — it is where the paper's two headline optimizations live:

* **Data-path decision** per request (P2P vs buffered) via
  :class:`~repro.core.policy.DataPathPolicy`, using the PCIe topology,
  the shared host buffer cache, and per-file flags.
* **Io-vector coalescing** (§5): all NVMe commands of one read/write
  are submitted as a single ioctl — one doorbell ring, one completion
  interrupt — which is why Phi-Solros can beat the host itself in
  Figure 1(a).

For buffered transfers the proxy stages data in host RAM and drives a
*host* DMA engine (host-initiated transfers are 2.3× faster than
Phi-initiated ones, Figure 4).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..core.policy import P2P, DataPathPolicy, PathDecision
from ..faults.breaker import CircuitBreaker
from ..faults.plan import InjectedFault
from ..hw.cpu import CPU, Core
from ..hw.topology import Fabric
from ..obs.hub import hub_of
from ..obs.tracer import ctx_of
from ..sim.engine import Engine
from ..transport.rpc import RpcChannel
from .buffercache import BufferCache
from .errors import (
    BadFileDescriptor,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
)
from .extfs import FS_PAGE_UNITS, ExtFS
from .ninep import (
    Tclunk,
    Tfsync,
    Tmkdir,
    Topen,
    Tread,
    Treaddir,
    Tremove,
    Tstat,
    Twrite,
)
from .vfs import O_BUFFER, O_CREAT, O_TRUNC

__all__ = ["SolrosFsProxy", "ProxyStats"]

PROXY_OP_UNITS = 400  # per-RPC proxy bookkeeping on the host


class ProxyStats:
    def __init__(self) -> None:
        self.requests = 0
        self.p2p_reads = 0
        self.buffered_reads = 0
        self.p2p_writes = 0
        self.buffered_writes = 0
        self.bytes_read = 0


class _Session:
    """Per-co-processor state: fid table and target identity."""

    def __init__(self, phi_cpu: CPU):
        self.phi_cpu = phi_cpu
        self.fids: Dict[int, Tuple[Any, int]] = {}  # fid -> (inode, flags)
        self.next_fid = 1


class SolrosFsProxy:
    """The host-side file-system service."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        host_fs: ExtFS,
        host_cpu: CPU,
        cache: Optional[BufferCache] = None,
        policy: Optional[DataPathPolicy] = None,
    ):
        self.engine = engine
        self.fabric = fabric
        self.fs = host_fs
        self.host_cpu = host_cpu
        self.cache = cache
        self.policy = policy or DataPathPolicy(
            fabric, disk_node=host_fs.device.nvme.node
        )
        self.stats = stats = ProxyStats()
        self._sessions: Dict[int, _Session] = {}
        # Optional cross-co-processor prefetcher (§4): set by the
        # control plane when enabled.
        self.prefetcher = None
        # Fault injection + recovery (repro.faults).  With an injector
        # wired, P2P submissions are guarded by a per-device circuit
        # breaker (bounds from its plan) and degrade to the buffered
        # path on injected faults; without one, neither gate is ever
        # consulted.
        self.faults = None
        self._breakers: Dict[str, CircuitBreaker] = {}
        obs = hub_of(engine)
        self.tracer = obs.tracer
        obs.metrics.view(
            "proxy.path.p2p", lambda: stats.p2p_reads + stats.p2p_writes
        )
        obs.metrics.view(
            "proxy.path.buffered",
            lambda: stats.buffered_reads + stats.buffered_writes,
        )

    # ------------------------------------------------------------------
    # Circuit breaker (repro.faults)
    # ------------------------------------------------------------------
    def breaker(self, device_node: str) -> CircuitBreaker:
        """The breaker guarding P2P submissions to ``device_node``."""
        b = self._breakers.get(device_node)
        if b is None:
            plan = self.faults.plan
            b = CircuitBreaker(
                self.engine,
                device_node,
                failure_threshold=plan.breaker_threshold,
                reset_ns=plan.breaker_reset_ns,
                injector=self.faults,
            )
            self._breakers[device_node] = b
        return b

    def breaker_snapshots(self) -> list:
        return [
            self._breakers[k].snapshot() for k in sorted(self._breakers)
        ]

    def _p2p_allowed(self, device) -> bool:
        """Consult the device breaker; only active with faults wired."""
        if self.faults is None:
            return True
        if self.breaker(device.nvme.node).allow():
            return True
        self.faults.fallback_buffered()
        return False

    def _p2p_failed(self, device) -> None:
        self.breaker(device.nvme.node).record_failure()
        self.faults.fallback_buffered()

    def _p2p_succeeded(self, device) -> None:
        if self.faults is not None:
            self.breaker(device.nvme.node).record_success()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def serve(
        self,
        channel: RpcChannel,
        phi_cpu: CPU,
        n_workers: int = 4,
        first_core: int = 0,
        scheduler=None,
    ) -> None:
        """Attach a co-processor's RPC channel and start ``n_workers``
        ring drainers on consecutive host cores from ``first_core``.

        Without a ``scheduler`` they are the classic fixed pool, each
        executing requests FIFO.  With one (a
        ``repro.sched.RequestScheduler``) they are pullers feeding it,
        tagged with the co-processor's name, and execution happens on
        its shared elastic worker pool instead.
        """
        session = _Session(phi_cpu)
        self._sessions[id(channel)] = session

        def handler(core: Core, method: str, payload: Any, ctx) -> Generator:
            return self.handle(core, session, payload, ctx)

        cores = [
            self.host_cpu.core(first_core + i) for i in range(n_workers)
        ]
        channel.start_server(
            cores, handler, scheduler=scheduler, source=phi_cpu.name
        )

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def handle(
        self, core: Core, session: _Session, msg: Any, ctx=None
    ) -> Generator:
        self.stats.requests += 1
        yield core.compute(PROXY_OP_UNITS, "branchy")
        if isinstance(msg, Topen):
            result = yield from self._open(core, session, msg)
        elif isinstance(msg, Tclunk):
            session.fids.pop(msg.fid, None)
            yield 0
            result = None
        elif isinstance(msg, Tread):
            result = yield from self._read(core, session, msg, ctx)
        elif isinstance(msg, Twrite):
            result = yield from self._write(core, session, msg, ctx)
        elif isinstance(msg, Tremove):
            yield from self.fs.unlink(core, msg.path)
            result = None
        elif isinstance(msg, Tstat):
            result = yield from self.fs.stat(core, msg.path)
        elif isinstance(msg, Tmkdir):
            yield from self.fs.mkdir(core, msg.path)
            result = None
        elif isinstance(msg, Treaddir):
            result = yield from self.fs.readdir(core, msg.path)
        elif isinstance(msg, Tfsync):
            yield from self.fs.sync(core)
            result = None
        else:
            raise InvalidArgument(f"unknown 9P message: {msg!r}")
        return result

    # ------------------------------------------------------------------
    # Open / fid management
    # ------------------------------------------------------------------
    def _open(self, core: Core, session: _Session, msg: Topen) -> Generator:
        try:
            inode = yield from self.fs.lookup(core, msg.path)
        except FileNotFound:
            if not msg.flags & O_CREAT:
                raise
            inode = yield from self.fs.create(core, msg.path)
        if msg.flags & O_TRUNC and inode.size:
            yield from self.fs.truncate(core, msg.path)
        fid = session.next_fid
        session.next_fid += 1
        session.fids[fid] = (inode, msg.flags)
        return fid

    def _fid(self, session: _Session, fid: int):
        try:
            return session.fids[fid]
        except KeyError:
            raise BadFileDescriptor(f"fid {fid}") from None

    # ------------------------------------------------------------------
    # Read / write (the Figure 6 data paths)
    # ------------------------------------------------------------------
    def _read(
        self, core: Core, session: _Session, msg: Tread, ctx=None
    ) -> Generator:
        inode, flags = self._fid(session, msg.fid)
        if inode.is_dir:
            raise IsADirectory(f"fid {msg.fid}")
        count = max(0, min(msg.count, inode.size - msg.offset))
        if count == 0:
            yield 0
            return b""
        if self.prefetcher is not None:
            self.prefetcher.record_access(inode, msg.target_node)
        fs_span = None
        if ctx is not None:
            fs_span = self.tracer.child("fs.fiemap", "fs", ctx, core=core)
        extents = yield from self.fs.fiemap(core, inode, msg.offset, count)
        decision, missing = self._decide(msg.target_node, flags, extents)
        if fs_span is not None:
            self.tracer.end(fs_span, mode=decision.mode, extents=len(extents))

        yield from self._transfer(
            core, "read", decision.mode == P2P, msg.target_node, count,
            extents, missing, ctx,
        )
        self.stats.bytes_read += count
        return self.fs.device.gather(extents, msg.offset, count)

    def _write(
        self, core: Core, session: _Session, msg: Twrite, ctx=None
    ) -> Generator:
        inode, flags = self._fid(session, msg.fid)
        if inode.is_dir:
            raise IsADirectory(f"fid {msg.fid}")
        if msg.count == 0:
            yield 0
            return 0
        fs_span = None
        if ctx is not None:
            fs_span = self.tracer.child(
                "fs.allocate+fiemap", "fs", ctx, core=core
            )
        yield from self.fs._ensure_allocated(core, inode, msg.offset + msg.count)
        extents = yield from self.fs.fiemap(core, inode, msg.offset, msg.count)
        decision, _ = self._decide(msg.source_node, flags, extents)
        if fs_span is not None:
            self.tracer.end(fs_span, mode=decision.mode, extents=len(extents))

        if msg.data is not None:
            # Functional truth: scatter the bytes into device blocks.
            self.fs.device.scatter(extents, msg.offset, msg.data)
        # A write stores every extent, cached or not.
        yield from self._transfer(
            core, "write", decision.mode == P2P, msg.source_node, msg.count,
            extents, extents, ctx,
        )
        if msg.offset + msg.count > inode.size:
            inode.size = msg.offset + msg.count
            self.fs._dirty_inodes.add(inode.ino)
        return msg.count

    def _transfer(
        self, core: Core, op: str, p2p: bool, node: str, nbytes: int,
        extents, missing, ctx,
    ) -> Generator:
        """Move one request's data between co-processor memory ``node``
        and the disk on the chosen path.

        * **P2P** (zero copy): the NVMe DMA engine reads or writes
          co-processor memory directly; one doorbell, one interrupt.  A
          P2P write then drops the stale host-cache copies it bypassed.
        * **Buffered**: stage the data in host RAM through the shared
          cache and move it with a host DMA engine.  A read computes,
          fetches its cache misses, then pushes; a write pulls,
          computes, then stores.

        An injected device fault on the P2P path degrades this request
        to the buffered path (nothing landed, so every extent moves
        again) and lets the breaker decide for the requests after it.
        The transfer is counted once, on the path that completed it.
        """
        device = self.fs.device
        write = op == "write"
        submit = device.submit_write if write else device.submit_read
        p2p = p2p and self._p2p_allowed(device)
        if p2p:
            span = sub_ctx = None
            if ctx is not None:
                span = self.tracer.child(
                    f"nvme.{op}", "device", ctx, core=core, nbytes=nbytes,
                    path="p2p",
                )
                sub_ctx = ctx_of(span, ctx)
            try:
                yield from submit(core, extents, node, coalesce=True, ctx=sub_ctx)
            except InjectedFault:
                if span is not None:
                    self.tracer.end(span, error=True)
                self._p2p_failed(device)
                p2p, missing = False, extents
            else:
                if span is not None:
                    self.tracer.end(span)
                if write and self.cache is not None:
                    self.cache.invalidate(device, extents)
                self._p2p_succeeded(device)
        if not p2p:
            host = self.host_cpu.node
            if write:
                pull = self.fabric.dma_copy(core, node, host, nbytes)
                yield from (
                    pull if ctx is None
                    else self._traced_dma(pull, "dma.pull", core, nbytes, ctx)
                )
            pages = (nbytes + 4095) // 4096
            yield core.compute(FS_PAGE_UNITS * pages, "branchy")
            if missing:
                span = sub_ctx = None
                if ctx is not None:
                    span = self.tracer.child(
                        f"nvme.{op}", "device", ctx, core=core, nbytes=nbytes,
                        path="buffered",
                    )
                    sub_ctx = ctx_of(span, ctx)
                yield from submit(core, missing, host, coalesce=True, ctx=sub_ctx)
                if span is not None:
                    self.tracer.end(span)
                if self.cache is not None:
                    self.cache.insert(device, missing)
            if not write:
                push = self.fabric.dma_copy(core, host, node, nbytes)
                yield from (
                    push if ctx is None
                    else self._traced_dma(push, "dma.push", core, nbytes, ctx)
                )
        field = f"{'p2p' if p2p else 'buffered'}_{op}s"
        setattr(self.stats, field, getattr(self.stats, field) + 1)

    def _traced_dma(
        self, copy: Generator, name: str, core: Core, nbytes: int, ctx
    ) -> Generator:
        """Run a ``Fabric.dma_copy`` inside its span (an untraced
        request runs the copy itself, without this frame)."""
        span = self.tracer.child(
            name, "transport", ctx, core=core, nbytes=nbytes
        )
        yield from copy
        self.tracer.end(span)

    # ------------------------------------------------------------------
    # Policy glue
    # ------------------------------------------------------------------
    def _decide(
        self, target_node: str, flags: int, extents
    ) -> Tuple[PathDecision, list]:
        """The path for ``extents`` and the ones missing from the cache."""
        hit_fraction = 0.0
        if self.cache is None:
            missing = list(extents)
        else:
            cached, missing = self.cache.split_extents(self.fs.device, extents)
            total = hits = 0
            for _s, c in extents:
                total += c
            for _s, c in cached:
                hits += c
            hit_fraction = hits / total if total else 0.0
        decision = self.policy.choose(
            target_node,
            o_buffer=bool(flags & O_BUFFER),
            cache_hit_fraction=hit_fraction,
        )
        return decision, missing
