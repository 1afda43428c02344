"""Phi-Linux (NFS) baseline: NFS client on the Phi over TCP-over-PCIe.

The second stock-Xeon-Phi configuration of Figures 1(a)/11/12: the Phi
mounts the host's file system over the NFS protocol, carried by the
Phi's own TCP/IP stack across a virtual PCIe network.  The bottleneck
is exactly the paper's thesis: *the co-processor runs the network
stack*, and its per-segment, branch-divergent protocol processing is
~8× slower than the host's and serializes on the Phi's softirq path.

Per chunk (``rsize``/``wsize`` bytes) a read costs:

* a small request RPC (Phi TCP send + host receive);
* the host NFS server reading through its file system (page cache);
* the data crossing PCIe;
* Phi TCP receive processing of every MSS-sized segment, serialized on
  the softirq core — the term that caps aggregate throughput at
  ~125 MB/s (Figure 11(d)).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..hw.cpu import CPU, Core
from ..hw.topology import Fabric
from ..sim.engine import Engine
from ..sim.resources import Resource
from .errors import FileNotFound
from .extfs import ExtFS
from .vfs import FsBackend, O_CREAT, O_TRUNC

__all__ = ["NfsClientBackend"]

NFS_RSIZE = 64 * 1024          # read/write chunk size on the wire
NFS_MSS = 1460                 # TCP segment payload
# Per-segment TCP/IP processing on the Phi (host-unit ns, branchy —
# pays the 8x multiplier).  Calibrated so aggregate NFS throughput
# plateaus near 125 MB/s (Figure 11(d)).
NFS_PHI_SEG_UNITS = 1400
NFS_HOST_SEG_UNITS = 180       # the host side of the same segments
NFS_CLIENT_OP_UNITS = 1800     # NFS client RPC encode/decode on the Phi
NFS_SERVER_OP_UNITS = 900      # nfsd request handling on the host


class NfsClientBackend(FsBackend):
    """NFS mounted on the Phi, served by the host file system."""

    name = "nfs"

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        phi_cpu: CPU,
        server_fs: ExtFS,
        server_cpu: CPU,
        server_threads: int = 8,
    ):
        self.engine = engine
        self.fabric = fabric
        self.phi_cpu = phi_cpu
        self.fs = server_fs
        self.server_cpu = server_cpu
        # nfsd thread pool on the host.
        self._server_slots = Resource(
            engine, capacity=server_threads, name="nfsd"
        )
        # The Phi's TCP receive path serializes on one softirq core.
        self._softirq = Resource(engine, capacity=1, name="phi-softirq")
        self._server_core = server_cpu.cores[-2]
        self.rpcs = 0

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def _phi_segments(self, core: Core, nbytes: int) -> Generator:
        """Phi-side TCP processing of ``nbytes``, softirq-serialized."""
        nsegs = max(1, (nbytes + NFS_MSS - 1) // NFS_MSS)
        cost = int(
            nsegs * NFS_PHI_SEG_UNITS * self.phi_cpu.params.branchy_mult
        )
        yield from self._softirq.using(cost)

    def _server_side(self, work: Generator) -> Generator:
        yield self._server_slots.request()
        try:
            result = yield from work
        finally:
            self._server_slots.release()
        return result

    def _small_rpc(self, core: Core, server_work: Generator) -> Generator:
        """One request/response exchange with small messages."""
        self.rpcs += 1
        yield core.compute(NFS_CLIENT_OP_UNITS, "branchy")
        yield from self._phi_segments(core, 128)            # request out
        yield from self.fabric.transfer(self.phi_cpu.node, self.server_cpu.node, 128)

        def served():
            yield self._server_core.compute(NFS_SERVER_OP_UNITS, "branchy")
            yield self._server_core.compute(NFS_HOST_SEG_UNITS, "branchy")
            result = yield from server_work
            return result

        result = yield from self._server_side(served())
        yield from self.fabric.transfer(self.server_cpu.node, self.phi_cpu.node, 128)
        yield from self._phi_segments(core, 128)            # response in
        return result

    # ------------------------------------------------------------------
    # FsBackend interface
    # ------------------------------------------------------------------
    def open(self, core: Core, path: str, flags: int) -> Generator:
        def server():
            try:
                inode = yield from self.fs.lookup(self._server_core, path)
            except FileNotFound:
                if not flags & O_CREAT:
                    raise
                inode = yield from self.fs.create(self._server_core, path)
            if flags & O_TRUNC and inode.size:
                yield from self.fs.truncate(self._server_core, path)
            return inode

        inode = yield from self._small_rpc(core, server())
        return inode

    def close(self, core: Core, handle: Any) -> Generator:
        yield core.compute(NFS_CLIENT_OP_UNITS // 2, "branchy")

    def pread(self, core: Core, handle: Any, offset: int, nbytes: int) -> Generator:
        inode = handle
        nbytes = max(0, min(nbytes, inode.size - offset))
        chunks: List[bytes] = []
        pos = offset
        remaining = nbytes
        while remaining > 0 or not chunks:
            chunk = min(NFS_RSIZE, remaining) if remaining else 0
            yield core.compute(NFS_CLIENT_OP_UNITS, "branchy")
            yield from self._phi_segments(core, 128)
            yield from self.fabric.transfer(
                self.phi_cpu.node, self.server_cpu.node, 128
            )

            def served(pos=pos, chunk=chunk):
                yield self._server_core.compute(
                    NFS_SERVER_OP_UNITS, "branchy"
                )
                if chunk == 0:
                    return b""
                data = yield from self.fs.read(
                    self._server_core, inode, pos, chunk
                )
                return data

            data = yield from self._server_side(served())
            if data:
                # Data crosses PCIe, then the Phi's TCP stack chews
                # through every segment.
                yield from self.fabric.transfer(
                    self.server_cpu.node, self.phi_cpu.node, len(data)
                )
                yield from self._phi_segments(core, len(data))
                yield core.memcpy_local(len(data))
            chunks.append(data)
            pos += len(data)
            remaining -= len(data)
            if not data:
                break
        return b"".join(chunks)

    def pwrite(
        self,
        core: Core,
        handle: Any,
        offset: int,
        data: Optional[bytes],
        length: Optional[int],
    ) -> Generator:
        inode = handle
        nbytes = len(data) if data is not None else int(length or 0)
        written = 0
        pos = offset
        while written < nbytes:
            chunk = min(NFS_RSIZE, nbytes - written)
            payload = (
                data[written : written + chunk] if data is not None else None
            )
            yield core.compute(NFS_CLIENT_OP_UNITS, "branchy")
            yield from self._phi_segments(core, chunk)       # send data out
            yield from self.fabric.transfer(
                self.phi_cpu.node, self.server_cpu.node, chunk
            )

            def served(pos=pos, chunk=chunk, payload=payload):
                yield self._server_core.compute(
                    NFS_SERVER_OP_UNITS, "branchy"
                )
                n = yield from self.fs.write(
                    self._server_core,
                    inode,
                    pos,
                    data=payload,
                    length=None if payload is not None else chunk,
                )
                return n

            n = yield from self._server_side(served())
            yield from self.fabric.transfer(
                self.server_cpu.node, self.phi_cpu.node, 128
            )
            yield from self._phi_segments(core, 128)         # ack in
            written += n
            pos += n
            if n == 0:
                break
        return written

    def fsync(self, core: Core, handle: Any) -> Generator:
        yield from self._small_rpc(core, self.fs.sync(self._server_core))

    def stat(self, core: Core, path: str) -> Generator:
        result = yield from self._small_rpc(
            core, self.fs.stat(self._server_core, path)
        )
        return result

    def unlink(self, core: Core, path: str) -> Generator:
        yield from self._small_rpc(core, self.fs.unlink(self._server_core, path))

    def mkdir(self, core: Core, path: str) -> Generator:
        yield from self._small_rpc(core, self.fs.mkdir(self._server_core, path))

    def readdir(self, core: Core, path: str) -> Generator:
        names = yield from self._small_rpc(
            core, self.fs.readdir(self._server_core, path)
        )
        return names
