"""Block device: functional storage layered on the NVMe timing model.

Bytes are held sparsely (block number → bytes); unwritten blocks read
back as zeros.  Large benchmark files can therefore be "stored" without
materializing gigabytes of Python bytes — reads of never-written blocks
return deterministic zero-filled content.

Timing flows through :class:`repro.hw.nvme.NvmeDevice`: every read or
write charges doorbells, command latency, flash bandwidth, the PCIe
path to the target node (host RAM or co-processor memory for P2P), and
completion interrupts.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence, Tuple

from ..hw.cpu import Core
from ..hw.nvme import NvmeDevice, NvmeOp
from ..sim.engine import SimError

__all__ = ["BlockDevice", "Extent"]

# (first_block, block_count) on the device.
Extent = Tuple[int, int]


class BlockDevice:
    """A byte store with NVMe-modelled timing."""

    def __init__(
        self,
        nvme: NvmeDevice,
        capacity_blocks: int,
        block_size: int = 4096,
        name: str = "blkdev",
    ):
        if capacity_blocks < 1:
            raise ValueError("capacity must be >= 1 block")
        if block_size < 512 or block_size % 512:
            raise ValueError(f"bad block size: {block_size}")
        self.nvme = nvme
        self.capacity_blocks = capacity_blocks
        self.block_size = block_size
        self.name = name
        self._blocks: Dict[int, bytes] = {}
        self._zero = bytes(block_size)

    # ------------------------------------------------------------------
    # Functional (zero-simulated-time) byte access.  Callers charge
    # timing separately via submit_read/submit_write; splitting the two
    # keeps data integrity independent of the cost model.
    # ------------------------------------------------------------------
    def read_block_data(self, blockno: int) -> bytes:
        self._check_block(blockno)
        return self._blocks.get(blockno, self._zero)

    def write_block_data(self, blockno: int, data: bytes) -> None:
        self._check_block(blockno)
        if len(data) > self.block_size:
            raise SimError(f"data larger than block: {len(data)}")
        if len(data) < self.block_size:
            data = data + bytes(self.block_size - len(data))
        if data == self._zero:
            self._blocks.pop(blockno, None)
        else:
            self._blocks[blockno] = data

    def gather(self, extents: Sequence[Extent], offset: int, count: int) -> bytes:
        """Return ``count`` bytes at file ``offset`` from ``extents``.

        ``extents`` map the file range starting at the block that holds
        ``offset`` (as ``Inode.map_range`` returns them).  Only the
        partial first and last blocks are trimmed; the rest are joined
        once.  The result is short if the extents end first.
        """
        bs = self.block_size
        get, zero = self._blocks.get, self._zero
        parts: List[bytes] = []
        for first, n in extents:
            self._check_extent(first, n)
            parts += [get(b, zero) for b in range(first, first + n)]
        skip = offset % bs
        end = skip + count
        # A directory that shrank keeps blocks past its size.
        del parts[(end + bs - 1) // bs :]
        if parts:
            parts[-1] = parts[-1][: end - (len(parts) - 1) * bs]
            parts[0] = parts[0][skip:]
        return b"".join(parts)

    def scatter(self, extents: Sequence[Extent], offset: int, data: bytes) -> None:
        """Store ``data`` at file ``offset`` into the blocks of ``extents``.

        ``extents`` are as for :meth:`gather`.  A partial first or last
        block is read, modified and written back.
        """
        bs = self.block_size
        blocks, zero = self._blocks, self._zero
        view = memoryview(data)
        skip, pos, end = offset % bs, 0, len(view)
        for first, n in extents:
            self._check_extent(first, n)
            for blockno in range(first, first + n):
                if pos >= end:
                    return
                chunk = view[pos : pos + bs - skip]
                pos += len(chunk)
                if len(chunk) == bs:
                    block = bytes(chunk)
                else:
                    old = blocks.get(blockno, zero)
                    block = old[:skip] + chunk + old[skip + len(chunk) :]
                skip = 0
                if block == zero:
                    blocks.pop(blockno, None)
                else:
                    blocks[blockno] = block
        if pos < end:
            raise SimError("data overflows extents")

    # ------------------------------------------------------------------
    # Timed I/O
    # ------------------------------------------------------------------
    def submit_read(
        self,
        initiator: Core,
        extents: Sequence[Extent],
        target: str,
        coalesce: bool = False,
        ctx=None,
    ) -> Generator:
        """Charge the cost of reading ``extents`` into ``target`` memory.

        ``coalesce`` enables the Solros io-vector path: all NVMe
        commands of the call share one doorbell and one interrupt.
        """
        ops = self._to_ops("read", extents, target)
        yield from self.nvme.submit(
            initiator, ops, coalesce_interrupts=coalesce, ctx=ctx
        )

    def submit_write(
        self,
        initiator: Core,
        extents: Sequence[Extent],
        source: str,
        coalesce: bool = False,
        ctx=None,
    ) -> Generator:
        """Charge the cost of writing ``extents`` from ``source`` memory."""
        ops = self._to_ops("write", extents, source)
        yield from self.nvme.submit(
            initiator, ops, coalesce_interrupts=coalesce, ctx=ctx
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _to_ops(
        self, op: str, extents: Sequence[Extent], target: str
    ) -> List[NvmeOp]:
        ops = []
        for first, count in extents:
            self._check_extent(first, count)
            ops.append(
                NvmeOp(op, first * self.block_size, count * self.block_size, target)
            )
        return ops

    def _check_extent(self, first: int, count: int) -> None:
        self._check_block(first)
        self._check_block(first + count - 1)

    def _check_block(self, blockno: int) -> None:
        if not 0 <= blockno < self.capacity_blocks:
            raise SimError(
                f"block {blockno} out of range (0..{self.capacity_blocks - 1})"
            )

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_blocks * self.block_size

    def materialized_blocks(self) -> int:
        """How many blocks hold explicit (non-zero) data."""
        return len(self._blocks)
