"""Block device: functional storage layered on the NVMe timing model.

A device's bytes are one flat image: an anonymous mapping of
``capacity_blocks * block_size`` bytes.  The kernel backs a page only
once it is written, and unwritten pages read back as zeros, so large
benchmark files can be "stored" without materializing gigabytes of
Python bytes and without bookkeeping of which blocks exist.  Reading
or writing an extent is one slice of the image.

The mapping is private (``MAP_PRIVATE``).  Python's default mapping is
shared, which Linux backs with shmem; its page faults cost more, and
they made both setting up a file system and the reads after it
measurably slower.

Timing flows through :class:`repro.hw.nvme.NvmeDevice`: every read or
write charges doorbells, command latency, flash bandwidth, the PCIe
path to the target node (host RAM or co-processor memory for P2P), and
completion interrupts.
"""

from __future__ import annotations

import mmap
from typing import Generator, List, Sequence, Tuple

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
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        self._image = mmap.mmap(-1, self.capacity_bytes, flags=flags)

    # ------------------------------------------------------------------
    # Functional (zero-simulated-time) byte access.  Callers charge
    # timing separately via submit_read/submit_write; splitting the two
    # keeps data integrity independent of the cost model.
    # ------------------------------------------------------------------
    def read_block_data(self, blockno: int) -> bytes:
        self._check_block(blockno)
        at = blockno * self.block_size
        return self._image[at : at + self.block_size]

    def write_block_data(self, blockno: int, data: bytes) -> None:
        self._check_block(blockno)
        bs = self.block_size
        if len(data) > bs:
            raise SimError(f"data larger than block: {len(data)}")
        at = blockno * bs
        self._image[at : at + bs] = data + bytes(bs - len(data))

    def gather(self, extents: Sequence[Extent], offset: int, count: int) -> bytes:
        """Return ``count`` bytes at file ``offset`` from ``extents``.

        ``extents`` map the file range starting at the block that holds
        ``offset`` (as ``Inode.map_range`` returns them).  Each extent
        is one slice of the image.  The result is short if the extents
        end first.
        """
        bs, image = self.block_size, self._image
        skip = offset % bs
        parts: List[bytes] = []
        for first, n in extents:
            self._check_extent(first, n)
            take = min(count, n * bs - skip)
            if take > 0:
                at = first * bs + skip
                parts.append(image[at : at + take])
                count -= take
                skip = 0
        return b"".join(parts)

    def scatter(self, extents: Sequence[Extent], offset: int, data: bytes) -> None:
        """Store ``data`` at file ``offset`` into the blocks of ``extents``.

        ``extents`` are as for :meth:`gather`, and as there every one is
        range-checked.  Each takes one slice assignment.
        """
        bs, image = self.block_size, self._image
        view = memoryview(data)
        skip, pos, end = offset % bs, 0, len(view)
        for first, n in extents:
            self._check_extent(first, n)
            take = min(end - pos, n * bs - skip)
            at = first * bs + skip
            image[at : at + take] = view[pos : pos + take]
            pos += take
            skip = 0
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
        """How many blocks hold non-zero bytes (a scan of the image)."""
        bs, image, zero = self.block_size, self._image, bytes(self.block_size)
        return sum(image[at : at + bs] != zero for at in range(0, len(image), bs))
