"""On-disk layout of the extent file system.

A deliberately ext4-flavoured, in-place-update layout (the paper's
``fiemap``-based P2P path *requires* an in-place-update file system,
§5): block addresses of file data never change on overwrite, so the
control plane may hand them to the NVMe DMA engine directly.

Disk map::

    block 0                  superblock (JSON)
    1 .. bitmap_blocks       block allocation bitmap (raw bits)
    .. + inode_blocks        inode table (JSON, one inode per block)
    data_start ..            file data extents

Metadata is genuinely serialized into device blocks — a file system
can be re-mounted purely from block contents (tested), which keeps the
implementation honest even though it is JSON rather than packed C
structs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.engine import SimError
from .blockdev import BlockDevice, Extent
from .errors import InvalidArgument

__all__ = ["SuperBlock", "Inode", "FILE", "DIRECTORY", "MAGIC"]

MAGIC = "solros-extfs-v1"
FILE = "f"
DIRECTORY = "d"


@dataclass
class SuperBlock:
    """Filesystem geometry, serialized to block 0."""

    block_size: int
    total_blocks: int
    bitmap_start: int
    bitmap_blocks: int
    inode_start: int
    inode_blocks: int
    data_start: int
    root_ino: int = 0
    magic: str = MAGIC

    def to_bytes(self) -> bytes:
        return json.dumps(self.__dict__, sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SuperBlock":
        text = raw.rstrip(b"\x00").decode()
        try:
            data = json.loads(text)
        except (ValueError, UnicodeDecodeError) as error:
            raise SimError(f"corrupt superblock: {error}") from None
        if data.get("magic") != MAGIC:
            raise SimError(f"bad magic: {data.get('magic')!r}")
        return cls(**data)

    @classmethod
    def compute(
        cls, device: BlockDevice, max_inodes: int
    ) -> "SuperBlock":
        """Lay out geometry for a device."""
        if max_inodes < 1:
            raise InvalidArgument("max_inodes must be >= 1")
        block_size = device.block_size
        total = device.capacity_blocks
        bits_per_block = block_size * 8
        bitmap_blocks = (total + bits_per_block - 1) // bits_per_block
        bitmap_start = 1
        inode_start = bitmap_start + bitmap_blocks
        inode_blocks = max_inodes
        data_start = inode_start + inode_blocks
        if data_start >= total:
            raise InvalidArgument("device too small for requested layout")
        return cls(
            block_size=block_size,
            total_blocks=total,
            bitmap_start=bitmap_start,
            bitmap_blocks=bitmap_blocks,
            inode_start=inode_start,
            inode_blocks=inode_blocks,
            data_start=data_start,
        )


@dataclass
class Inode:
    """One file or directory."""

    ino: int
    kind: str                               # FILE | DIRECTORY
    size: int = 0
    nlink: int = 1
    extents: List[List[int]] = field(default_factory=list)  # [start, count]

    def __post_init__(self) -> None:
        if self.kind not in (FILE, DIRECTORY):
            raise InvalidArgument(f"bad inode kind: {self.kind!r}")

    @property
    def is_dir(self) -> bool:
        return self.kind == DIRECTORY

    @property
    def allocated_blocks(self) -> int:
        blocks = 0
        for _start, count in self.extents:
            blocks += count
        return blocks

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "ino": self.ino,
                "kind": self.kind,
                "size": self.size,
                "nlink": self.nlink,
                "extents": self.extents,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> Optional["Inode"]:
        text = raw.rstrip(b"\x00").decode(errors="replace").strip()
        if not text:
            return None
        data = json.loads(text)
        return cls(**data)

    # ------------------------------------------------------------------
    # Extent arithmetic
    # ------------------------------------------------------------------
    def map_range(
        self, block_size: int, offset: int, length: int
    ) -> List[Extent]:
        """Disk extents covering bytes ``[offset, offset+length)``.

        This is the ``fiemap`` primitive (§5): the proxy uses it to
        translate file offsets into NVMe block addresses for P2P I/O.
        """
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset/length")
        if length == 0:
            return []
        first_lblock = offset // block_size
        last_lblock = (offset + length - 1) // block_size
        wanted = last_lblock - first_lblock + 1
        result: List[Extent] = []
        logical = 0
        for start, count in self.extents:
            ext_first = logical
            ext_last = logical + count - 1
            lo = max(ext_first, first_lblock)
            hi = min(ext_last, last_lblock)
            if lo <= hi:
                result.append((start + (lo - ext_first), hi - lo + 1))
            logical += count
            if logical > last_lblock:
                break
        covered = 0
        for _s, c in result:
            covered += c
        if covered < wanted:
            raise InvalidArgument(
                f"range [{offset}, {offset + length}) beyond allocation "
                f"of inode {self.ino}"
            )
        return result

    def append_extent(self, start: int, count: int) -> None:
        """Add an extent, merging with the last one when contiguous."""
        if count < 1:
            raise InvalidArgument("extent count must be >= 1")
        if self.extents:
            last_start, last_count = self.extents[-1]
            if last_start + last_count == start:
                self.extents[-1][1] = last_count + count
                return
        self.extents.append([start, count])
