"""An extent-based, in-place-update file system (the ext4 stand-in).

This is the "full-fledged file system" of the paper's architecture
figures: the host control plane runs one instance as its backing store
(and the virtio baseline runs another instance *on the co-processor*,
where its branch-divergent code is ~8× slower — the §3 argument).

Functionally real: metadata is serialized into device blocks
(re-mountable), the allocator is a first-fit bitmap, directories are
hierarchical, files are extent lists, and overwrites are in-place —
the property the Solros proxy's ``fiemap``-based P2P path depends on.

All operations are generators that charge CPU work (scaled by the
executing core's processor kind) plus real device I/O.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Generator, List, Optional

from ..hw.cpu import Core
from ..sim.engine import SimError
from .blockdev import BlockDevice, Extent
from .errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NotADirectory,
)
from .layout import DIRECTORY, FILE, Inode, SuperBlock

__all__ = ["ExtFS"]

# CPU work units (host-core nanoseconds; Phi pays the branchy multiplier).
FS_BASE_UNITS = 900        # syscall-path bookkeeping per operation
FS_LOOKUP_UNITS = 500      # per path component
FS_PAGE_UNITS = 600        # per 4 KB page through the page cache
FS_EXTENT_UNITS = 150      # per extent mapped / allocated


class ExtFS:
    """One mounted file system instance.

    ``node`` is the topology node whose memory holds this instance's
    buffers: "numa0" for the host file system, "phi0" for a virtio
    instance running on the co-processor.
    """

    def __init__(self, device: BlockDevice, node: str):
        self.device = device
        self.node = node
        self.sb: Optional[SuperBlock] = None
        self._inodes: Dict[int, Inode] = {}
        self._bitmap = bytearray()
        self._dircache: Dict[int, Dict[str, int]] = {}
        self._dirty_inodes: set = set()
        self._bitmap_dirty = False
        self._alloc_hint = 0
        self._mounted = False

    # ------------------------------------------------------------------
    # mkfs / mount / sync
    # ------------------------------------------------------------------
    @classmethod
    def mkfs(
        cls,
        core: Core,
        device: BlockDevice,
        node: str,
        max_inodes: int = 512,
    ) -> Generator:
        """Format ``device`` and return a mounted instance."""
        fs = cls(device, node)
        sb = SuperBlock.compute(device, max_inodes)
        fs.sb = sb
        fs._bitmap = bytearray((sb.total_blocks + 7) // 8)
        _fill(fs._bitmap, 0, sb.data_start, True)
        fs._alloc_hint = sb.data_start
        root = Inode(ino=0, kind=DIRECTORY)
        fs._inodes[0] = root
        fs._dircache[0] = {}
        yield from fs._write_dir(core, root, {})
        fs._dirty_inodes.add(0)
        fs._bitmap_dirty = True
        device.write_block_data(0, sb.to_bytes())
        yield from device.submit_write(core, [(0, 1)], node)
        yield from fs.sync(core)
        fs._mounted = True
        return fs

    @classmethod
    def mount(cls, core: Core, device: BlockDevice, node: str) -> Generator:
        """Mount an existing file system purely from block contents."""
        fs = cls(device, node)
        yield from device.submit_read(core, [(0, 1)], node)
        sb = SuperBlock.from_bytes(device.read_block_data(0))
        fs.sb = sb
        # Bitmap.
        bitmap = [(sb.bitmap_start, sb.bitmap_blocks)]
        yield from device.submit_read(core, bitmap, node, coalesce=True)
        fs._bitmap = bytearray(device.gather(bitmap, 0, (sb.total_blocks + 7) // 8))
        # Inode table.
        yield from device.submit_read(
            core, [(sb.inode_start, sb.inode_blocks)], node, coalesce=True
        )
        for slot in range(sb.inode_blocks):
            inode = Inode.from_bytes(device.read_block_data(sb.inode_start + slot))
            if inode is not None:
                fs._inodes[inode.ino] = inode
        fs._alloc_hint = sb.data_start
        fs._mounted = True
        return fs

    def sync(self, core: Core) -> Generator:
        """Flush dirty metadata (inodes + bitmap) to the device."""
        self._require_sb()
        extents: List[Extent] = []
        for ino in sorted(self._dirty_inodes):
            blockno = self.sb.inode_start + ino
            self.device.write_block_data(blockno, self._inodes[ino].to_bytes())
            extents.append((blockno, 1))
        self._dirty_inodes.clear()
        if self._bitmap_dirty:
            bitmap_extent = (self.sb.bitmap_start, self.sb.bitmap_blocks)
            self.device.scatter([bitmap_extent], 0, self._bitmap)
            extents.append(bitmap_extent)
            self._bitmap_dirty = False
        if extents:
            yield core.compute(FS_BASE_UNITS, "branchy")
            yield from self.device.submit_write(
                core, extents, self.node, coalesce=True
            )
        else:
            yield 0

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def lookup(self, core: Core, path: str) -> Generator:
        """Resolve ``path`` to its inode."""
        parts = self._split(path)
        yield core.compute(
            FS_BASE_UNITS + FS_LOOKUP_UNITS * max(1, len(parts)), "branchy"
        )
        inode = self._inodes[self.sb.root_ino]
        for name in parts:
            if not inode.is_dir:
                raise NotADirectory(name)
            entries = yield from self._load_dir(core, inode)
            if name not in entries:
                raise FileNotFound(path)
            inode = self._inodes.get(entries[name])
            if inode is None:
                # Dangling entry: the file's inode was never synced
                # before a crash (orphaned name, treated as missing).
                raise FileNotFound(path)
        return inode

    def create(self, core: Core, path: str) -> Generator:
        """Create a regular file; returns its inode."""
        inode = yield from self._create_node(core, path, FILE)
        return inode

    def mkdir(self, core: Core, path: str) -> Generator:
        inode = yield from self._create_node(core, path, DIRECTORY)
        yield from self._write_dir(core, inode, {})
        return inode

    def unlink(self, core: Core, path: str) -> Generator:
        """Remove a file (or empty directory) and free its blocks."""
        parent, name = yield from self._resolve_parent(core, path)
        entries = yield from self._load_dir(core, parent)
        if name not in entries:
            raise FileNotFound(path)
        inode = self._inodes[entries[name]]
        if inode.is_dir:
            sub = yield from self._load_dir(core, inode)
            if sub:
                raise InvalidArgument(f"directory not empty: {path}")
        self._free_extents([tuple(e) for e in inode.extents])
        inode.extents = []
        inode.size = 0
        del entries[name]
        yield from self._write_dir(core, parent, entries)
        # Clear the inode slot.
        self.device.write_block_data(self.sb.inode_start + inode.ino, b"")
        del self._inodes[inode.ino]
        self._dircache.pop(inode.ino, None)
        self._dirty_inodes.discard(inode.ino)
        yield from self.device.submit_write(
            core, [(self.sb.inode_start + inode.ino, 1)], self.node
        )

    def readdir(self, core: Core, path: str) -> Generator:
        inode = yield from self.lookup(core, path)
        if not inode.is_dir:
            raise NotADirectory(path)
        entries = yield from self._load_dir(core, inode)
        return sorted(entries)

    def stat(self, core: Core, path: str) -> Generator:
        inode = yield from self.lookup(core, path)
        return {
            "ino": inode.ino,
            "kind": inode.kind,
            "size": inode.size,
            "nlink": inode.nlink,
            "blocks": inode.allocated_blocks,
        }

    def exists(self, path: str) -> bool:
        """Zero-time existence probe (tests / setup helpers)."""
        try:
            inode = self._inodes[self.sb.root_ino]
            for name in self._split(path):
                entries = self._dircache.get(inode.ino)
                if entries is None:
                    entries = self._read_dir_functional(inode)
                if name not in entries:
                    return False
                inode = self._inodes[entries[name]]
            return True
        except (KeyError, NotADirectory):
            return False

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def read(
        self,
        core: Core,
        inode: Inode,
        offset: int,
        length: int,
        target: Optional[str] = None,
        coalesce: bool = False,
        page_work: bool = True,
    ) -> Generator:
        """Read bytes; returns them (short read at EOF).

        ``target`` is where the NVMe DMA engine lands the data
        (defaults to this instance's node).  ``page_work`` charges the
        full page-cache path — the proxy's zero-copy P2P path sets it
        False and pays only per-extent mapping work.
        """
        if inode.is_dir:
            raise IsADirectory(f"inode {inode.ino}")
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset/length")
        length = max(0, min(length, inode.size - offset))
        if length == 0:
            yield core.compute(FS_BASE_UNITS, "branchy")
            return b""
        extents = inode.map_range(self.sb.block_size, offset, length)
        yield from self._charge_data_op(core, length, len(extents), page_work)
        yield from self.device.submit_read(
            core, extents, target or self.node, coalesce=coalesce
        )
        return self.device.gather(extents, offset, length)

    def write(
        self,
        core: Core,
        inode: Inode,
        offset: int,
        data: Optional[bytes] = None,
        length: Optional[int] = None,
        source: Optional[str] = None,
        coalesce: bool = False,
        page_work: bool = True,
    ) -> Generator:
        """Write bytes (allocating extents past the current allocation).

        Pass real ``data`` for functional writes, or ``length`` alone
        for synthetic benchmark traffic (blocks stay zero, timing is
        identical).  Returns the byte count written.
        """
        if inode.is_dir:
            raise IsADirectory(f"inode {inode.ino}")
        if data is None and length is None:
            raise InvalidArgument("need data or length")
        nbytes = len(data) if data is not None else int(length)
        if offset < 0 or nbytes < 0:
            raise InvalidArgument("negative offset/length")
        if nbytes == 0:
            yield core.compute(FS_BASE_UNITS, "branchy")
            return 0
        yield from self._ensure_allocated(core, inode, offset + nbytes)
        extents = inode.map_range(self.sb.block_size, offset, nbytes)
        yield from self._charge_data_op(core, nbytes, len(extents), page_work)
        if data is not None:
            self.device.scatter(extents, offset, data)
        yield from self.device.submit_write(
            core, extents, source or self.node, coalesce=coalesce
        )
        if offset + nbytes > inode.size:
            inode.size = offset + nbytes
            self._dirty_inodes.add(inode.ino)
        return nbytes

    def truncate(self, core: Core, path: str, size: int = 0) -> Generator:
        """Shrink a file, freeing whole blocks past ``size``."""
        if size != 0:
            raise InvalidArgument("only truncate-to-zero is supported")
        inode = yield from self.lookup(core, path)
        if inode.is_dir:
            raise IsADirectory(path)
        yield core.compute(
            FS_BASE_UNITS + FS_EXTENT_UNITS * len(inode.extents), "branchy"
        )
        self._free_extents([tuple(e) for e in inode.extents])
        inode.extents = []
        inode.size = 0
        self._dirty_inodes.add(inode.ino)

    def fiemap(
        self, core: Core, inode: Inode, offset: int, length: int
    ) -> Generator:
        """File-offset → disk-extent translation (the §5 ioctl).

        The control-plane proxy feeds the result straight to the NVMe
        device for zero-copy P2P transfers.
        """
        extents = inode.map_range(self.sb.block_size, offset, length)
        yield core.compute(
            FS_BASE_UNITS // 2 + FS_EXTENT_UNITS * len(extents), "branchy"
        )
        return extents

    def preallocate(self, core: Core, path: str, size: int) -> Generator:
        """Create (if needed) and fully allocate ``size`` bytes.

        Used to build large benchmark files without materializing data.
        """
        try:
            inode = yield from self.lookup(core, path)
        except FileNotFound:
            inode = yield from self.create(core, path)
        yield from self._ensure_allocated(core, inode, size)
        if size > inode.size:
            inode.size = size
            self._dirty_inodes.add(inode.ino)
        return inode

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_sb(self) -> None:
        if self.sb is None:
            raise SimError("file system not formatted/mounted")

    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise InvalidArgument(f"path must be absolute: {path!r}")
        return [p for p in path.split("/") if p]

    def _resolve_parent(self, core: Core, path: str) -> Generator:
        parts = self._split(path)
        if not parts:
            raise InvalidArgument("cannot operate on /")
        parent_path = "/" + "/".join(parts[:-1])
        parent = yield from self.lookup(core, parent_path)
        if not parent.is_dir:
            raise NotADirectory(parent_path)
        return parent, parts[-1]

    def _create_node(self, core: Core, path: str, kind: str) -> Generator:
        parent, name = yield from self._resolve_parent(core, path)
        entries = yield from self._load_dir(core, parent)
        if name in entries:
            raise FileExists(path)
        ino = self._next_ino()
        inode = Inode(ino=ino, kind=kind)
        self._inodes[ino] = inode
        if kind == DIRECTORY:
            self._dircache[ino] = {}
        entries[name] = ino
        yield from self._write_dir(core, parent, entries)
        self._dirty_inodes.add(ino)
        return inode

    def _next_ino(self) -> int:
        for ino in range(self.sb.inode_blocks):
            if ino not in self._inodes:
                return ino
        raise NoSpace("inode table full")

    def _load_dir(self, core: Core, inode: Inode) -> Generator:
        cached = self._dircache.get(inode.ino)
        if cached is not None:
            yield core.compute(FS_LOOKUP_UNITS, "branchy")
            return cached
        if inode.extents:
            extents = [tuple(e) for e in inode.extents]
            yield from self.device.submit_read(core, extents, self.node)
        entries = self._read_dir_functional(inode)
        self._dircache[inode.ino] = entries
        return entries

    def _read_dir_functional(self, inode: Inode) -> Dict[str, int]:
        text = self.device.gather(inode.extents, 0, inode.size).decode()
        if not text:
            return {}
        return {name: ino for name, ino in json.loads(text)}

    def _write_dir(
        self, core: Core, inode: Inode, entries: Dict[str, int]
    ) -> Generator:
        payload = json.dumps(sorted(entries.items())).encode()
        yield from self._ensure_allocated(core, inode, max(1, len(payload)))
        extents = inode.map_range(
            self.sb.block_size, 0, max(1, len(payload))
        )
        self.device.scatter(extents, 0, payload)
        inode.size = len(payload)
        self._dircache[inode.ino] = dict(entries)
        # Directory metadata is write-through (crash consistency: a
        # grown directory's on-disk size must match its on-disk data,
        # else a remount reads truncated entries).
        ino_block = self.sb.inode_start + inode.ino
        self.device.write_block_data(ino_block, inode.to_bytes())
        self._dirty_inodes.discard(inode.ino)
        yield from self.device.submit_write(
            core, list(extents) + [(ino_block, 1)], self.node, coalesce=True
        )

    def _ensure_allocated(self, core: Core, inode: Inode, upto: int) -> Generator:
        bs = self.sb.block_size
        needed = (upto + bs - 1) // bs
        have = inode.allocated_blocks
        if needed <= have:
            yield 0
            return
        new_extents = self._alloc(needed - have)
        yield core.compute(
            FS_EXTENT_UNITS * len(new_extents), "branchy"
        )
        for start, count in new_extents:
            inode.append_extent(start, count)
        self._dirty_inodes.add(inode.ino)

    def _charge_data_op(
        self, core: Core, nbytes: int, nextents: int, page_work: bool
    ) -> Generator:
        pages = (nbytes + 4095) // 4096
        units = FS_BASE_UNITS + FS_EXTENT_UNITS * nextents
        if page_work:
            units += FS_PAGE_UNITS * pages
        yield core.compute(units, "branchy")

    # ------------------------------------------------------------------
    # Bitmap allocator (first fit with a rotating hint)
    # ------------------------------------------------------------------
    def _get_bit(self, blockno: int) -> bool:
        return bool(self._bitmap[blockno >> 3] & (1 << (blockno & 7)))

    def _alloc(self, nblocks: int) -> List[Extent]:
        """Allocate ``nblocks``, preferring contiguity.

        First fit, scanning from a rotating hint to the end of the disk
        and then from the first data block up to the hint: every free
        run met is taken, the last one cut to what is still needed.  A
        request the free blocks cannot cover takes nothing and raises
        :class:`NoSpace`.
        """
        self._require_sb()
        if nblocks < 1:
            raise InvalidArgument(f"bad allocation size: {nblocks}")
        bitmap = self._bitmap
        total = self.sb.total_blocks
        data_start = self.sb.data_start
        pos = max(self._alloc_hint, data_start)
        if pos >= total:
            pos = data_start
        result: List[Extent] = []
        remaining = nblocks
        for lo, hi in ((pos, total), (data_start, pos)):
            while remaining:
                lo = _find_bit(bitmap, lo, hi, False)
                if lo == hi:
                    break
                end = _find_bit(bitmap, lo, min(hi, lo + remaining), True)
                _fill(bitmap, lo, end, True)
                result.append((lo, end - lo))
                remaining -= end - lo
                lo = end
        if remaining:
            self._free_extents(result)  # roll back the partial grab
            raise NoSpace(f"cannot allocate {nblocks} blocks")
        self._bitmap_dirty = True
        last = result[-1]
        self._alloc_hint = last[0] + last[1]
        return result

    def _free_extents(self, extents: List[Extent]) -> None:
        for start, count in extents:
            _fill(self._bitmap, start, start + count, False)
        if extents:
            self._bitmap_dirty = True


# A bitmap byte holding a used block (``True``), or a free one.
_HOLDS = {True: re.compile(b"[^\x00]"), False: re.compile(b"[^\xff]")}


def _find_bit(bitmap: bytearray, b: int, hi: int, used: bool) -> int:
    """The first used (or free) block in ``[b, hi)``, or ``hi``; bytes
    holding none are skipped whole."""
    holds = _HOLDS[used]
    while b < hi:
        if not b & 7:
            found = holds.search(bitmap, b >> 3, (hi + 7) >> 3)
            if found is None:
                return hi
            b = found.start() << 3
        if bitmap[b >> 3] >> (b & 7) & 1 == used:
            return b
        b += 1
    return hi


def _fill(bitmap: bytearray, b: int, end: int, used: bool) -> None:
    """Mark blocks ``[b, end)`` used or free, whole bytes at a time."""
    while b < end and b & 7:
        _fill_bit(bitmap, b, used)
        b += 1
    whole = end & ~7
    if b < whole:
        bitmap[b >> 3 : whole >> 3] = (b"\xff" if used else b"\x00") * (
            (whole - b) >> 3
        )
        b = whole
    while b < end:
        _fill_bit(bitmap, b, used)
        b += 1


def _fill_bit(bitmap: bytearray, b: int, used: bool) -> None:
    if used:
        bitmap[b >> 3] |= 1 << (b & 7)
    else:
        bitmap[b >> 3] &= ~(1 << (b & 7))
