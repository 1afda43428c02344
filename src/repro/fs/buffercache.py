"""Host-side shared buffer cache (§4.3).

"We use host-side buffer cache to improve the I/O performance of
accessing data shared by multiple co-processors."  The control-plane
proxy consults this cache in buffered mode; a hit skips the NVMe round
trip entirely, and because the cache is *shared*, one co-processor's
read warms the path for all others.

Only presence and recency are tracked here — the actual bytes live in
the :class:`~repro.fs.blockdev.BlockDevice` store (which is the single
source of truth for data integrity), so the cache purely shapes
timing, exactly like a page cache shapes timing over a disk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from ..obs.metrics import NULL_METRICS
from .blockdev import BlockDevice, Extent

__all__ = ["BufferCache", "BufferCacheStats"]


class BufferCacheStats:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU block cache keyed by (device, block number).

    The cache holds no engine, so its owner passes the ``metrics``
    registry of the hub it records into (the cache emits no spans).
    """

    def __init__(
        self, capacity_bytes: int, block_size: int = 4096, metrics=NULL_METRICS
    ):
        if capacity_bytes < block_size:
            raise ValueError("cache smaller than one block")
        self.capacity_blocks = capacity_bytes // block_size
        self.block_size = block_size
        self._lru: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.stats = stats = BufferCacheStats()
        metrics.view("cache.hits", lambda: stats.hits)
        metrics.view("cache.misses", lambda: stats.misses)
        self._metered = metrics is not NULL_METRICS
        self._g_hit_rate = metrics.gauge("cache.hit_rate")
        self._g_resident = metrics.gauge("cache.resident_blocks")

    def __len__(self) -> int:
        return len(self._lru)

    @staticmethod
    def _key(device: BlockDevice, blockno: int) -> Tuple[int, int]:
        return (id(device), blockno)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, device: BlockDevice, blockno: int) -> bool:
        return self._key(device, blockno) in self._lru

    def split_extents(
        self, device: BlockDevice, extents: List[Extent]
    ) -> Tuple[List[Extent], List[Extent]]:
        """Partition ``extents`` into (cached, missing) block runs.

        Touches LRU recency for hits and updates hit/miss statistics.
        An empty cache misses every block: one run per extent.
        """
        lru = self._lru
        touch = lru.move_to_end
        dev = id(device)
        cached: List[Extent] = []
        missing: List[Extent] = []
        if not lru:
            missing = list(extents)
        else:
            for first, count in extents:
                run_start, run_hit = first, None
                for blockno in range(first, first + count):
                    key = (dev, blockno)
                    hit = key in lru
                    if hit:
                        touch(key)
                    if hit is not run_hit:
                        if run_hit is not None:
                            bucket = cached if run_hit else missing
                            bucket.append((run_start, blockno - run_start))
                        run_start, run_hit = blockno, hit
                if run_hit is not None:
                    bucket = cached if run_hit else missing
                    bucket.append((run_start, first + count - run_start))
        hits = misses = 0
        for _s, n in cached:
            hits += n
        for _s, n in missing:
            misses += n
        self.stats.hits += hits
        self.stats.misses += misses
        if self._metered:
            self._g_hit_rate.set(self.stats.hit_rate)
        return cached, missing

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, device: BlockDevice, extents: List[Extent]) -> None:
        """Record that these blocks are now resident, evicting LRU."""
        for first, count in extents:
            for blockno in range(first, first + count):
                key = self._key(device, blockno)
                if key in self._lru:
                    self._lru.move_to_end(key)
                    continue
                self._lru[key] = None
                if len(self._lru) > self.capacity_blocks:
                    self._lru.popitem(last=False)
                    self.stats.evictions += 1
        if self._metered:
            self._g_resident.set(len(self._lru))

    def invalidate(self, device: BlockDevice, extents: List[Extent]) -> None:
        """Drop blocks (e.g. after a P2P write bypassed the cache)."""
        if self._lru:
            for first, count in extents:
                for blockno in range(first, first + count):
                    self._lru.pop(self._key(device, blockno), None)
        if self._metered:
            self._g_resident.set(len(self._lru))

    def clear(self) -> None:
        self._lru.clear()
        self._g_resident.set(0)
