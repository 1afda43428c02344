"""Control-plane data-path policy (§4.3.2).

The control-plane OS "judiciously decides whether a data transfer path
should use P2P or host-mediated I/O" using its global view of the
machine.  Buffered (host-staged) mode is chosen when:

* the file was opened with ``O_BUFFER`` (the paper's explicit flag);
* the blocks are (mostly) resident in the shared host buffer cache;
* the disk cannot do P2P at all (e.g. a SCSI disk); or
* the P2P path would cross a NUMA boundary, where relayed PCIe packets
  are capped at ~300 MB/s (Figure 1(a)) — the headline example of why
  *system-wide knowledge* matters.

Otherwise zero-copy P2P between the disk's DMA engine and co-processor
memory wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..hw.topology import Fabric

__all__ = ["DataPathPolicy", "PathDecision", "P2P", "BUFFERED"]

P2P = "p2p"
BUFFERED = "buffered"


@dataclass(frozen=True)
class PathDecision:
    mode: str       # P2P | BUFFERED
    reason: str


# The decisions ``choose`` returns, one shared object per reason.
_FORCED_P2P = PathDecision(P2P, "forced-p2p")
_FORCED_BUFFERED = PathDecision(BUFFERED, "forced-buffered")
_O_BUFFER = PathDecision(BUFFERED, "O_BUFFER")
_NO_P2P_SUPPORT = PathDecision(BUFFERED, "no-p2p-support")
_CACHE_HIT = PathDecision(BUFFERED, "cache-hit")
_CROSS_NUMA = PathDecision(BUFFERED, "cross-numa")
_P2P = PathDecision(P2P, "p2p")


class DataPathPolicy:
    """The default Solros policy; ablations subclass or disable it."""

    def __init__(
        self,
        fabric: Fabric,
        disk_node: str,
        disk_supports_p2p: bool = True,
        cache_hit_threshold: float = 0.5,
        force_mode: Optional[str] = None,
    ):
        self.fabric = fabric
        self.disk_node = disk_node
        self.disk_supports_p2p = disk_supports_p2p
        self.cache_hit_threshold = cache_hit_threshold
        # force_mode overrides everything (ablation benches use it to
        # measure "always P2P" vs "always buffered").
        if force_mode not in (None, P2P, BUFFERED):
            raise ValueError(f"bad force_mode: {force_mode!r}")
        self.force_mode = force_mode
        self.decisions: Dict[str, int] = {}

    def choose(
        self,
        target_node: str,
        o_buffer: bool = False,
        cache_hit_fraction: float = 0.0,
    ) -> PathDecision:
        """Pick the data path for one read/write request."""
        decision = self._choose(target_node, o_buffer, cache_hit_fraction)
        self.decisions[decision.reason] = (
            self.decisions.get(decision.reason, 0) + 1
        )
        return decision

    def _choose(
        self, target_node: str, o_buffer: bool, cache_hit_fraction: float
    ) -> PathDecision:
        if self.force_mode == P2P:
            return _FORCED_P2P
        if self.force_mode == BUFFERED:
            return _FORCED_BUFFERED
        if o_buffer:
            return _O_BUFFER
        if not self.disk_supports_p2p:
            return _NO_P2P_SUPPORT
        if cache_hit_fraction >= self.cache_hit_threshold:
            return _CACHE_HIT
        if self.fabric.crosses_numa(self.disk_node, target_node):
            return _CROSS_NUMA
        return _P2P
