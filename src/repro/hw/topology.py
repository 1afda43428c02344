"""PCIe/NUMA fabric: topology graph and data-movement cost engine.

Models the testbed of §6 (Figure 3's address-space picture): two NUMA
domains joined by QPI, with Xeon Phis, the NVMe SSD, and the NIC hanging
off the two root complexes.  Three movement mechanisms are provided,
matching §4.2.1:

* :meth:`Fabric.loadstore_copy` — CPU load/store through a mapped PCIe
  window: one PCIe transaction per 64-byte cache line, cheap to start,
  terrible bandwidth.
* :meth:`Fabric.dma_copy` — engine-driven DMA: channel setup cost, then
  cut-through at the bottleneck link's bandwidth (scaled down for
  Phi-initiated transfers — Figure 4's initiator asymmetry).
* :meth:`Fabric.remote_tx` — one control-variable access over PCIe
  (what the ring buffer's lazy-replication scheme avoids).

``loadstore_copy`` and ``remote_tx`` are pure delays: they return the
nanoseconds for the caller to ``yield``.

Device-to-device (P2P) transfers whose path crosses the NUMA boundary
are relayed by a processor and capped at ~300 MB/s (Figure 1(a)); the
shared ``relay`` links model that processor bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..sim.engine import Delay, Engine, SimError
from ..sim.resources import BandwidthLink
from .cpu import Core
from .params import CACHE_LINE, PcieParams

__all__ = ["Fabric", "NodeInfo"]

_DEVICE_KINDS = ("phi", "nvme", "nic")
_ROOT_KINDS = ("root",)


@dataclass
class NodeInfo:
    """One topology node: a root complex or a PCIe device."""

    name: str
    numa: int
    kind: str                       # 'root' | 'phi' | 'nvme' | 'nic'
    up: Optional[BandwidthLink]     # device -> root
    down: Optional[BandwidthLink]   # root -> device


class Fabric:
    """The machine's interconnect: roots, devices, QPI, relay caps."""

    def __init__(self, engine: Engine, params: Optional[PcieParams] = None):
        self.engine = engine
        self.params = params or PcieParams()
        self._nodes: Dict[str, NodeInfo] = {}
        # (src, dst), or (bus, src, dst) for transfer_via -> the transfer
        # route (see _route), built on first use.
        self._routes: Dict[tuple, tuple] = {}
        p = self.params
        # Root complexes (host RAM lives here).
        for numa in (0, 1):
            self._nodes[f"numa{numa}"] = NodeInfo(
                name=f"numa{numa}", numa=numa, kind="root", up=None, down=None
            )
        # QPI, one link per direction.
        self._qpi = {
            (0, 1): BandwidthLink(
                engine, p.qpi_bytes_per_ns, p.qpi_latency_ns, name="qpi01"
            ),
            (1, 0): BandwidthLink(
                engine, p.qpi_bytes_per_ns, p.qpi_latency_ns, name="qpi10"
            ),
        }
        # Cross-NUMA P2P relay bottleneck (a processor forwards PCIe
        # packets across QPI — Figure 1(a) caption).
        self._relay = {
            (0, 1): BandwidthLink(
                engine, p.cross_numa_p2p_bytes_per_ns, 0, name="relay01"
            ),
            (1, 0): BandwidthLink(
                engine, p.cross_numa_p2p_bytes_per_ns, 0, name="relay10"
            ),
        }

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def attach(self, name: str, numa: int, kind: str) -> NodeInfo:
        """Attach a device to the root complex of NUMA domain ``numa``."""
        if kind not in _DEVICE_KINDS:
            raise SimError(f"unknown device kind: {kind!r}")
        if name in self._nodes:
            raise SimError(f"duplicate node name: {name!r}")
        if numa not in (0, 1):
            raise SimError(f"bad numa domain: {numa}")
        p = self.params
        if kind == "phi":
            up_bw = p.phi_to_host_bytes_per_ns
            down_bw = p.host_to_phi_bytes_per_ns
        else:
            up_bw = down_bw = p.device_link_bytes_per_ns
        node = NodeInfo(
            name=name,
            numa=numa,
            kind=kind,
            up=BandwidthLink(self.engine, up_bw, p.link_latency_ns, name=f"{name}.up"),
            down=BandwidthLink(
                self.engine, down_bw, p.link_latency_ns, name=f"{name}.down"
            ),
        )
        self._nodes[name] = node
        return node

    def node(self, name: str) -> NodeInfo:
        try:
            return self._nodes[name]
        except KeyError:
            raise SimError(f"unknown topology node: {name!r}") from None

    def nodes(self) -> List[str]:
        return list(self._nodes)

    # ------------------------------------------------------------------
    # Path queries (used by the control-plane OS's data-path policy)
    # ------------------------------------------------------------------
    def crosses_numa(self, src: str, dst: str) -> bool:
        return self.node(src).numa != self.node(dst).numa

    def is_p2p(self, src: str, dst: str) -> bool:
        """True when both endpoints are PCIe devices (not root/RAM)."""
        return (
            self.node(src).kind in _DEVICE_KINDS
            and self.node(dst).kind in _DEVICE_KINDS
        )

    def path_links(self, src: str, dst: str) -> List[BandwidthLink]:
        """The directed links a transfer src → dst occupies."""
        a, b = self.node(src), self.node(dst)
        if a.name == b.name:
            return []
        links: List[BandwidthLink] = []
        if a.kind != "root":
            links.append(a.up)
        if a.numa != b.numa:
            links.append(self._qpi[(a.numa, b.numa)])
            if self.is_p2p(src, dst):
                links.append(self._relay[(a.numa, b.numa)])
        if b.kind != "root":
            links.append(b.down)
        return links

    def path_latency_ns(self, src: str, dst: str) -> int:
        return sum(link.latency_ns for link in self.path_links(src, dst))

    def effective_bandwidth(
        self, src: str, dst: str, rate_scale: float = 1.0
    ) -> float:
        """Cut-through bandwidth of the path in bytes/ns."""
        links = self.path_links(src, dst)
        if not links:
            return math.inf
        return min(link.bytes_per_ns for link in links) * rate_scale

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def dma_copy(
        self, initiator: Core, src: str, dst: str, nbytes: int
    ) -> Generator:
        """DMA ``nbytes`` from ``src`` to ``dst`` memory.

        Uses one of the initiator package's DMA channels; pays that
        initiator's setup cost and rate scaling (Figure 4: Phi-initiated
        DMA achieves ~1/2.3 of host-initiated bandwidth).
        """
        yield initiator.cpu.dma.request()
        try:
            # Descriptor programming serializes on the driver lock;
            # the data then moves on one of the parallel channels.
            yield from initiator.cpu.dma_prog.using(
                initiator.params.dma_setup_ns
            )
            yield from self.transfer(
                src, dst, nbytes, rate_scale=initiator.params.dma_rate_scale
            )
        finally:
            initiator.cpu.dma.release()

    def remote_tx(self, initiator: Core, count: int = 1) -> Delay:
        """The time of ``count`` individual PCIe transactions by
        ``initiator`` (a delay to ``yield``)."""
        if count < 0:
            raise SimError(f"negative transaction count: {count}")
        return count * initiator.cpu.params.pcie_tx_ns

    def loadstore_copy(self, initiator: Core, nbytes: int) -> Delay:
        """The time to copy via load/store through a mapped PCIe window
        (a delay to ``yield``).

        Each 64-byte cache line is its own PCIe transaction (§4.2.1),
        so bandwidth is terrible but there is no setup latency.
        """
        if nbytes < 0:
            raise SimError(f"negative copy size: {nbytes}")
        ntx = (nbytes + CACHE_LINE - 1) // CACHE_LINE
        return ntx * initiator.cpu.params.pcie_tx_ns

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        rate_scale: float = 1.0,
    ) -> Generator:
        """Move ``nbytes`` cut-through across the path (no DMA setup).

        Occupies every link on the path for the bottleneck duration, so
        concurrent flows sharing any link contend correctly.  Links are
        acquired in a canonical global order to prevent deadlock.
        """
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = _route(self.path_links(src, dst))
        return _move(route, nbytes, rate_scale)

    def transfer_via(
        self,
        bus: BandwidthLink,
        src: str,
        dst: str,
        nbytes: int,
        rate_scale: float = 1.0,
    ) -> Generator:
        """Cut-through transfer src → dst that also occupies ``bus``, a
        device's internal link (e.g. the NVMe flash channels).  Like
        :meth:`transfer`, the route is built once per ``(bus, src,
        dst)``: links are static."""
        key = (bus, src, dst)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = _route([bus] + self.path_links(src, dst))
        return _move(route, nbytes, rate_scale)


def _route(links: List[BandwidthLink]) -> tuple:
    """What a transfer over ``links`` needs: the links in their
    canonical lock order, their latency sum, and the slowest one (its
    occupancy is the transfer's duration)."""
    if not links:
        return (), 0, None
    return (
        sorted(links, key=lambda link: link.name),
        sum(link.latency_ns for link in links),
        min(links, key=lambda link: link.bytes_per_ns),
    )


def _move(route: tuple, nbytes: int, rate_scale: float) -> Generator:
    """Pay the route's latency, then hold all its links for the
    bottleneck duration."""
    if nbytes < 0:
        raise SimError(f"negative transfer size: {nbytes}")
    ordered, latency, slowest = route
    if latency:
        yield latency
    if slowest is None or nbytes == 0:
        return
    duration = max(1, int(slowest.occupancy_ns(nbytes) / rate_scale))
    held = 0
    try:
        for link in ordered:
            yield link.acquire()
            held += 1
        yield duration
        for link in ordered:
            link.note_bytes(nbytes)
    finally:
        for link in ordered[:held]:
            link.release()
