"""Phi-Linux (virtio) baseline: a full file system on the co-processor.

The stock Xeon Phi configuration of Figures 1(a)/11/12/13: the Phi
runs the whole ext-FS itself (every page-cache and block-layer
instruction paying the ~8× branch-divergence penalty) on top of a
virtio block device.  An SCIF kernel module on the host relays each
block request to the NVMe SSD (§6.1.2), staging data in host memory and
then copying it to Phi memory with *CPU* copies — the relay path whose
zero-copy replacement is "171× faster" in Figure 13's discussion.

Concretely, one virtio request costs:

* Phi guest-driver work + one PCIe doorbell (virtqueue kick);
* host backend work + a real NVMe read/write into host staging memory
  (per-command doorbells/interrupts — no io-vector coalescing here);
* a relay copy between host and Phi memory through a small pool of
  host relay workers (the aggregate ~0.2 GB/s ceiling of Figure 11(c));
* a completion interrupt on the Phi.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..hw.cpu import CPU, Core
from ..hw.nvme import NvmeDevice
from ..hw.topology import Fabric
from ..sim.engine import Engine
from ..sim.resources import BandwidthLink
from .blockdev import BlockDevice, Extent
from .extfs import ExtFS

__all__ = ["VirtioBlockDevice", "build_virtio_fs"]

VIRTIO_GUEST_REQ_UNITS = 1000   # Phi driver work per request (branchy)
VIRTIO_HOST_REQ_UNITS = 1500    # SCIF relay module work per request
# CPU relay copy bandwidth per worker (bytes/ns).  Calibrated so a
# single 512 KB request spends ~6 ms in transport (Figure 13(a)) and
# many-threaded reads plateau around 0.2 GB/s (Figure 11(c)).
RELAY_BYTES_PER_NS = 0.085
READ_RELAY_WORKERS = 3
WRITE_RELAY_WORKERS = 1         # write ordering serializes the relay


class VirtioBlockDevice(BlockDevice):
    """A virtual block device backed by the host-relayed NVMe SSD."""

    def __init__(
        self,
        engine: Engine,
        nvme: NvmeDevice,
        fabric: Fabric,
        phi_cpu: CPU,
        host_cpu: CPU,
        capacity_blocks: int,
        block_size: int = 4096,
        host_core_index: int = -1,
    ):
        super().__init__(nvme, capacity_blocks, block_size, name="virtblk")
        self.engine = engine
        self.fabric = fabric
        self.phi_cpu = phi_cpu
        self.host_cpu = host_cpu
        self._host_core = host_cpu.cores[host_core_index]
        self._read_relay = BandwidthLink(
            engine,
            RELAY_BYTES_PER_NS,
            0,
            channels=READ_RELAY_WORKERS,
            name="virtio.read-relay",
        )
        self._write_relay = BandwidthLink(
            engine,
            RELAY_BYTES_PER_NS,
            0,
            channels=WRITE_RELAY_WORKERS,
            name="virtio.write-relay",
        )
        self.requests = 0

    # ------------------------------------------------------------------
    # Timed I/O overrides (initiator is a Phi core here)
    # ------------------------------------------------------------------
    def submit_read(
        self,
        initiator: Core,
        extents: Sequence[Extent],
        target: str,
        coalesce: bool = False,
    ) -> Generator:
        yield from self._relay(initiator, extents, is_read=True)

    def submit_write(
        self,
        initiator: Core,
        extents: Sequence[Extent],
        source: str,
        coalesce: bool = False,
    ) -> Generator:
        yield from self._relay(initiator, extents, is_read=False)

    def _relay(
        self, initiator: Core, extents: Sequence[Extent], is_read: bool
    ) -> Generator:
        self.requests += 1
        nbytes = sum(c for _s, c in extents) * self.block_size
        # Phi guest driver: build the virtqueue descriptors, kick.
        yield initiator.compute(VIRTIO_GUEST_REQ_UNITS, "branchy")
        yield self.fabric.remote_tx(initiator, 1)

        # Host SCIF backend services the request.
        yield self._host_core.compute(VIRTIO_HOST_REQ_UNITS, "branchy")
        if is_read:
            # NVMe -> host staging buffer (no io-vector coalescing).
            yield from super().submit_read(
                self._host_core, extents, self.host_cpu.node, coalesce=False
            )
            # Host CPU relay-copies staging -> Phi memory.
            yield from self._read_relay.transfer(nbytes)
        else:
            # Relay-copy Phi memory -> host staging, then NVMe write.
            yield from self._write_relay.transfer(nbytes)
            yield from super().submit_write(
                self._host_core, extents, self.host_cpu.node, coalesce=False
            )

        # Completion interrupt on the co-processor.
        yield from self.phi_cpu.handle_interrupt()


def build_virtio_fs(
    engine: Engine,
    nvme: NvmeDevice,
    fabric: Fabric,
    phi_cpu: CPU,
    host_cpu: CPU,
    capacity_blocks: int,
    format_core: Core,
) -> Generator:
    """Format and mount an ExtFS *on the Phi* over a virtio device.

    Returns ``(fs, device)``; run inside a simulation process.
    """
    device = VirtioBlockDevice(
        engine, nvme, fabric, phi_cpu, host_cpu, capacity_blocks
    )
    max_inodes = max(16, min(512, capacity_blocks // 8))
    fs = yield from ExtFS.mkfs(
        format_core, device, phi_cpu.node, max_inodes=max_inodes
    )
    return fs, device
