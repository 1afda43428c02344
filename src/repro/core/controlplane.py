"""The control-plane OS: the host side of Solros (§4).

Owns everything that needs global, system-wide knowledge: the real
file system and its device, the shared buffer cache, the data-path
policy (PCIe topology aware), the file-system proxy, and — via
:mod:`repro.net.proxy` — the TCP proxy with its load balancer.  Only
the control plane ever touches device doorbells; co-processors are
untrusted with I/O registers (§4: "protecting I/O devices from
untrusted and unauthorized accesses from co-processors").
"""

from __future__ import annotations

from typing import Generator, Optional

from ..fs.blockdev import BlockDevice
from ..fs.buffercache import BufferCache
from ..fs.extfs import ExtFS
from ..fs.localfs import LocalFsBackend
from ..fs.proxy import SolrosFsProxy
from ..fs.vfs import Vfs
from ..hw.cpu import CPU, Core
from ..hw.machine import Machine
from ..obs.hub import hub_of
from ..sim.engine import Engine, SimError
from ..transport.rpc import RpcChannel
from .config import SolrosConfig
from .policy import DataPathPolicy

__all__ = ["ControlPlaneOS"]

FS_PROXY_WORKERS = 4  # fixed per-channel pool without a scheduler


class ControlPlaneOS:
    """Host-side OS object."""

    def __init__(self, machine: Machine, config: Optional[SolrosConfig] = None):
        self.machine = machine
        self.engine: Engine = machine.engine
        self.config = config or SolrosConfig()
        self.host: CPU = machine.host
        self.disk: Optional[BlockDevice] = None
        self.fs: Optional[ExtFS] = None
        self.cache: Optional[BufferCache] = None
        self.policy: Optional[DataPathPolicy] = None
        self.fs_proxy: Optional[SolrosFsProxy] = None
        self.prefetcher = None
        # Control-plane request scheduler (repro.sched); built during
        # format_storage() when config.sched is set.
        self.scheduler = None
        # Fault injector (repro.faults); built during format_storage()
        # when config.fault_plan is set.
        self.faults = None
        self._next_worker_core = 0

    # ------------------------------------------------------------------
    # Storage bring-up
    # ------------------------------------------------------------------
    def format_storage(self, core: Optional[Core] = None) -> Generator:
        """Create the block device and format the host file system."""
        core = core or self.host.core(0)
        cfg = self.config
        if cfg.fault_plan is not None:
            from ..faults import FaultInjector

            # Disarmed until the file system exists: a chaos plan
            # stresses the running system, it must never corrupt mkfs.
            self.faults = FaultInjector(self.engine, cfg.fault_plan)
            self.faults.armed = False
            self.machine.nvme.faults = self.faults
            self.machine.nic.faults = self.faults
        self.disk = BlockDevice(
            self.machine.nvme, cfg.disk_blocks, name="nvme0n1"
        )
        self.fs = yield from ExtFS.mkfs(
            core, self.disk, self.host.node, max_inodes=cfg.max_inodes
        )
        if cfg.buffer_cache_bytes:
            self.cache = BufferCache(
                cfg.buffer_cache_bytes, metrics=hub_of(self.engine).metrics
            )
        self.policy = DataPathPolicy(
            self.machine.fabric, disk_node=self.machine.nvme.node
        )
        self.fs_proxy = SolrosFsProxy(
            self.engine,
            self.machine.fabric,
            self.fs,
            self.host,
            cache=self.cache,
            policy=self.policy,
        )
        self.fs_proxy.faults = self.faults
        if cfg.enable_prefetch:
            if self.cache is None:
                raise SimError("prefetching requires buffer_cache_bytes")
            from .prefetch import Prefetcher

            self.prefetcher = Prefetcher(
                self.engine,
                self.fs,
                self.cache,
                self.host.cores[-3],
                min_accesses=cfg.prefetch_min_accesses,
                min_planes=cfg.prefetch_min_planes,
            )
            self.fs_proxy.prefetcher = self.prefetcher
        if cfg.sched is not None:
            from ..sched.scheduler import RequestScheduler

            self.scheduler = RequestScheduler(
                self.engine, self.host, cfg.sched,
                core_alloc=self.alloc_worker_cores,
            )
        if self.faults is not None:
            self.faults.armed = True
        return self.fs

    def host_vfs(self) -> Vfs:
        """Direct host access to the file system (the Host baseline)."""
        if self.fs is None:
            raise SimError("format_storage() first")
        return Vfs(LocalFsBackend(self.fs))

    # ------------------------------------------------------------------
    # Data-plane attachment
    # ------------------------------------------------------------------
    def attach_fs_channel(self, channel: RpcChannel, phi_cpu: CPU) -> None:
        """Start proxy workers serving one co-processor's FS RPCs.

        With a scheduler configured, the channel gets a single ring
        puller feeding the shared scheduler (whose elastic pool does
        the execution); otherwise a fixed pool of
        ``FS_PROXY_WORKERS`` drains the ring FIFO.
        """
        if self.fs_proxy is None:
            raise SimError("format_storage() first")
        if self.faults is not None:
            channel.set_faults(self.faults)
        workers = FS_PROXY_WORKERS if self.scheduler is None else 1
        first = self.alloc_worker_cores(workers)
        self.fs_proxy.serve(
            channel, phi_cpu, n_workers=workers, first_core=first,
            scheduler=self.scheduler,
        )

    def alloc_worker_cores(self, n: int) -> int:
        """Reserve ``n`` consecutive host cores; returns the first index.

        Wraps around when the socket is exhausted (over-subscription is
        fine — the simulation shares cores through their slot).
        """
        if n < 1:
            raise SimError("need at least one core")
        total = len(self.host.cores)
        if self._next_worker_core + n > total:
            self._next_worker_core = 0
        first = self._next_worker_core
        self._next_worker_core += n
        return first
