"""System-level configuration for a Solros deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..faults.plan import FaultPlan
from ..hw.params import HwParams, MB, default_params
from ..sched.scheduler import SchedConfig
from ..transport.ringbuf import RingPolicy

__all__ = ["SolrosConfig"]


@dataclass
class SolrosConfig:
    """Everything needed to boot a simulated Solros machine; derive a
    variant with ``dataclasses.replace``."""

    hw: HwParams = field(default_factory=default_params)
    # Storage.
    disk_blocks: int = 512 * 1024          # 2 GB of 4 KB blocks
    max_inodes: int = 2048
    # Shared host-side buffer cache (§4.3); None disables it.
    buffer_cache_bytes: Optional[int] = 256 * MB
    # Transport.
    ring_policy: RingPolicy = field(default_factory=RingPolicy)
    # Control-plane request scheduler (repro.sched).  None keeps the
    # legacy path: each channel drained FIFO by its own fixed worker
    # pool.  A SchedConfig routes every FS RPC through one shared
    # RequestScheduler with a dispatch policy ("fifo", "drr" or
    # "drr+priority"), admission control, deadline shedding, and an
    # elastic worker pool.
    sched: Optional[SchedConfig] = None
    # Deterministic fault injection + recovery (repro.faults), with
    # the RPC timeout and circuit-breaker bounds.  None keeps every
    # injection hook dormant and the legacy path bit-identical
    # (guarded by the perf-gate's faults.off metric).
    fault_plan: Optional[FaultPlan] = None
    # Cross-co-processor file prefetching (§4; needs the buffer cache).
    enable_prefetch: bool = False
    # End-to-end observability (repro.obs).  Off by default: an
    # untraced request then makes no call into the tracer or metrics.
    # ``python -m repro.bench --trace-out`` enables it globally via the
    # capture hook instead of this flag.
    trace: bool = False
