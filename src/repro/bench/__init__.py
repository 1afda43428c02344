"""Benchmark harness: the paper's experiments and their runners.

:mod:`.figures` holds the runners behind every figure, table and
ablation; :mod:`.claims` sweeps them over the paper's parameter grids
and checks each claim (``python -m repro.bench <id>``).
EXPERIMENTS.md records paper-reported vs measured values.
"""

from .figures import (
    FS_STACKS,
    controlplane_aggregate_read,
    faults_chaos_run,
    fs_random_io,
    sched_qos_overload,
    sched_qos_unloaded,
    net_stream_throughput,
    pcie_transfer_mbps,
    ringbuf_copy_bandwidth,
    ringbuf_local_pairs_per_sec,
    ringbuf_pcie_ops_per_sec,
    setup_fs_stack,
    tcp_echo_samples,
)
from .report import banner, render_series, render_table

__all__ = [
    "FS_STACKS",
    "fs_random_io",
    "setup_fs_stack",
    "pcie_transfer_mbps",
    "ringbuf_local_pairs_per_sec",
    "ringbuf_pcie_ops_per_sec",
    "ringbuf_copy_bandwidth",
    "tcp_echo_samples",
    "net_stream_throughput",
    "controlplane_aggregate_read",
    "sched_qos_overload",
    "sched_qos_unloaded",
    "faults_chaos_run",
    "render_table",
    "render_series",
    "banner",
]
