"""The paper's claims, one checked experiment per short id.

Each function runs one figure, table or ablation through the runners
in :mod:`repro.bench.figures`, prints its table through
:mod:`repro.bench.report`, and asserts the paper's shape: an
``AssertionError`` is a failed claim.  :data:`CLAIMS` maps each short
id to its function, in the order ``python -m repro.bench --list``
shows them.  EXPERIMENTS.md records the paper's values next to the
measured ones.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict

import numpy as np

from ..core import BUFFERED, P2P
from ..hw import KB, MB
from ..sched import SchedConfig
from ..sim.stats import cdf_points, summarize
from .figures import (
    COALESCE_FRAGMENTS,
    SHARED_SOCKET_REQUESTS,
    controlplane_aggregate_read,
    count_loc,
    datapath_gbps,
    faults_chaos_run,
    fs_latency_breakdown,
    fs_random_io,
    imagesearch_run,
    kvstore_ops_per_sec,
    net_latency_breakdown,
    net_stream_throughput,
    nvme_coalescing_run,
    pcie_transfer_mbps,
    prefetch_scan,
    ring_combining_pairs_per_sec,
    ringbuf_copy_bandwidth,
    ringbuf_local_pairs_per_sec,
    ringbuf_pcie_ops_per_sec,
    sched_qos_overload,
    sched_qos_unloaded,
    shared_cache_two_readers,
    shared_socket_rate,
    tcp_echo_samples,
    textindex_seconds,
)
from .perfgate import baseline_path, compare_docs, run_suite
from .report import render_series, render_table

__all__ = ["CLAIMS"]

CLAIMS: Dict[str, Callable[[], None]] = {}


def _claim(fn: Callable[[], None]) -> Callable[[], None]:
    CLAIMS[fn.__name__] = fn
    return fn


# The block sizes of Figs. 1(a), 11 and 12.
_FS_BLOCK_SIZES = [32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB,
                   2 * MB, 4 * MB]


def _size_label(nbytes: int) -> str:
    if nbytes < KB:
        return f"{nbytes}B"
    if nbytes < MB:
        return f"{nbytes // KB}KB"
    return f"{nbytes // MB}MB"


# ----------------------------------------------------------------------
# Ablations: each isolates one Solros mechanism
# ----------------------------------------------------------------------
@_claim
def ablation_buffercache() -> None:
    """Ablation: the shared host-side buffer cache (§4.3).

    One co-processor streams a file, warming the cache; a second one
    then reads it.  With the shared cache the second reader skips the
    SSD entirely; without it every byte pays storage again.
    """
    results = {
        "shared-cache": shared_cache_two_readers(256 * MB),
        "no-cache": shared_cache_two_readers(None),
    }
    rows = [
        [mode, r[0], r[1], r[2]]
        for mode, r in results.items()
    ]
    print(
        render_table(
            "Ablation: shared buffer cache (GB/s; phi2 streams, then phi3)",
            ["mode", "first-read", "second-read", "hit-rate"],
            rows,
            subtitle="with the shared cache the second co-processor's "
            "read skips the SSD",
        )
    )
    cached, plain = results["shared-cache"], results["no-cache"]
    # Second reader accelerates past the SSD's 2.4 GB/s read cap.
    assert cached[1] > 1.5 * cached[0]
    assert cached[1] > 2.6
    # Without the cache, both passes pay storage.
    assert plain[1] < 1.25 * plain[0]
    assert cached[2] > 0.4  # second pass hits


@_claim
def ablation_combining() -> None:
    """Ablation: combining vs MCS locking inside the Solros ring (§4.2.3).

    Fig. 8 compares against the two-lock queue; this swaps the
    combining queues of the Solros ring itself for MCS locks
    (``RingPolicy.combining=False``) on the Phi-local configuration.
    """
    rows = []
    results = {}
    for n in (1, 8, 32, 61):
        combined = ring_combining_pairs_per_sec(True, n) / 1e3
        locked = ring_combining_pairs_per_sec(False, n) / 1e3
        results[n] = (combined, locked)
        rows.append([n, combined, locked, combined / locked])
    print(
        render_table(
            "Ablation: Solros ring with combining vs MCS locking "
            "(k pairs/s)",
            ["threads", "combining", "mcs-locked", "ratio"],
            rows,
            subtitle="combining amortizes atomics and keeps control "
            "lines in the combiner's cache",
        )
    )
    # At scale, combining wins clearly.
    combined61, locked61 = results[61]
    assert combined61 > 1.15 * locked61
    # At one thread they are comparable (within 2x either way).
    combined1, locked1 = results[1]
    assert 0.5 < combined1 / locked1 < 2.0


@_claim
def ablation_datapath() -> None:
    """Ablation: the control plane's data-path policy (§4.3.2).

    Forced P2P, forced buffered and the full policy, for a Phi on each
    NUMA domain.  The policy should match the better mode in both
    placements: the "judicious use of peer-to-peer" of Fig. 1(a).
    """
    rows = []
    results = {}
    for placement in ("same", "cross"):
        for force, label in ((P2P, "always-P2P"), (BUFFERED, "always-buffered"),
                             (None, "policy")):
            gbps = datapath_gbps(placement, force)
            results[(placement, label)] = gbps
            rows.append([placement, label, gbps])
    print(
        render_table(
            "Ablation: data-path policy (512KB random read, GB/s)",
            ["phi-numa", "mode", "GB/s"],
            rows,
            subtitle="the policy should match the better mode on both "
            "NUMA placements",
        )
    )
    # Same NUMA: P2P at least matches buffered (both device-bound;
    # P2P additionally halves PCIe traffic and skips host staging).
    assert results[("same", "always-P2P")] > 0.93 * results[("same", "always-buffered")]
    # Cross NUMA: the relayed P2P path is capped at ~300 MB/s, so the
    # buffered path wins by an order of magnitude.
    assert results[("cross", "always-buffered")] > 3 * results[("cross", "always-P2P")]
    assert results[("cross", "always-P2P")] < 0.4
    # The policy tracks the winner within 10% in both placements.
    for placement in ("same", "cross"):
        best = max(
            results[(placement, "always-P2P")],
            results[(placement, "always-buffered")],
        )
        assert results[(placement, "policy")] > 0.9 * best


@_claim
def ablation_iovec() -> None:
    """Ablation: io-vector coalescing in the NVMe driver (§5).

    The optimized driver batches all NVMe commands of one read/write
    call behind one doorbell and one completion interrupt: the
    mechanism that lets Phi-Solros match the host in Fig. 1(a).
    """
    results = {
        "coalesced": nvme_coalescing_run(True),
        "per-command": nvme_coalescing_run(False),
    }
    rows = [
        [mode, r[0], r[1], r[2]]
        for mode, r in results.items()
    ]
    print(
        render_table(
            "Ablation: NVMe io-vector coalescing (fragmented 128KB reads)",
            ["mode", "calls/s", "doorbells", "interrupts"],
            rows,
            subtitle="one doorbell + one interrupt per call vs one per "
            "NVMe command (16 fragments/call)",
        )
    )
    on, off = results["coalesced"], results["per-command"]
    # 16x fewer doorbells and interrupts...
    assert off[1] == COALESCE_FRAGMENTS * on[1]
    assert off[2] == COALESCE_FRAGMENTS * on[2]
    # ...and measurably higher call throughput.
    assert on[0] > 1.1 * off[0]


@_claim
def ablation_prefetch() -> None:
    """Ablation: control-plane prefetching (the §4 extension).

    Two co-processors sample a shared dataset, marking it hot; two
    others then scan it in full.  With prefetching the control plane
    has pulled the file into the shared cache, so the scans run from
    host memory; without it every scan pays the SSD.
    """
    results = {"prefetch-on": prefetch_scan(True), "prefetch-off": prefetch_scan(False)}
    rows = [[mode, r[0], r[1], r[2]] for mode, r in results.items()]
    print(
        render_table(
            "Ablation: control-plane prefetching (2 scanning phis, GB/s)",
            ["mode", "scan GB/s", "hit-rate", "prefetches"],
            rows,
            subtitle="hot-file detection across planes warms the shared "
            "cache before the scans start",
        )
    )
    on, off = results["prefetch-on"], results["prefetch-off"]
    assert on[2] == 1 and off[2] == 0
    # The warmed scans clear the SSD's 2.4 GB/s ceiling.
    assert on[0] > 1.3 * off[0]
    assert on[0] > 2.6


# ----------------------------------------------------------------------
# Fault injection + recovery
# ----------------------------------------------------------------------
@_claim
def faults() -> None:
    """Chaos run: delegated I/O survives a seeded fault plan.

    Four co-processor threads run a closed loop of reads and writes
    while the plan injects NVMe errors and latency spikes, ring-slot
    stalls, PCIe link degradation and one fs-proxy crash.  Every
    operation completes, the ``faults.*`` accounting adds up, and the
    same plan gives the same run twice.
    """
    r = faults_chaos_run()
    counts = r["counts"]
    injected = {
        name: n
        for name, n in counts.items()
        if n
        and not name.startswith("faults.rpc.")
        and name != "faults.fallback.buffered"
    }
    rows = [
        [name.replace("faults.", ""), n] for name, n in sorted(counts.items()) if n
    ]
    print(
        render_table(
            "Chaos run: injected faults and recovery actions",
            ["faults.* counter", "count"],
            rows,
            subtitle=(
                f"{r['ops']} ops completed at {r['gbps']:.3f} GB/s; "
                f"p50 {r['p50_us']:.1f} us, p99 {r['p99_us']:.1f} us; "
                f"{r['stub_retries']} stub re-issues"
            ),
            col_width=28,
        )
    )
    # The whole workload completed despite the chaos.
    assert r["ops"] == 48, f"lost operations: {r['ops']}/48"
    # The plan actually did damage — this is not a quiet run.
    assert counts["faults.proxy.crashes"] >= 1
    assert counts["faults.nvme.read_errors"] + counts["faults.nvme.write_errors"] > 0
    assert counts["faults.nvme.latency_spikes"] > 0
    assert counts["faults.ring.stalls"] > 0
    assert counts["faults.pcie.degraded"] > 0
    assert injected, "no faults injected"
    # ... and recovery earned its keep: the crash forced timeouts and
    # re-issues, P2P NVMe errors degraded to the buffered path.
    assert counts["faults.rpc.timeouts"] >= 1
    assert counts["faults.rpc.retries"] == r["stub_retries"] > 0
    assert counts["faults.fallback.buffered"] >= 1
    # Latency tail stretched but stayed bounded (retry budget held).
    assert r["p99_us"] >= r["p50_us"]
    # The NVMe breaker saw too few consecutive failures to trip.
    assert all(b["state"] == "closed" for b in r["breakers"])

    # Same plan, same seed: bit-for-bit identical chaos.
    a = faults_chaos_run()
    b = faults_chaos_run()
    assert a["samples"] == b["samples"]
    assert a["counts"] == b["counts"]
    assert a["stub_retries"] == b["stub_retries"]


# ----------------------------------------------------------------------
# §2 motivation: Figure 1
# ----------------------------------------------------------------------
@_claim
def fig01a() -> None:
    """Figure 1(a): file random read on the NVMe SSD, the headline plot.

    Solros reaches the SSD's 2.4 GB/s at >= 512 KB and matches the
    host; across NUMA the policy switches to buffered mode, while the
    naive forced-P2P path is capped at ~300 MB/s (caption); the
    stock-Phi stacks stay an order of magnitude below at every size
    (NFS ~19x below Solros, virtio ~0.2 GB/s).
    """
    threads = 32
    stacks = [
        ("host", "Host"),
        ("solros", "Phi-Solros"),
        ("solros-xnuma", "Solros-xNUMA"),
        ("solros-xnuma-p2p", "naive-xP2P"),
        ("nfs", "Phi-NFS"),
        ("virtio", "Phi-virtio"),
    ]
    series = {}
    for stack, label in stacks:
        series[label] = [
            fs_random_io(stack, bs, threads, op="read")
            for bs in _FS_BLOCK_SIZES
        ]
    print(
        render_series(
            "Figure 1(a): random read throughput (GB/s)",
            "block",
            [f"{bs // KB}KB" for bs in _FS_BLOCK_SIZES],
            series,
            subtitle=f"{threads} threads; paper: Solros ~ Host ~ 2.4, "
            "xNUMA P2P capped 0.3, NFS ~19x below, virtio ~0.2",
        )
    )
    peak = {label: max(vals) for label, vals in series.items()}
    # Solros reaches the SSD's read bandwidth and matches the host.
    assert peak["Phi-Solros"] > 2.0
    assert peak["Phi-Solros"] > 0.9 * peak["Host"]
    # The cross-NUMA policy keeps throughput high...
    assert peak["Solros-xNUMA"] > 1.8
    # ...while naive P2P across NUMA is capped at ~300 MB/s.
    assert peak["naive-xP2P"] < 0.4
    # Stock-Phi stacks are an order of magnitude slower.
    assert peak["Phi-Solros"] / peak["Phi-NFS"] > 10
    assert peak["Phi-Solros"] / peak["Phi-virtio"] > 5


@_claim
def fig01b() -> None:
    """Figure 1(b): TCP latency CDF for 64-byte messages.

    Phi-Linux's 99th percentile is ~7x the host's, while Solros stays
    close to the host.
    """
    configs = ["host", "solros", "phi-linux"]
    samples = {cfg: tcp_echo_samples(cfg, 300) for cfg in configs}
    stats = {cfg: summarize(samples[cfg]) for cfg in configs}

    rows = []
    for cfg in configs:
        s = stats[cfg]
        rows.append(
            [
                cfg,
                s["p50"] / 1000.0,
                s["p95"] / 1000.0,
                s["p99"] / 1000.0,
                s["max"] / 1000.0,
            ]
        )
    print(
        render_table(
            "Figure 1(b): 64-byte TCP echo latency (usec)",
            ["config", "p50", "p95", "p99", "max"],
            rows,
            subtitle="paper: Phi-Linux p99 ~7x Host; Solros near Host",
        )
    )
    # CDF points for the figure proper.
    cdf_rows = []
    for cfg in configs:
        for value, pct in cdf_points(samples[cfg], npoints=10):
            cdf_rows.append([cfg, value / 1000.0, pct])
    print(
        render_table(
            "Figure 1(b) CDF points",
            ["config", "usec", "percent"],
            cdf_rows,
        )
    )

    p99 = {cfg: stats[cfg]["p99"] for cfg in configs}
    # Phi-Linux tail is several times the host's (paper: ~7x).
    assert p99["phi-linux"] / p99["host"] > 3.5
    # Solros stays within ~2.5x of the host tail.
    assert p99["solros"] / p99["host"] < 2.5
    # Ordering on medians too.
    assert stats["host"]["p50"] < stats["solros"]["p50"] < stats["phi-linux"]["p50"]


# ----------------------------------------------------------------------
# §4.2 transport: Figures 4 and 8–10
# ----------------------------------------------------------------------
@_claim
def fig04() -> None:
    """Figure 4: PCIe transfer bandwidth, DMA vs load/store memcpy.

    Host- and Phi-initiated transfers of 64 B .. 8 MB.  At 8 MB DMA is
    ~150x (host) / ~116x (Phi) faster than load/store memcpy; at 64 B
    memcpy is 2.9x (host) / 12.6x (Phi) faster than DMA;
    host-initiated beats Phi-initiated by ~2.3x (DMA) and ~1.8x
    (memcpy).
    """
    sizes = [64, 512, 1 * KB, 4 * KB, 16 * KB, 64 * KB, 1 * MB, 4 * MB, 8 * MB]
    rows = []
    table = {}
    for size in sizes:
        row = [_size_label(size)]
        for initiator in ("host", "phi"):
            for mech in ("dma", "memcpy"):
                direction = "h2p" if initiator == "host" else "p2h"
                mbps = pcie_transfer_mbps(mech, initiator, direction, size)
                row.append(mbps)
                table[(size, initiator, mech)] = mbps
        rows.append(row)
    print(
        render_table(
            "Figure 4: PCIe transfer bandwidth (MB/s)",
            ["size", "host-DMA", "host-memcpy", "phi-DMA", "phi-memcpy"],
            rows,
            subtitle="paper: 8MB DMA 150x/116x memcpy; 64B memcpy "
            "2.9x/12.6x DMA; host-initiated 2.3x/1.8x faster",
        )
    )
    big, small = 8 * MB, 64
    # Large transfers: DMA dominates by the paper's ratios.
    host_big = table[(big, "host", "dma")] / table[(big, "host", "memcpy")]
    phi_big = table[(big, "phi", "dma")] / table[(big, "phi", "memcpy")]
    assert 100 < host_big < 220, host_big       # paper: ~150x
    assert 70 < phi_big < 180, phi_big          # paper: ~116x
    # Small transfers: memcpy wins.
    host_small = table[(small, "host", "memcpy")] / table[(small, "host", "dma")]
    phi_small = table[(small, "phi", "memcpy")] / table[(small, "phi", "dma")]
    assert 2.0 < host_small < 4.5, host_small   # paper: 2.9x
    assert 8.0 < phi_small < 18.0, phi_small    # paper: 12.6x
    # Initiator asymmetry at large sizes.
    dma_asym = table[(big, "host", "dma")] / table[(big, "phi", "dma")]
    ls_asym = table[(big, "host", "memcpy")] / table[(big, "phi", "memcpy")]
    assert 1.9 < dma_asym < 2.8, dma_asym       # paper: 2.3x
    assert 1.5 < ls_asym < 2.2, ls_asym         # paper: 1.8x


@_claim
def fig08() -> None:
    """Figure 8: ring-buffer scalability on the Xeon Phi.

    64-byte enqueue-dequeue pairs, both ring ends local to the Phi (no
    PCIe).  The combining ring scales to ~700k pairs/s at 61 cores: 4.1x the
    ticket-lock two-lock queue (which collapses past ~10 threads) and
    1.5x the MCS-lock variant (which plateaus).
    """
    threads = [1, 2, 4, 8, 16, 32, 48, 61]
    algos = [("solros", "Solros"), ("ticket", "two-lock(ticket)"),
             ("mcs", "two-lock(MCS)")]
    series = {}
    for algo, name in algos:
        series[name] = [
            ringbuf_local_pairs_per_sec(algo, n) / 1e3 for n in threads
        ]
    print(
        render_series(
            "Figure 8: enqueue-dequeue pairs (k pairs/s) on the Phi",
            "threads",
            threads,
            series,
            subtitle="paper @61: Solros ~700k = 4.1x ticket, 1.5x MCS; "
            "ticket peaks ~8-16 threads then collapses",
        )
    )
    solros = series["Solros"]
    ticket = series["two-lock(ticket)"]
    mcs = series["two-lock(MCS)"]
    at61 = threads.index(61)
    # Headline ratios (paper: 4.1x and 1.5x).
    assert 3.0 < solros[at61] / ticket[at61] < 7.0
    assert 1.15 < solros[at61] / mcs[at61] < 2.2
    # The ticket lock collapses: its 61-thread rate is well below peak.
    assert ticket[at61] < 0.55 * max(ticket)
    # Combining keeps scaling (monotone-ish to the plateau).
    assert solros[at61] >= 0.95 * max(solros)
    # MCS plateaus rather than collapsing.
    assert mcs[at61] > 0.8 * max(mcs)


@_claim
def fig09() -> None:
    """Figure 9: the ring buffer over PCIe, lazy vs eager head/tail.

    64-byte elements, both directions.  Replicating head/tail and
    synchronizing them lazily cuts PCIe transactions: ~4x throughput
    Phi->Host and ~1.4x Host->Phi.
    """
    threads = [1, 2, 4, 8, 16, 32, 61]
    series = {}
    for direction, tag in (("phi2host", "Phi->Host"), ("host2phi", "Host->Phi")):
        for lazy, mode in ((True, "lazy"), (False, "eager")):
            series[f"{tag} {mode}"] = [
                ringbuf_pcie_ops_per_sec(direction, lazy, n) / 1e3
                for n in threads
            ]
    print(
        render_series(
            "Figure 9: ring buffer over PCIe (k ops/s), 64B elements",
            "threads",
            threads,
            series,
            subtitle="paper: lazy/eager ~4x (Phi->Host), ~1.4x (Host->Phi)",
        )
    )
    p2h_ratio = max(series["Phi->Host lazy"]) / max(series["Phi->Host eager"])
    h2p_ratio = max(series["Host->Phi lazy"]) / max(series["Host->Phi eager"])
    # Paper ratios are ~4x and ~1.4x; our model lands at ~2.2x and ~3x
    # (lazy absolute rates match the paper well — ~1000k and ~400-600k —
    # while the eager baselines differ; see EXPERIMENTS.md).
    assert 1.7 < p2h_ratio < 7.0, p2h_ratio
    assert 1.3 < h2p_ratio < 5.0, h2p_ratio
    # Asymmetric absolute performance (the host pulls faster), and the
    # Phi->Host lazy peak approaches the paper's ~1M ops/s.
    assert max(series["Phi->Host lazy"]) > max(series["Host->Phi lazy"])
    assert max(series["Phi->Host lazy"]) > 700.0  # k ops/s


@_claim
def fig10() -> None:
    """Figure 10: ring bandwidth vs element size, adaptive copy.

    memcpy, DMA and adaptive copy, 8 threads, one direction.  memcpy
    wins below the crossover (~1 KB from the host, ~16 KB from
    the Phi), DMA wins above it, and adaptive tracks the winner.
    """
    sizes = [512, 1 * KB, 4 * KB, 16 * KB, 64 * KB, 1 * MB, 4 * MB]
    out = {}
    for direction, tag in (("phi2host", "Phi->Host"), ("host2phi", "Host->Phi")):
        series = {}
        for mode in ("memcpy", "dma", "adaptive"):
            series[mode] = [
                ringbuf_copy_bandwidth(direction, mode, size) for size in sizes
            ]
        out[tag] = series
    for tag, series in out.items():
        print(
            render_series(
                f"Figure 10 ({tag}): ring bandwidth (GB/s), 8 threads",
                "element",
                [_size_label(s) for s in sizes],
                series,
                subtitle="paper: memcpy wins small, DMA wins large, "
                "adaptive ~= max of both",
            )
        )
    for tag, series in out.items():
        memcpy, dma, adaptive = series["memcpy"], series["dma"], series["adaptive"]
        # memcpy beats DMA at the smallest size; DMA beats memcpy at 4MB.
        assert memcpy[0] > dma[0], tag
        assert dma[-1] > 5 * memcpy[-1], tag
        # Adaptive tracks the winner at every size.  The margin is
        # loose (30%) right around the paper's fixed 1 KB / 16 KB
        # thresholds, which sit slightly off the model's exact
        # crossover — fixed thresholds are approximations in the real
        # system too.
        for i in range(len(sizes)):
            best = max(memcpy[i], dma[i])
            assert adaptive[i] > 0.70 * best, (tag, sizes[i])
    # Phi->Host pulls faster at large sizes (host-initiated copies).
    assert (
        out["Phi->Host"]["adaptive"][-1] > out["Host->Phi"]["adaptive"][-1]
    )


# ----------------------------------------------------------------------
# §6.1 file system: Figures 11–13
# ----------------------------------------------------------------------
_FS_STACKS = [("host", "Host"), ("solros", "Phi-Solros"),
              ("virtio", "Phi-virtio"), ("nfs", "Phi-NFS")]


def _fs_threads():
    """Threads per stack for Figs. 11/12: the paper sweeps
    {1,4,8,32,61}; {1,8,61} shows the same shape, faster.
    REPRO_BENCH_FULL=1 runs the paper's complete grid."""
    return [1, 4, 8, 32, 61] if os.environ.get("REPRO_BENCH_FULL") else [1, 8, 61]


def _fs_grid(op: str, figure: str, subtitle: str):
    """Run and print Fig. 11/12's block size x threads x stack grid;
    returns the threads and each (label, threads) series."""
    threads = _fs_threads()
    results = {}
    for stack, label in _FS_STACKS:
        for n in threads:
            results[(label, n)] = [
                fs_random_io(stack, bs, n, op=op) for bs in _FS_BLOCK_SIZES
            ]
    for _stack, label in _FS_STACKS:
        series = {f"{n}thr": results[(label, n)] for n in threads}
        print(
            render_series(
                f"{figure} ({label}): random {op} (GB/s)",
                "block",
                [f"{bs // KB}KB" for bs in _FS_BLOCK_SIZES],
                series,
                subtitle=subtitle,
            )
        )
    return threads, results


@_claim
def fig11() -> None:
    """Figure 11: random-read throughput on the NVMe SSD.

    Block size x thread count x four configurations.  Solros and the
    host reach the SSD's 2.4 GB/s; virtio plateaus around 0.2 GB/s and
    NFS below that, at every thread count.
    """
    threads, results = _fs_grid(
        "read", "Figure 11",
        "paper: Host/Solros -> 2.4 GB/s; virtio ~0.2; NFS ~0.1",
    )
    peak = {label: max(max(results[(label, n)]) for n in threads)
            for _s, label in _FS_STACKS}
    assert peak["Host"] > 2.0
    assert peak["Phi-Solros"] > 2.0
    assert peak["Phi-virtio"] < 0.45
    assert peak["Phi-NFS"] < 0.3
    # Solros at 61 threads and large blocks saturates the device.
    big61 = results[("Phi-Solros", 61)][-1]
    assert big61 > 2.0
    # Single-thread Solros is latency-bound, well below saturation at
    # small blocks (the Figure 11 left-edge shape).
    small1 = results[("Phi-Solros", 1)][0]
    assert small1 < 0.65


@_claim
def fig12() -> None:
    """Figure 12: random-write throughput, the same grid as Fig. 11.

    Solros and the host reach the SSD's write bandwidth (1.2 GB/s);
    virtio and NFS stay below 0.1 GB/s.
    """
    threads, results = _fs_grid(
        "write", "Figure 12", "paper: Host/Solros -> 1.2 GB/s; virtio/NFS < 0.1"
    )
    peak = {label: max(max(results[(label, n)]) for n in threads)
            for _s, label in _FS_STACKS}
    # Write bandwidth cap is 1.2 GB/s — half the read cap.
    assert 1.0 < peak["Host"] < 1.4
    assert 1.0 < peak["Phi-Solros"] < 1.4
    assert peak["Phi-virtio"] < 0.2
    assert peak["Phi-NFS"] < 0.25


@_claim
def fig13() -> None:
    """Figure 13: I/O latency breakdown, Solros vs stock Xeon Phi.

    (a) 512 KB random reads split into file system, block/transport
    and storage: Phi-virtio is dominated by the CPU relay copy and its
    Phi-resident file system, Phi-Solros by storage.  (b) 64-byte TCP
    echo split into network stack and transport: Phi-Linux is
    stack-dominated; Solros moves the stack to the host.
    """
    fs = {
        "Phi-virtio": fs_latency_breakdown("virtio"),
        "Phi-Solros": fs_latency_breakdown("solros"),
    }
    net = {
        "Phi-Linux": net_latency_breakdown("phi-linux"),
        "Phi-Solros": net_latency_breakdown("solros"),
    }
    rows = [
        [cfg, d["filesystem"], d["transport"], d["storage"], d["total"]]
        for cfg, d in fs.items()
    ]
    print(
        render_table(
            "Figure 13(a): 512KB random read breakdown (usec/op)",
            ["config", "filesystem", "transport", "storage", "total"],
            rows,
            subtitle="paper: virtio ~5-7x Solros total; virtio is "
            "transport/FS dominated, Solros storage dominated",
        )
    )
    rows = [
        [cfg, d["stack"], d["transport"], d["total"]]
        for cfg, d in net.items()
    ]
    print(
        render_table(
            "Figure 13(b): 64B TCP echo breakdown (usec/RTT)",
            ["config", "net-stack", "transport", "total"],
            rows,
            subtitle="paper: Phi-Linux stack-dominated; Solros runs "
            "the stack on the host",
        )
    )

    virtio, solros = fs["Phi-virtio"], fs["Phi-Solros"]
    # Total gap: our virtio total (~7 ms) matches the paper's Fig. 13
    # bar; our Solros path is somewhat leaner than theirs, so the
    # ratio lands a bit above the paper's ~5-7x.
    assert 3.0 < virtio["total"] / solros["total"] < 20.0
    # Virtio is dominated by the relay transport; Solros by storage.
    assert virtio["transport"] > virtio["storage"]
    assert solros["storage"] > solros["transport"]
    # Zero-copy DMA vs CPU relay copy: the transport term collapses
    # (paper quotes 171x for the copy itself; our relay model gives
    # ~265x on the whole transport term, 6168 vs 23.3 usec; the bound
    # only asks for an order of magnitude).
    assert virtio["transport"] / max(solros["transport"], 1e-9) > 10
    # The stub spends several times less Phi time than the full FS
    # (paper: ~5x).
    assert 2.5 < virtio["filesystem"] / solros["filesystem"] < 10.0

    # Network: the Phi stack term dwarfs the host stack term.
    assert net["Phi-Linux"]["stack"] > 4 * net["Phi-Solros"]["stack"]
    assert net["Phi-Linux"]["total"] > 1.4 * net["Phi-Solros"]["total"]


# ----------------------------------------------------------------------
# §6.1 network: Figures 14 and 15 (reconstructed)
# ----------------------------------------------------------------------
@_claim
def fig14() -> None:
    """Figure 14 (reconstructed): network streaming throughput.

    The abstract reports Solros improving network-operation throughput
    by ~7x over the stock Xeon Phi.  Clients stream to a server over
    12 connections, sweeping message size: Solros ~ Host, both several
    times Phi-Linux (whose softirq path serializes all Phi-side
    segment processing).
    """
    msg_sizes = [64, 512, 4 * KB, 16 * KB, 64 * KB]
    # Enough concurrent connections that per-message pull latency on
    # the Phi (notably for 1-16 KB messages below the adaptive-copy
    # DMA threshold) is hidden by parallelism, as the paper's
    # many-threaded servers do.
    series = {}
    for cfg, label in (("host", "Host"), ("solros", "Phi-Solros"),
                       ("phi-linux", "Phi-Linux")):
        series[label] = [
            net_stream_throughput(cfg, size, n_messages=60, n_conns=12)
            for size in msg_sizes
        ]
    print(
        render_series(
            "Figure 14*: client->server stream throughput (MB/s)",
            "msg",
            [_size_label(s) for s in msg_sizes],
            series,
            subtitle="reconstructed; abstract: Solros ~7x stock Phi "
            "for network operations",
        )
    )
    # At every message size Solros beats Phi-Linux substantially.
    for i, _size in enumerate(msg_sizes):
        assert series["Phi-Solros"][i] > 2.0 * series["Phi-Linux"][i]
    # The large-message gap reaches the abstract's order (>= 4x).
    big = len(msg_sizes) - 1
    assert series["Phi-Solros"][big] / series["Phi-Linux"][big] > 4.0
    # Solros delivers GB/s-class streaming into the Phi; the raw host
    # endpoint is faster still (it keeps the data in host memory —
    # Solros additionally crosses PCIe with Phi-initiated DMA pulls,
    # whose descriptor programming serializes per card).
    assert series["Phi-Solros"][big] > 1000.0  # MB/s
    assert series["Phi-Solros"][big] > 0.25 * series["Host"][big]


@_claim
def fig15() -> None:
    """Figure 15 (reconstructed): shared listening socket scalability.

    §4.4.3: several co-processors listen on one address and port, and
    the control plane balances connections across them.  Aggregate
    request throughput grows from 1 to 4 members, and round robin
    keeps them balanced.
    """
    rows = []
    balances = {}
    for n in (1, 2, 3, 4):
        rate, served = shared_socket_rate(n)
        rows.append([n, rate, min(served.values()), max(served.values())])
        balances[n] = served
    print(
        render_table(
            "Figure 15*: shared listening socket scaling (requests/s)",
            ["members", "req/s", "min-served", "max-served"],
            rows,
            subtitle="reconstructed; round-robin across 1-4 Phis",
        )
    )
    rates = [row[1] for row in rows]
    # Aggregate throughput grows with members...
    assert rates[3] > 1.8 * rates[0]
    # ...and round robin keeps the members balanced (within one conn's
    # worth of requests).
    served4 = balances[4]
    per_conn = SHARED_SOCKET_REQUESTS // 8
    assert max(served4.values()) - min(served4.values()) <= 2 * per_conn


# ----------------------------------------------------------------------
# §6.2 applications: Figures 16 and 17 (reconstructed)
# ----------------------------------------------------------------------
@_claim
def fig16() -> None:
    """Figure 16 (reconstructed): text indexing.

    The abstract: Solros improves text-indexing throughput by 19x over
    the stock Xeon Phi.  The I/O-bound inverted-index build runs
    unmodified on Solros, virtio and NFS; the 19x baseline is the NFS
    mount, the slowest stock path as in Fig. 1(a).
    """
    times = {
        "Phi-Solros": textindex_seconds("solros"),
        "Phi-virtio": textindex_seconds("virtio"),
        "Phi-NFS": textindex_seconds("nfs"),
    }
    solros = times["Phi-Solros"]
    rows = [
        [cfg, t, solros / t if cfg == "Phi-Solros" else t / solros]
        for cfg, t in times.items()
    ]
    print(
        render_table(
            "Figure 16*: text indexing runtime (s) and slowdown vs Solros",
            ["config", "seconds", "x-vs-solros"],
            rows,
            subtitle="32 x 2048KB docs, 32 workers; "
            "paper headline: Solros 19x stock Phi",
        )
    )
    # The stock-Phi NFS path is an order of magnitude slower (we
    # measure ~10x; the paper's headline is 19x — see EXPERIMENTS.md),
    # and virtio several times slower.
    assert times["Phi-NFS"] / solros > 8.0
    assert times["Phi-virtio"] / solros > 4.0


@_claim
def fig17() -> None:
    """Figure 17 (reconstructed): image search.

    The abstract: Solros improves image search by ~2x, much less than
    text indexing because the k-NN kernel is SIMD-friendly compute the
    Phi is good at.  The returned neighbours must be identical on both
    stacks: the I/O stack must not change answers.
    """
    results = {
        "Phi-Solros": imagesearch_run("solros"),
        "Phi-NFS": imagesearch_run("nfs"),
    }
    rows = []
    for cfg, r in results.items():
        rows.append(
            [
                cfg,
                r.elapsed_ns / 1e6,
                r.load_ns / 1e6,
                r.compute_ns / 1e6,
            ]
        )
    print(
        render_table(
            "Figure 17*: image search runtime (ms: total / load / compute)",
            ["config", "total", "db-load", "compute"],
            rows,
            subtitle="paper headline: Solros ~2x stock Phi "
            "(compute-heavy, so the I/O win dilutes)",
        )
    )
    solros, nfs = results["Phi-Solros"], results["Phi-NFS"]
    ratio = nfs.elapsed_ns / solros.elapsed_ns
    # The paper's 2x: much smaller than the 19x of the I/O-bound app.
    assert 1.4 < ratio < 4.0, ratio
    # Compute time is stack-independent (same cores, same work).
    assert abs(nfs.compute_ns - solros.compute_ns) / solros.compute_ns < 0.1
    # Correctness: identical neighbours on both stacks.
    for a, b in zip(solros.neighbors, nfs.neighbors):
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# §6.3 control plane: Figure 18 (reconstructed) and the KV store
# ----------------------------------------------------------------------
@_claim
def fig18() -> None:
    """Figure 18 (reconstructed): control-plane scalability (§6.3).

    One host control plane serves 1–4 co-processors issuing concurrent
    512 KB random reads; aggregate throughput holds at the SSD's
    bandwidth.  A second table reruns the 2- and 4-Phi points through
    the DRR scheduler, whose metrics show each co-processor's share
    and the p50/p99 latency of single delegated reads.
    """
    rows = []
    for n_phis in (1, 2, 3, 4):
        rows.append([n_phis, controlplane_aggregate_read(n_phis)["gbps"]])
    sched_rows = []
    for n_phis in (2, 4):
        # Two credits per reader thread: admission never rejects.
        r = controlplane_aggregate_read(
            n_phis, SchedConfig("drr", source_credits=16)
        )
        sched_rows.append([
            n_phis,
            round(r["gbps"], 2),
            round(r["p50_us"], 1),
            round(r["p99_us"], 1),
            " ".join(f"{s * 100:.0f}" for s in r["shares"].values()),
            r["workers_high_water"],
        ])
    print(
        render_table(
            "Figure 18*: aggregate read throughput vs #co-processors",
            ["phis", "GB/s"],
            rows,
            subtitle="reconstructed §6.3; expected: stays at the SSD "
            "cap (~2.4 GB/s), no control-plane collapse",
        )
    )
    print(
        render_table(
            "Figure 18* (sched view): per-co-processor share + latency",
            ["phis", "GB/s", "p50 us", "p99 us", "share %",
             "workers hw"],
            sched_rows,
            subtitle="same workload through the DRR scheduler; equal "
            "tenants -> equal shares, elastic pool grows with load",
            col_width=16,
        )
    )
    rates = [row[1] for row in rows]
    # Every configuration sustains (near-)device bandwidth.
    assert min(rates) > 1.8
    # Adding co-processors does not collapse the control plane.
    assert rates[3] > 0.85 * rates[0]
    for row in sched_rows:
        n_phis, gbps = row[0], row[1]
        shares = [float(s) / 100.0 for s in row[4].split()]
        # The scheduled path also sustains device bandwidth...
        assert gbps > 1.8
        # ...and equal tenants end up with equal throughput shares.
        fair = 1.0 / n_phis
        assert all(abs(s - fair) / fair < 0.15 for s in shares)


@_claim
def kvstore_scaleout() -> None:
    """KV-store scale-out over the shared listening socket (§4.4.3).

    The section closes: "our shared listening socket is a simple way
    to scale out network services using multiple co-processors".
    Aggregate key-value ops/s as shards are added, with the
    content-based balancer keeping each key on its owning shard.
    """
    rows = [[n, kvstore_ops_per_sec(n)] for n in (1, 2, 4)]
    print(
        render_table(
            "KV store scale-out (content-based sharding, ops/s)",
            ["shards", "ops/s"],
            rows,
            subtitle="§4.4.3: shared listening socket scales network "
            "services; with 1-request connections the shared accept "
            "path eventually caps the curve",
        )
    )
    rates = {n: rate for n, rate in rows}
    # Adding shards increases aggregate service throughput until the
    # shared accept path saturates (~1.5x here; connection-per-request
    # is the worst case for this ceiling).
    assert rates[2] > 1.3 * rates[1]
    assert rates[4] > 1.4 * rates[1]


# ----------------------------------------------------------------------
# The repository's own checks: perf-gate, scheduler QoS, Table 1
# ----------------------------------------------------------------------
@_claim
def perfgate() -> None:
    """Perf-gate suite: the repository's own performance trajectory.

    Not a paper figure: runs :mod:`repro.bench.perfgate`'s
    deterministic hot-path micro-benchmarks and diffs them against the
    committed ``BENCH_baseline.json`` with the CI perf-gate's
    tolerance model.  All timings come off the virtual clock, so a
    failure is a real cost-model or algorithm change.
    """
    doc = run_suite()
    width = max(len(name) for name in doc["metrics"])
    print("\nperf-gate suite (virtual-clock, deterministic):")
    for name in sorted(doc["metrics"]):
        m = doc["metrics"][name]
        print(f"  {name:<{width}}  {m['value']:>14,.3f} {m['units']}")
    assert not doc["errors"], f"crashed benchmarks: {doc['errors']}"
    baseline = baseline_path()
    if baseline.exists():
        report = compare_docs(json.loads(baseline.read_text()), doc)
        print(report.render())
        assert report.ok, (
            "perf regression vs committed BENCH_baseline.json — "
            "if intentional, bless with 'python -m repro.bench.perfgate "
            "run --update-baseline' (see docs/PERFORMANCE.md)"
        )


@_claim
def sched() -> None:
    """QoS under overload: the control-plane scheduler earns its keep.

    One latency-sensitive tenant (phi0, 512 KB random reads, CLASS_RT)
    against three background scan tenants (CLASS_BULK; phi1 twice as
    greedy), with the bulk load well over the SSD's bandwidth.  Under
    FIFO the foreground p99 collapses and the greedy tenant takes a
    larger share; under DRR+priority the foreground p99 stays within
    2x of unloaded and the scans split the rest within ±15% of fair.
    Results are bit-for-bit deterministic for a given seed.
    """
    policies = ("fifo", "drr+priority")
    fair_tolerance = 0.15  # relative deviation from the 1/3 fair share
    unloaded = sched_qos_unloaded("drr+priority")
    results = {pol: sched_qos_overload(pol) for pol in policies}
    budget_us = 2 * unloaded["p99_us"]
    rows = []
    for pol in policies:
        r = results[pol]
        shares = r["bg_shares"]
        rows.append([
            pol,
            round(r["fg_p50_us"], 1),
            round(r["fg_p99_us"], 1),
            round(r["fg_p99_us"] / unloaded["p99_us"], 2),
            " ".join(f"{s * 100:.0f}" for s in shares.values()),
            r["shed"],
            r["rejected"],
        ])
    print(
        render_table(
            "QoS under overload: foreground latency + background shares",
            ["policy", "fg p50 us", "fg p99 us", "x unloaded",
             "bulk share %", "shed", "rejected"],
            rows,
            subtitle=(
                f"unloaded fg p99 = {unloaded['p99_us']:.1f} us; budget = "
                f"2x = {budget_us:.1f} us; fair bulk share = 0.33 +/- 15%"
            ),
            col_width=16,
        )
    )

    drr = results["drr+priority"]
    fifo = results["fifo"]
    fair = 1.0 / len(drr["bg_shares"])

    def max_dev(shares):
        return max(abs(s - fair) / fair for s in shares.values())

    # DRR+priority holds the foreground near its unloaded latency and
    # splits bulk bandwidth fairly.
    assert drr["fg_p99_us"] <= budget_us, (
        f"drr+priority fg p99 {drr['fg_p99_us']:.1f} us over the "
        f"{budget_us:.1f} us budget"
    )
    assert max_dev(drr["bg_shares"]) <= fair_tolerance, (
        f"drr shares {drr['bg_shares']} deviate more than "
        f"{fair_tolerance:.0%} from fair"
    )
    # The FIFO baseline violates both bounds — that is the point.
    assert fifo["fg_p99_us"] > budget_us
    assert max_dev(fifo["bg_shares"]) > fair_tolerance
    # Nothing was silently dropped in either run.
    for r in results.values():
        assert r["shed"] == 0 and r["rejected"] == 0

    # Same seed, same machine: bit-for-bit identical results.
    a = sched_qos_overload("drr+priority", fg_ops=20, window_ms=150)
    b = sched_qos_overload("drr+priority", fg_ops=20, window_ms=150)
    assert a["samples"] == b["samples"]
    assert a["bg_shares"] == b["bg_shares"]


@_claim
def table1() -> None:
    """Table 1: lines-of-code inventory.

    The paper reports the lines modified per module of its Linux-based
    implementation (18,844 added lines in total).  The reproducible
    analog is this package's own per-subsystem inventory, printed in
    the same shape.
    """
    modules = [
        ("Transport service", "transport"),
        ("File system service", "fs"),
        ("Network service", "net"),
        ("Hardware substrate", "hw"),
        ("Simulation kernel", "sim"),
        ("Split-OS core", "core"),
        ("Applications", "apps"),
        ("Bench harness", "bench"),
    ]
    paper_rows = {
        "Transport service": 1035,
        "File system service": 5957 + 2338,
        "Network service": 2921 + 5609,
    }
    rows = []
    for label, subdir in modules:
        rows.append([label, count_loc(subdir), paper_rows.get(label, "-")])
    rows.append(["Total", sum(r[1] for r in rows), 18_844])
    print(
        render_table(
            "Table 1: lines of code per module (ours vs paper's added lines)",
            ["module", "this repo", "paper"],
            rows,
            subtitle="paper modified a Linux kernel; we built the "
            "whole substrate, hence the extra subsystems",
            col_width=22,
        )
    )
    by_label = {r[0]: r[1] for r in rows}
    # Sanity: the three Solros services are substantial codebases here
    # too, and the whole build is in the promised range.
    assert by_label["Transport service"] > 500
    assert by_label["File system service"] > 1500
    assert by_label["Network service"] > 800
    assert by_label["Total"] > 8000
