"""Figure 18 (reconstructed): control-plane OS scalability (§6.3).

One host control plane serves 1–4 co-processors issuing concurrent
512 KB random reads.  Expected shape: aggregate throughput holds at
the SSD's bandwidth as co-processors are added — the shared proxy and
its global coordination (including cross-NUMA members switching to
buffered mode) do not become the bottleneck.

A second table reruns the 4-Phi point through the control-plane
scheduler (DRR fair queueing), whose metrics expose what the plain
GB/s aggregate hides: each co-processor's throughput share and the
p50/p99 latency of individual delegated reads.
"""

from repro.bench import controlplane_aggregate_read, render_table
from repro.sched import SchedConfig


def run_figure():
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
    return rows, sched_rows


def test_fig18_controlplane_scalability(benchmark):
    rows, sched_rows = benchmark.pedantic(run_figure, rounds=1, iterations=1)
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
