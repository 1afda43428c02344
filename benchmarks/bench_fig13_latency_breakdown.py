"""Figure 13: I/O latency breakdown — Solros vs stock Xeon Phi.

(a) 512 KB random reads (fio-style): components [file system,
    block/transport, storage].  Paper: Phi-virtio is dominated by the
    CPU relay copy and its Phi-resident file system; Phi-Solros is
    storage-dominated.  Headline quotes: the zero-copy NVMe DMA path
    replaces the virtio relay copy (quoted as 171× faster), and the
    thin stub spends ~5× less Phi time than the full file system.

(b) 64-byte TCP echo: server network-stack time vs proxy/transport.
    Paper: Phi-Linux is stack-dominated; Solros moves the stack to the
    host, leaving transport as the main term.
"""

from repro.bench.figures import fs_latency_breakdown, net_latency_breakdown
from repro.bench import render_table


def run_figure():
    fs = {
        "Phi-virtio": fs_latency_breakdown("virtio"),
        "Phi-Solros": fs_latency_breakdown("solros"),
    }
    net = {
        "Phi-Linux": net_latency_breakdown("phi-linux"),
        "Phi-Solros": net_latency_breakdown("solros"),
    }
    return fs, net


def test_fig13_latency_breakdown(benchmark):
    fs, net = benchmark.pedantic(run_figure, rounds=1, iterations=1)
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
