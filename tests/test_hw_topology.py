"""Unit tests for the PCIe/NUMA fabric and machine assembly."""

from dataclasses import replace

import pytest

from repro.hw import MB, Machine, build_machine, default_params
from repro.sim import Engine, SimError


@pytest.fixture()
def machine():
    eng = Engine()
    return build_machine(eng)


def test_machine_layout_matches_testbed(machine):
    assert len(machine.phis) == 4
    assert machine.phi_numa(0) == 0
    assert machine.phi_numa(1) == 0
    assert machine.phi_numa(2) == 1
    assert machine.phi_numa(3) == 1
    assert machine.fabric.node("nvme0").numa == 0
    assert machine.fabric.node("nic0").numa == 0
    assert len(machine.host_sockets) == 2
    assert "4 Xeon Phi" in machine.describe()


def test_crosses_numa(machine):
    fab = machine.fabric
    assert not fab.crosses_numa("nvme0", "phi0")
    assert fab.crosses_numa("nvme0", "phi2")
    assert fab.crosses_numa("numa0", "numa1")
    assert not fab.crosses_numa("numa0", "phi1")


def test_p2p_detection(machine):
    fab = machine.fabric
    assert fab.is_p2p("nvme0", "phi0")
    assert fab.is_p2p("phi3", "nvme0")
    assert not fab.is_p2p("numa0", "phi0")
    assert not fab.is_p2p("numa0", "numa1")


def test_path_links_same_numa_p2p(machine):
    links = machine.fabric.path_links("nvme0", "phi0")
    names = [link.name for link in links]
    assert names == ["nvme0.up", "phi0.down"]


def test_path_links_cross_numa_p2p_includes_relay(machine):
    links = machine.fabric.path_links("nvme0", "phi2")
    names = [link.name for link in links]
    assert "relay01" in names
    assert "qpi01" in names


def test_cross_numa_host_path_has_no_relay(machine):
    links = machine.fabric.path_links("numa1", "phi0")
    names = [link.name for link in links]
    assert "relay10" not in names
    assert "qpi10" in names


def test_effective_bandwidth_cross_numa_p2p_capped(machine):
    fab = machine.fabric
    bw_same = fab.effective_bandwidth("nvme0", "phi0")
    bw_cross = fab.effective_bandwidth("nvme0", "phi2")
    assert bw_same == pytest.approx(6.0)
    # Figure 1(a): capped at ~300 MB/s.
    assert bw_cross == pytest.approx(0.3)


def test_dma_copy_large_transfer_rate():
    eng = Engine()
    m = build_machine(eng)
    core = m.host_core(0)

    def main(eng):
        start = eng.now
        yield from m.fabric.dma_copy(core, "numa0", "phi0", 8 * MB)
        return eng.now - start

    elapsed = eng.run_process(main(eng))
    # ~ 8MB / 6.0 GB/s plus setup + latency: within 15%.
    expected = 8 * MB / 6.0
    assert elapsed == pytest.approx(expected, rel=0.15)


def test_phi_initiated_dma_slower_by_initiator_asymmetry():
    def timed_dma(core_getter):
        eng = Engine()
        m = build_machine(eng)
        core = core_getter(m)

        def main(eng):
            start = eng.now
            yield from m.fabric.dma_copy(core, "numa0", "phi0", 8 * MB)
            return eng.now - start

        return eng.run_process(main(eng))

    t_host = timed_dma(lambda m: m.host_core(0))
    t_phi = timed_dma(lambda m: m.phi_core(0))
    assert t_phi / t_host == pytest.approx(2.3, rel=0.1)


def test_loadstore_copy_per_cacheline_cost():
    eng = Engine()
    m = build_machine(eng)
    core = m.host_core(0)

    def main(eng):
        yield m.fabric.loadstore_copy(core, 256)
        return eng.now

    # 256 bytes -> 4 transactions.
    assert eng.run_process(main(eng)) == 4 * core.params.pcie_tx_ns


def test_remote_tx_cost_by_initiator():
    eng = Engine()
    m = build_machine(eng)

    def main(eng):
        t0 = eng.now
        yield m.fabric.remote_tx(m.host_core(0), 2)
        host_t = eng.now - t0
        t1 = eng.now
        yield m.fabric.remote_tx(m.phi_core(0), 2)
        phi_t = eng.now - t1
        return host_t, phi_t

    host_t, phi_t = eng.run_process(main(eng))
    assert host_t == 2 * m.params.host.pcie_tx_ns
    assert phi_t == 2 * m.params.phi.pcie_tx_ns


def test_concurrent_transfers_share_link():
    eng = Engine()
    m = build_machine(eng)
    done = []

    def flow(eng):
        yield from m.fabric.transfer("numa0", "phi0", 6 * MB)
        done.append(eng.now)

    eng.spawn(flow(eng))
    eng.spawn(flow(eng))
    eng.run()
    # Two 6MB flows over one 6 GB/s link: aggregate ~2MB/ms, so the
    # second finishes around 2ms, not 1ms.
    assert done[-1] >= 1.8 * MB / 6.0 * 2


def test_unknown_node_raises(machine):
    with pytest.raises(SimError):
        machine.fabric.node("gpu7")


def test_duplicate_attach_raises(machine):
    with pytest.raises(SimError):
        machine.fabric.attach("phi0", 0, "phi")


def test_single_socket_machine():
    eng = Engine()
    params = replace(default_params(), host_sockets=1, n_phis=2)
    m = Machine(eng, params)
    assert len(m.host_sockets) == 1
    assert m.phi_numa(0) == 0 and m.phi_numa(1) == 0
