"""Unit tests for the NIC model and parameter plumbing."""

from dataclasses import replace

import pytest

from repro.hw import (
    CPU,
    HOST_CPU,
    KB,
    MB,
    PHI_CPU,
    Machine,
    build_machine,
    default_params,
)
from repro.sim import Engine, SimError


def test_nic_packet_count_mtu():
    eng = Engine()
    m = build_machine(eng)
    assert m.nic.packet_count(0) == 1
    assert m.nic.packet_count(1500) == 1
    assert m.nic.packet_count(1501) == 2
    assert m.nic.packet_count(15000) == 10
    with pytest.raises(SimError):
        m.nic.packet_count(-1)


def test_nic_wire_bandwidth():
    eng = Engine()
    m = build_machine(eng)

    def main(eng):
        t0 = eng.now
        yield from m.nic.transmit(10 * MB)
        return eng.now - t0

    elapsed = eng.run_process(main(eng))
    gbps = 10 * MB / elapsed
    # 100 GbE = 12.5 GB/s; per-packet overhead shaves some off.
    assert 5.0 < gbps < 12.6


def test_nic_dma_moves_through_fabric():
    eng = Engine()
    m = build_machine(eng)

    def main(eng):
        t0 = eng.now
        yield from m.nic.dma_to("phi0", 1 * MB)
        return eng.now - t0

    elapsed = eng.run_process(main(eng))
    # Bounded by the phi downlink (6 GB/s) plus latency.
    assert elapsed >= 1 * MB / 6.5


def test_cpu_params_asymmetry_invariants():
    """The calibration must preserve the paper's qualitative claims."""
    assert PHI_CPU.branchy_mult > 4 * HOST_CPU.branchy_mult
    assert PHI_CPU.simd_mult < 2 * HOST_CPU.simd_mult
    assert PHI_CPU.pcie_tx_ns > HOST_CPU.pcie_tx_ns
    assert PHI_CPU.dma_setup_ns > HOST_CPU.dma_setup_ns
    assert PHI_CPU.dma_rate_scale < HOST_CPU.dma_rate_scale
    assert PHI_CPU.adaptive_copy_threshold == 16 * KB
    assert HOST_CPU.adaptive_copy_threshold == 1 * KB
    assert PHI_CPU.cores == 61
    assert HOST_CPU.cores == 24


def test_hwparams_override_round_trip():
    params = replace(default_params(), n_phis=2)
    assert params.n_phis == 2
    assert default_params().n_phis == 4  # original untouched


def test_machine_rejects_bad_sockets():
    eng = Engine()
    with pytest.raises(SimError):
        Machine(eng, replace(default_params(), host_sockets=3))


def test_core_compute_kinds():
    eng = Engine()
    m = build_machine(eng)
    phi_core = m.phi_core(0, 0)

    def main(eng):
        t0 = eng.now
        yield phi_core.compute(100, "branchy")
        branchy = eng.now - t0
        t1 = eng.now
        yield phi_core.compute(100, "simd")
        simd = eng.now - t1
        return branchy, simd

    branchy, simd = eng.run_process(main(eng))
    assert branchy == int(100 * PHI_CPU.branchy_mult)
    assert simd == int(100 * PHI_CPU.simd_mult)


def test_core_compute_rejects_bad_args():
    eng = Engine()
    m = build_machine(eng)
    core = m.host_core(0)

    def bad_kind(eng):
        yield core.compute(10, "quantum")

    with pytest.raises(SimError):
        eng.run_process(bad_kind(eng))

    def negative(eng):
        yield core.compute(-1)

    with pytest.raises(SimError):
        eng.run_process(negative(eng))


def test_cpu_rejects_negative_work_multiplier():
    """``Core.compute`` relies on non-negative multipliers, so a CPU
    refuses a negative one when it is built."""
    eng = Engine()
    with pytest.raises(ValueError, match="branchy_mult"):
        CPU(eng, replace(PHI_CPU, branchy_mult=-1.0), "bad")


def test_irq_line_serializes_interrupts():
    eng = Engine()
    m = build_machine(eng)
    done = []

    def irq(eng):
        yield from m.host.handle_interrupt()
        done.append(eng.now)

    for _ in range(4):
        eng.spawn(irq(eng))
    eng.run()
    # 4 interrupts, one IRQ line: strictly serialized.
    assert done == [
        HOST_CPU.interrupt_ns * (i + 1) for i in range(4)
    ]
