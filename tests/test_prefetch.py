"""Tests for the cross-co-processor prefetcher (the §4 extension)."""

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.hw import KB, MB
from repro.sim import Engine


def boot(prefetch=True):
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=32 * 1024,
        max_inodes=32,
        enable_prefetch=prefetch,
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=4))
    return eng, system


def read_chunk(system, phi_index, path, offset, nbytes):
    phi = system.dataplane(phi_index)
    core = phi.core(0)

    def app(eng):
        fd = yield from phi.fs.open(core, path)
        data = yield from phi.fs.pread(core, fd, nbytes, offset)
        yield from phi.fs.close(core, fd)
        return len(data)

    return system.engine.run_process(app(system.engine))


@pytest.fixture()
def hot_file():
    eng, system = boot()
    host_core = system.machine.host_core(0)
    eng.run_process(
        system.control.fs.preallocate(host_core, "/hot.dat", 16 * MB)
    )
    return eng, system


def test_prefetch_triggers_on_cross_plane_heat(hot_file):
    eng, system = hot_file
    pf = system.control.prefetcher
    assert pf is not None
    # Two planes, two reads each: crosses both thresholds (4 accesses,
    # 2 planes).
    for phi_index in (0, 1):
        for k in (0, 1):
            read_chunk(system, phi_index, "/hot.dat", k * 64 * KB, 64 * KB)
    eng.run()  # let the background prefetch finish
    assert pf.stats.prefetches == 1
    assert pf.stats.bytes_prefetched >= 15 * MB
    assert pf.is_hot(1)  # first created file after root


def test_no_prefetch_from_single_plane(hot_file):
    eng, system = hot_file
    pf = system.control.prefetcher
    for k in range(6):
        read_chunk(system, 0, "/hot.dat", k * 64 * KB, 64 * KB)
    eng.run()
    assert pf.stats.prefetches == 0


def test_prefetch_warms_later_readers(hot_file):
    eng, system = hot_file
    cache = system.control.cache
    for phi_index in (0, 1):
        for k in (0, 1):
            read_chunk(system, phi_index, "/hot.dat", k * 64 * KB, 64 * KB)
    eng.run()
    hits_before = cache.stats.hits
    # A third co-processor now reads the whole file: served from cache.
    n = read_chunk(system, 3, "/hot.dat", 0, 16 * MB)
    assert n == 16 * MB
    assert cache.stats.hits > hits_before
    assert "cache-hit" in system.control.policy.decisions


def test_oversized_files_skipped():
    eng, system = boot()
    pf = system.control.prefetcher
    pf.max_file_bytes = 1 * MB
    host_core = system.machine.host_core(0)
    eng.run_process(
        system.control.fs.preallocate(host_core, "/huge.dat", 8 * MB)
    )
    for phi_index in (0, 1):
        for k in (0, 1):
            read_chunk(system, phi_index, "/huge.dat", k * 64 * KB, 64 * KB)
    eng.run()
    assert pf.stats.prefetches == 0
    assert pf.stats.skipped_too_large == 1


def test_prefetch_disabled_by_default():
    eng, system = boot(prefetch=False)
    assert system.control.prefetcher is None
    assert system.control.fs_proxy.prefetcher is None
