"""Unit tests for the VFS layer, 9P messages, and the data-path policy."""

import pytest

from repro.core import BUFFERED, P2P, DataPathPolicy
from repro.fs import (
    BadFileDescriptor,
    BlockDevice,
    ExtFS,
    InvalidArgument,
    LocalFsBackend,
    O_CREAT,
    O_RDWR,
    O_TRUNC,
    Vfs,
)
from repro.fs.ninep import (
    Tclunk,
    Tfsync,
    Tmkdir,
    Topen,
    Tread,
    Treaddir,
    Tremove,
    Tstat,
    Twrite,
    wire_bytes,
)
from repro.hw import build_machine
from repro.sim import Engine


@pytest.fixture()
def vfs_env():
    eng = Engine()
    m = build_machine(eng)
    dev = BlockDevice(m.nvme, 4096)
    core = m.host_core(0)

    def setup(eng):
        fs = yield from ExtFS.mkfs(core, dev, "numa0", max_inodes=64)
        return fs

    fs = eng.run_process(setup(eng))
    return eng, m, core, Vfs(LocalFsBackend(fs))


def run(eng, gen):
    return eng.run_process(gen)


# ----------------------------------------------------------------------
# VFS semantics
# ----------------------------------------------------------------------
def test_sequential_read_write_offsets(vfs_env):
    eng, m, core, vfs = vfs_env

    def main(eng):
        fd = yield from vfs.open(core, "/seq", O_CREAT | O_RDWR)
        yield from vfs.write(core, fd, data=b"aaaa")
        yield from vfs.write(core, fd, data=b"bbbb")  # appends at pos
        vfs.seek(fd, 0)
        first = yield from vfs.read(core, fd, 4)
        second = yield from vfs.read(core, fd, 4)
        third = yield from vfs.read(core, fd, 4)  # EOF
        return first, second, third

    assert run(eng, main(eng)) == (b"aaaa", b"bbbb", b"")


def test_o_trunc_resets_file(vfs_env):
    eng, m, core, vfs = vfs_env

    def main(eng):
        fd = yield from vfs.open(core, "/t", O_CREAT | O_RDWR)
        yield from vfs.write(core, fd, data=b"old content")
        yield from vfs.close(core, fd)
        fd = yield from vfs.open(core, "/t", O_RDWR | O_TRUNC)
        st = yield from vfs.stat(core, "/t")
        yield from vfs.close(core, fd)
        return st["size"]

    assert run(eng, main(eng)) == 0


def test_closed_fd_rejected(vfs_env):
    eng, m, core, vfs = vfs_env

    def main(eng):
        fd = yield from vfs.open(core, "/x", O_CREAT | O_RDWR)
        yield from vfs.close(core, fd)
        yield from vfs.pread(core, fd, 10, 0)

    with pytest.raises(BadFileDescriptor):
        run(eng, main(eng))


def test_negative_args_rejected(vfs_env):
    eng, m, core, vfs = vfs_env

    def bad_read(eng):
        fd = yield from vfs.open(core, "/y", O_CREAT | O_RDWR)
        yield from vfs.pread(core, fd, -1, 0)

    with pytest.raises(InvalidArgument):
        run(eng, bad_read(eng))
    with pytest.raises(InvalidArgument):
        vfs.seek(3, -5)


def test_fd_numbers_are_distinct(vfs_env):
    eng, m, core, vfs = vfs_env

    def main(eng):
        fds = []
        for i in range(5):
            fd = yield from vfs.open(core, f"/f{i}", O_CREAT | O_RDWR)
            fds.append(fd)
        return fds

    fds = run(eng, main(eng))
    assert len(set(fds)) == 5
    assert min(fds) >= 3


def test_syscall_overhead_charged(vfs_env):
    eng, m, core, vfs = vfs_env

    def main(eng):
        t0 = eng.now
        yield from vfs.stat(core, "/")
        return eng.now - t0

    elapsed = run(eng, main(eng))
    assert elapsed >= core.params.syscall_ns


# ----------------------------------------------------------------------
# 9P message accounting
# ----------------------------------------------------------------------
def test_wire_bytes_scale_with_path_length():
    short = wire_bytes(Topen("/a", 0))
    long = wire_bytes(Topen("/a/very/long/path/name", 0))
    assert long > short


def test_twrite_data_not_counted_on_wire():
    """Zero-copy: payload moves by DMA, not on the RPC ring."""
    small = Twrite(fid=1, offset=0, count=10, source_node="phi0", data=b"x" * 10)
    huge = Twrite(
        fid=1, offset=0, count=1 << 20, source_node="phi0", data=b"x" * (1 << 20)
    )
    assert wire_bytes(small) == wire_bytes(huge)
    assert wire_bytes(huge) < 200


@pytest.mark.parametrize("msg,size", [
    (Topen("/ab", 2), 37),
    (Tclunk(3), 32),
    (Tread(1, 2, 3, "phi2", 4), 62),
    (Tread(1, 2, 3, "phi2"), 62),
    (Twrite(1, 2, 3, "phi2", 4, b"xyz"), 62),
    (Twrite(1, 2, 3, "phi2", 4), 70),
    (Tremove("/ab"), 29),
    (Tstat("/a/b/c"), 32),
    (Tmkdir("/d"), 28),
    (Treaddir("/"), 27),
    (Tfsync(7), 32),
], ids=lambda v: type(v).__name__ if not isinstance(v, int) else str(v))
def test_wire_bytes_pinned_per_message(msg, size):
    """Every 9P message's on-ring size: a 24-byte header, 2 + len for
    each str field, 8 for every other field (None included), nothing
    for bytes (moved by DMA)."""
    assert wire_bytes(msg) == size


def test_tread_carries_target_address():
    msg = Tread(fid=2, offset=4096, count=65536, target_node="phi3", buffer_id=9)
    assert msg.target_node == "phi3"
    assert wire_bytes(msg) < 200


# ----------------------------------------------------------------------
# Data-path policy unit behaviour
# ----------------------------------------------------------------------
def make_policy(**kw):
    eng = Engine()
    m = build_machine(eng)
    return DataPathPolicy(m.fabric, disk_node="nvme0", **kw)


def test_policy_prefers_p2p_same_numa():
    policy = make_policy()
    assert policy.choose("phi0").mode == P2P


def test_policy_buffered_across_numa():
    policy = make_policy()
    decision = policy.choose("phi2")
    assert decision.mode == BUFFERED
    assert decision.reason == "cross-numa"


def test_policy_o_buffer_wins_over_p2p():
    policy = make_policy()
    assert policy.choose("phi0", o_buffer=True).reason == "O_BUFFER"


def test_policy_cache_hit_threshold():
    policy = make_policy(cache_hit_threshold=0.5)
    assert policy.choose("phi0", cache_hit_fraction=0.4).mode == P2P
    assert policy.choose("phi0", cache_hit_fraction=0.6).mode == BUFFERED


def test_policy_no_p2p_support_disk():
    policy = make_policy(disk_supports_p2p=False)
    assert policy.choose("phi0").reason == "no-p2p-support"


def test_policy_force_mode_overrides_everything():
    policy = make_policy(force_mode=P2P)
    assert policy.choose("phi2", o_buffer=True).mode == P2P
    with pytest.raises(ValueError):
        make_policy(force_mode="teleport")


def test_policy_records_decision_histogram():
    policy = make_policy()
    policy.choose("phi0")
    policy.choose("phi0")
    policy.choose("phi2")
    assert policy.decisions == {"p2p": 2, "cross-numa": 1}


def test_policy_returns_one_shared_decision_per_reason():
    """``choose`` hands out one constant per reason and still counts
    every call."""
    calls = [
        (dict(), ("phi0",), {}, "p2p"),
        (dict(), ("phi2",), {}, "cross-numa"),
        (dict(), ("phi0",), dict(o_buffer=True), "O_BUFFER"),
        (dict(), ("phi0",), dict(cache_hit_fraction=0.9), "cache-hit"),
        (dict(disk_supports_p2p=False), ("phi0",), {}, "no-p2p-support"),
        (dict(force_mode=P2P), ("phi2",), {}, "forced-p2p"),
        (dict(force_mode=BUFFERED), ("phi0",), {}, "forced-buffered"),
    ]
    seen = {}
    for make_kw, args, kw, reason in calls:
        policy = make_policy(**make_kw)
        first = policy.choose(*args, **kw)
        again = policy.choose(*args, **kw)
        assert first.reason == reason
        assert again is first
        assert seen.setdefault(reason, first) is first  # across policies
        assert policy.decisions == {reason: 2}
    assert len({id(d) for d in seen.values()}) == 7
