"""Unit tests for the extent file system."""

import pytest

from repro.fs import (
    BlockDevice,
    ExtFS,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NotADirectory,
)
from repro.hw import KB, MB, build_machine
from repro.sim import Engine, SimError


@pytest.fixture()
def env():
    eng = Engine()
    m = build_machine(eng)
    dev = BlockDevice(m.nvme, capacity_blocks=4096)
    core = m.host_core(0)

    def setup(eng):
        fs = yield from ExtFS.mkfs(core, dev, "numa0", max_inodes=128)
        return fs

    fs = eng.run_process(setup(eng))
    return eng, m, dev, core, fs


def run(eng, gen):
    return eng.run_process(gen)


@pytest.mark.parametrize("extent, bad", [
    ((8, 1), 8),      # first block past the end
    ((-1, 2), -1),    # first block below zero
    ((6, 3), 8),      # first in range, last past the end
])
def test_extent_range_error_names_first_bad_block(extent, bad):
    dev = BlockDevice(build_machine(Engine()).nvme, capacity_blocks=8)
    message = rf"^block {bad} out of range \(0\.\.7\)$"
    with pytest.raises(SimError, match=message):
        dev.gather([extent], 0, 1)
    with pytest.raises(SimError, match=message):
        dev.scatter([extent], 0, b"x")


def test_extent_ending_at_last_block_is_in_range():
    dev = BlockDevice(build_machine(Engine()).nvme, capacity_blocks=8)
    dev.scatter([(5, 3)], 0, b"z" * (3 * 4096))
    assert dev.gather([(5, 3)], 0, 3 * 4096) == b"z" * (3 * 4096)
    assert dev.read_block_data(7) == b"z" * 4096


def test_mkfs_creates_root(env):
    eng, m, dev, core, fs = env
    assert run(eng, fs.readdir(core, "/")) == []
    st = run(eng, fs.stat(core, "/"))
    assert st["kind"] == "d"


def test_create_write_read_roundtrip(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/hello.txt")
        yield from fs.write(core, inode, 0, data=b"hello, solros!")
        data = yield from fs.read(core, inode, 0, 100)
        return data

    assert run(eng, main(eng)) == b"hello, solros!"


def test_overwrite_is_in_place(env):
    """In-place update: block addresses never change on overwrite —
    the property the P2P fiemap path requires (§5)."""
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/f")
        yield from fs.write(core, inode, 0, data=b"A" * 8192)
        before = [tuple(e) for e in inode.extents]
        yield from fs.write(core, inode, 0, data=b"B" * 8192)
        after = [tuple(e) for e in inode.extents]
        data = yield from fs.read(core, inode, 0, 8192)
        return before, after, data

    before, after, data = run(eng, main(eng))
    assert before == after
    assert data == b"B" * 8192


def test_partial_block_write_rmw(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/f")
        yield from fs.write(core, inode, 0, data=b"x" * 5000)
        yield from fs.write(core, inode, 100, data=b"YY")
        data = yield from fs.read(core, inode, 0, 5000)
        return data

    data = run(eng, main(eng))
    assert data[:100] == b"x" * 100
    assert data[100:102] == b"YY"
    assert data[102:] == b"x" * 4898
    assert len(data) == 5000


def test_read_past_eof_is_short(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/f")
        yield from fs.write(core, inode, 0, data=b"abc")
        full = yield from fs.read(core, inode, 0, 1000)
        beyond = yield from fs.read(core, inode, 10, 10)
        return full, beyond

    full, beyond = run(eng, main(eng))
    assert full == b"abc"
    assert beyond == b""


def test_directories_and_nested_paths(env):
    eng, m, dev, core, fs = env

    def main(eng):
        yield from fs.mkdir(core, "/a")
        yield from fs.mkdir(core, "/a/b")
        yield from fs.create(core, "/a/b/file")
        names_root = yield from fs.readdir(core, "/")
        names_ab = yield from fs.readdir(core, "/a/b")
        st = yield from fs.stat(core, "/a/b/file")
        return names_root, names_ab, st

    names_root, names_ab, st = run(eng, main(eng))
    assert names_root == ["a"]
    assert names_ab == ["file"]
    assert st["kind"] == "f"


def test_lookup_errors(env):
    eng, m, dev, core, fs = env
    with pytest.raises(FileNotFound):
        run(eng, fs.lookup(core, "/nope"))
    run(eng, fs.create(core, "/plain"))
    with pytest.raises(NotADirectory):
        run(eng, fs.lookup(core, "/plain/sub"))
    with pytest.raises(FileExists):
        run(eng, fs.create(core, "/plain"))
    with pytest.raises(InvalidArgument):
        run(eng, fs.lookup(core, "relative/path"))


def test_unlink_frees_blocks(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/big")
        yield from fs.write(core, inode, 0, length=256 * KB)
        used_before = sum(1 for b in range(4096) if fs._get_bit(b))
        yield from fs.unlink(core, "/big")
        used_after = sum(1 for b in range(4096) if fs._get_bit(b))
        return used_before, used_after

    used_before, used_after = run(eng, main(eng))
    assert used_before - used_after == 64  # 256 KB = 64 blocks


def test_unlink_nonempty_dir_rejected(env):
    eng, m, dev, core, fs = env

    def main(eng):
        yield from fs.mkdir(core, "/d")
        yield from fs.create(core, "/d/f")

    run(eng, main(eng))
    with pytest.raises(InvalidArgument):
        run(eng, fs.unlink(core, "/d"))


def test_enospc(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/huge")
        # Device is 16 MB; ask for 64 MB.
        yield from fs.write(core, inode, 0, length=64 * MB)

    with pytest.raises(NoSpace):
        run(eng, main(eng))


def test_is_a_directory_guard(env):
    eng, m, dev, core, fs = env

    def main(eng):
        yield from fs.mkdir(core, "/d")
        inode = yield from fs.lookup(core, "/d")
        yield from fs.read(core, inode, 0, 10)

    with pytest.raises(IsADirectory):
        run(eng, main(eng))


def test_fiemap_matches_extents(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/f")
        yield from fs.write(core, inode, 0, length=64 * KB)
        extents = yield from fs.fiemap(core, inode, 8192, 16384)
        return inode.extents, extents

    all_extents, window = run(eng, main(eng))
    assert sum(c for _s, c in window) == 4  # 16 KB = 4 blocks
    # Window blocks are inside the file's allocation.
    allocated = set()
    for start, count in all_extents:
        allocated.update(range(start, start + count))
    for start, count in window:
        assert set(range(start, start + count)) <= allocated


def test_remount_recovers_everything(env):
    """Metadata really lives in device blocks: re-mount from scratch."""
    eng, m, dev, core, fs = env

    def setup(eng):
        yield from fs.mkdir(core, "/docs")
        inode = yield from fs.create(core, "/docs/a.txt")
        yield from fs.write(core, inode, 0, data=b"persistent data")
        yield from fs.sync(core)

    run(eng, setup(eng))

    def remount(eng):
        fs2 = yield from ExtFS.mount(core, dev, "numa0")
        names = yield from fs2.readdir(core, "/docs")
        inode = yield from fs2.lookup(core, "/docs/a.txt")
        data = yield from fs2.read(core, inode, 0, 100)
        return names, data

    names, data = run(eng, remount(eng))
    assert names == ["a.txt"]
    assert data == b"persistent data"


def test_remount_reads_shrunken_directory(env):
    """A directory keeps its blocks when it shrinks; a remount must read
    only its first ``size`` bytes, not the stale tail block."""
    eng, m, dev, core, fs = env
    names = [f"{i:03d}-" + "x" * 60 for i in range(80)]

    def setup(eng):
        for name in names:
            yield from fs.create(core, f"/{name}")
        for name in names[1:]:
            yield from fs.unlink(core, f"/{name}")
        yield from fs.sync(core)

    run(eng, setup(eng))
    root = fs._inodes[fs.sb.root_ino]
    assert root.allocated_blocks > 1 and root.size < fs.sb.block_size

    def remount(eng):
        fs2 = yield from ExtFS.mount(core, dev, "numa0")
        return (yield from fs2.readdir(core, "/"))

    assert run(eng, remount(eng)) == names[:1]


def test_synthetic_writes_do_not_materialize(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/bench")
        yield from fs.write(core, inode, 0, length=4 * MB)
        data = yield from fs.read(core, inode, 0, 4096)
        return data

    data = run(eng, main(eng))
    assert data == bytes(4096)
    assert dev.materialized_blocks() < 16  # only metadata blocks


def test_preallocate_builds_benchmark_file(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.preallocate(core, "/bench", 8 * MB)
        return inode.size, inode.allocated_blocks

    size, blocks = run(eng, main(eng))
    assert size == 8 * MB
    assert blocks == 2048


def test_truncate_to_zero(env):
    eng, m, dev, core, fs = env

    def main(eng):
        inode = yield from fs.create(core, "/f")
        yield from fs.write(core, inode, 0, data=b"x" * 10000)
        yield from fs.truncate(core, "/f")
        st = yield from fs.stat(core, "/f")
        return st

    st = run(eng, main(eng))
    assert st["size"] == 0
    assert st["blocks"] == 0
