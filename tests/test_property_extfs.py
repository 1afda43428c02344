"""Property-based tests for the extent file system.

Invariants under arbitrary operation sequences:

* read-back equals the bytes written (a shadow dict is the oracle);
* the allocator never double-allocates a block;
* free + allocated block accounting is conserved across create/unlink;
* remount reproduces the same namespace and contents;
* through the delegated Solros stack (stub -> RPC -> proxy), unaligned
  writes and reads over fragmented files match a ``bytearray`` oracle
  on both the P2P and the buffered data path;
* the bitmap allocator hands out exactly the extents of a block-by-block
  first-fit reference, with the same hint rotation, wrap-around and
  ``NoSpace`` rollback.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SolrosConfig, SolrosSystem
from repro.fs import O_CREAT, O_RDWR, BlockDevice, ExtFS, FileNotFound, NoSpace
from repro.hw import build_machine
from repro.sim import Engine

settings.register_profile("fs", max_examples=20, deadline=None)
settings.load_profile("fs")


def fresh_fs(capacity_blocks=2048):
    eng = Engine()
    m = build_machine(eng)
    dev = BlockDevice(m.nvme, capacity_blocks)
    core = m.host_core(0)

    def setup(eng):
        fs = yield from ExtFS.mkfs(core, dev, "numa0", max_inodes=64)
        return fs

    fs = eng.run_process(setup(eng))
    return eng, m, dev, core, fs


write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),       # file id
        st.integers(min_value=0, max_value=30_000),  # offset
        st.binary(min_size=1, max_size=9_000),       # data
    ),
    min_size=1,
    max_size=15,
)


@given(ops=write_ops)
def test_read_back_equals_writes(ops):
    eng, m, dev, core, fs = fresh_fs()
    shadow = {}

    def main(eng):
        inodes = {}
        for fid, offset, data in ops:
            path = f"/f{fid}"
            if fid not in inodes:
                if not fs.exists(path):
                    inodes[fid] = yield from fs.create(core, path)
                    shadow[fid] = bytearray()
                else:  # pragma: no cover - ids are unique per run
                    inodes[fid] = yield from fs.lookup(core, path)
            yield from fs.write(core, inodes[fid], offset, data=data)
            buf = shadow[fid]
            if len(buf) < offset + len(data):
                buf.extend(b"\x00" * (offset + len(data) - len(buf)))
            buf[offset : offset + len(data)] = data
        # Verify every file in full.
        for fid, inode in inodes.items():
            data = yield from fs.read(core, inode, 0, inode.size)
            assert inode.size == len(shadow[fid])
            assert data == bytes(shadow[fid]), f"file {fid} mismatch"

    eng.run_process(main(eng))


@given(ops=write_ops)
def test_allocator_never_double_allocates(ops):
    eng, m, dev, core, fs = fresh_fs()

    def main(eng):
        inodes = {}
        for fid, offset, data in ops:
            path = f"/f{fid}"
            if fid not in inodes:
                inodes[fid] = yield from fs.create(core, path)
            yield from fs.write(core, inodes[fid], offset, data=data)
        # All files' extents must be disjoint and within the data area.
        seen = set()
        for inode in inodes.values():
            for start, count in inode.extents:
                for b in range(start, start + count):
                    assert b >= fs.sb.data_start
                    assert b not in seen, f"block {b} double-allocated"
                    assert fs._get_bit(b), f"block {b} not marked used"
                    seen.add(b)

    eng.run_process(main(eng))


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=40_000), min_size=1, max_size=8
    )
)
def test_unlink_restores_free_space(sizes):
    eng, m, dev, core, fs = fresh_fs()

    def used_blocks():
        return sum(1 for b in range(fs.sb.total_blocks) if fs._get_bit(b))

    def main(eng):
        baseline = used_blocks()
        for i, size in enumerate(sizes):
            inode = yield from fs.create(core, f"/t{i}")
            yield from fs.write(core, inode, 0, length=size)
        for i in range(len(sizes)):
            yield from fs.unlink(core, f"/t{i}")
        assert used_blocks() == baseline
        for i in range(len(sizes)):
            try:
                yield from fs.lookup(core, f"/t{i}")
                raise AssertionError("unlinked file still resolvable")
            except FileNotFound:
                pass

    eng.run_process(main(eng))


@given(
    files=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.binary(min_size=0, max_size=5_000),
        min_size=1,
        max_size=4,
    )
)
def test_remount_reproduces_state(files):
    eng, m, dev, core, fs = fresh_fs()

    def write_all(eng):
        for name, data in files.items():
            inode = yield from fs.create(core, f"/{name}")
            if data:
                yield from fs.write(core, inode, 0, data=data)
        yield from fs.sync(core)

    eng.run_process(write_all(eng))

    def remount_and_check(eng):
        fs2 = yield from ExtFS.mount(core, dev, "numa0")
        names = yield from fs2.readdir(core, "/")
        assert names == sorted(files)
        for name, data in files.items():
            inode = yield from fs2.lookup(core, f"/{name}")
            back = yield from fs2.read(core, inode, 0, max(1, len(data)))
            assert back == data

    eng.run_process(remount_and_check(eng))


# ----------------------------------------------------------------------
# Delegated Solros stack: the proxy's scatter and gather
# ----------------------------------------------------------------------
N_FILES = 3

solros_ops = st.fixed_dictionaries(
    {
        # Rounds of interleaved appends, one per file per round.  Each
        # append crosses a block boundary, so every round after the
        # first starts a new extent in every file.
        "appends": st.lists(
            st.lists(
                st.integers(min_value=4_097, max_value=14_000),
                min_size=N_FILES,
                max_size=N_FILES,
            ),
            min_size=2,
            max_size=4,
        ),
        "overwrites": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=N_FILES - 1),
                st.integers(min_value=0, max_value=60_000),  # offset
                st.binary(min_size=1, max_size=20_000),
            ),
            max_size=6,
        ),
        "reads": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=N_FILES - 1),
                st.integers(min_value=0, max_value=60_000),  # offset
                st.integers(min_value=1, max_value=30_000),  # count
            ),
            min_size=1,
            max_size=8,
        ),
    }
)


def _pattern(fid, start, size):
    """Bytes that differ per file and per position (no zero runs)."""
    return bytes((fid * 89 + i * 7 + 1) % 251 + 1 for i in range(start, start + size))


@pytest.mark.parametrize("phi_index, p2p", [(0, True), (2, False)])
@given(ops=solros_ops)
def test_solros_stack_matches_bytearray_oracle(phi_index, p2p, ops):
    """phi0 is NUMA-local to the SSD (P2P); phi2 is across QPI (buffered)."""
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=phi_index + 1))
    phi = system.dataplane(phi_index)
    core = phi.core(0)
    oracle = [bytearray() for _ in range(N_FILES)]

    def main(eng):
        fds = []
        for fid in range(N_FILES):
            fd = yield from phi.fs.open(core, f"/s{fid}", O_CREAT | O_RDWR)
            fds.append(fd)
        for sizes in ops["appends"]:
            for fid, size in enumerate(sizes):
                buf = oracle[fid]
                data = _pattern(fid, len(buf), size)
                yield from phi.fs.pwrite(core, fds[fid], len(buf), data)
                buf += data
        for fid, offset, data in ops["overwrites"]:
            buf = oracle[fid]
            yield from phi.fs.pwrite(core, fds[fid], offset, data)
            if len(buf) < offset:
                buf.extend(bytes(offset - len(buf)))
            buf[offset : offset + len(data)] = data
        for fid, offset, count in ops["reads"]:
            got = yield from phi.fs.pread(core, fds[fid], count, offset)
            assert got == bytes(oracle[fid][offset : offset + count])
        for fid in range(N_FILES):
            got = yield from phi.fs.pread(core, fds[fid], len(oracle[fid]), 0)
            assert got == bytes(oracle[fid]), f"file {fid} mismatch"

    eng.run_process(main(eng))
    fs = system.control.fs
    for fid in range(N_FILES):
        assert len(fs._inodes[fs._dircache[fs.sb.root_ino][f"s{fid}"]].extents) >= 2
    stats = system.control.fs_proxy.stats
    if p2p:
        assert stats.p2p_reads and stats.p2p_writes
        assert not (stats.buffered_reads or stats.buffered_writes)
    else:
        assert stats.buffered_reads and stats.buffered_writes
        assert not (stats.p2p_reads or stats.p2p_writes)


# ---------------------------------------------------------------------------
# Bitmap allocator vs a block-by-block reference
# ---------------------------------------------------------------------------
def _reference_alloc(fs, nblocks):
    """First fit, one bit at a time: runs are committed as they close,
    the scan wraps from the end of the disk to the first data block and
    looks at ``total_blocks + 1`` positions; a short grab is rolled back."""
    bitmap, total, data_start = fs._bitmap, fs.sb.total_blocks, fs.sb.data_start

    def get(b):
        return bool(bitmap[b >> 3] & (1 << (b & 7)))

    def put(b, used):
        if used:
            bitmap[b >> 3] |= 1 << (b & 7)
        else:
            bitmap[b >> 3] &= ~(1 << (b & 7))

    result = []
    state = {"remaining": nblocks, "run_start": -1, "run_len": 0}

    def commit():
        if state["run_len"]:
            take = min(state["run_len"], state["remaining"])
            if take:
                start = state["run_start"]
                for b in range(start, start + take):
                    put(b, True)
                result.append((start, take))
                state["remaining"] -= take
        state["run_start"], state["run_len"] = -1, 0

    pos = max(fs._alloc_hint, data_start)
    if pos >= total:
        pos = data_start
    scanned = 0
    while state["remaining"] > 0 and scanned <= total:
        if pos >= total:
            commit()
            pos = data_start
        if not get(pos):
            if state["run_len"] == 0:
                state["run_start"] = pos
            state["run_len"] += 1
            if state["run_len"] >= state["remaining"]:
                commit()
        else:
            commit()
        pos += 1
        scanned += 1
    commit()
    if state["remaining"] > 0:
        for start, count in result:
            for b in range(start, start + count):
                put(b, False)
        if result:
            fs._bitmap_dirty = True
        raise NoSpace(f"cannot allocate {nblocks} blocks")
    fs._bitmap_dirty = True
    if result:
        fs._alloc_hint = result[-1][0] + result[-1][1]
    return result


def _bare_fs(total, data_start, used, hint):
    fs = ExtFS(device=None, node="numa0")
    fs.sb = SimpleNamespace(total_blocks=total, data_start=data_start)
    fs._bitmap = bytearray((total + 7) // 8)
    for b in list(range(data_start)) + [u % total for u in used]:
        fs._bitmap[b >> 3] |= 1 << (b & 7)
    fs._alloc_hint = hint
    return fs


def _snapshot(fs):
    return bytes(fs._bitmap), fs._alloc_hint, fs._bitmap_dirty


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=300),
    data_start=st.integers(min_value=0, max_value=40),
    used=st.lists(st.integers(min_value=0, max_value=299), max_size=120),
    hint=st.integers(min_value=0, max_value=320),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=120)),
        min_size=1, max_size=25,
    ),
)
def test_alloc_matches_block_by_block_reference(total, data_start, used, hint, ops):
    """Random alloc/free sequences over random bitmaps, block counts that
    are not byte multiples, and hints past the end of the disk."""
    data_start = min(data_start, total - 1)
    fs = _bare_fs(total, data_start, used, hint)
    ref = _bare_fs(total, data_start, used, hint)
    held = []
    for alloc, n in ops:
        if alloc or not held:
            outcomes = []
            for target, allocate in ((fs, fs._alloc), (ref, None)):
                try:
                    if allocate is None:
                        got = _reference_alloc(target, n)
                    else:
                        got = allocate(n)
                    outcomes.append(("ok", got))
                except NoSpace:
                    outcomes.append(("nospace", None))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "ok":
                held.append(outcomes[0][1])
        else:
            extents = held.pop(n % len(held))
            fs._free_extents(extents)
            for start, count in extents:
                for b in range(start, start + count):
                    ref._bitmap[b >> 3] &= ~(1 << (b & 7))
            ref._bitmap_dirty = True
        assert _snapshot(fs) == _snapshot(ref)
