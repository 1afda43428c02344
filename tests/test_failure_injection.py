"""Failure injection: error paths across the stack.

The paper's data-plane OS relies on errors propagating cleanly through
the RPC boundary (the stub has a 1:1 call mapping, so every host-side
errno must surface at the co-processor call site) and on non-blocking
transport semantics (EWOULDBLOCK) under pressure.
"""

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.fs import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    IsADirectory,
    NoSpace,
    O_CREAT,
    O_RDWR,
)
from repro.hw import KB, MB, build_machine
from repro.net import SocketAddr
from repro.net.testbed import NetTestbed
from repro.sim import Engine
from repro.transport import RemoteCallError, RingBuffer, RpcChannel


@pytest.fixture()
def system():
    eng = Engine()
    cfg = SolrosConfig(disk_blocks=4096, max_inodes=32)
    sys_ = SolrosSystem(eng, cfg)
    eng.run_process(sys_.boot(n_phis=1))
    return eng, sys_


def expect_remote(eng, gen, exc_type):
    def main(eng):
        try:
            yield from gen
        except RemoteCallError as error:
            return type(error.cause)
        return None

    return eng.run_process(main(eng)) is exc_type


def test_enoent_crosses_rpc(system):
    eng, sys_ = system
    phi = sys_.dataplane(0)
    assert expect_remote(
        eng, phi.fs.open(phi.core(0), "/missing"), FileNotFound
    )


def test_eexist_crosses_rpc(system):
    eng, sys_ = system
    phi = sys_.dataplane(0)
    core = phi.core(0)

    def setup(eng):
        fd = yield from phi.fs.open(core, "/dup", O_CREAT | O_RDWR)
        yield from phi.fs.close(core, fd)

    eng.run_process(setup(eng))
    assert expect_remote(eng, phi.fs.mkdir(core, "/dup"), FileExists)


def test_enospc_crosses_rpc(system):
    eng, sys_ = system
    phi = sys_.dataplane(0)
    core = phi.core(0)

    def main(eng):
        fd = yield from phi.fs.open(core, "/big", O_CREAT | O_RDWR)
        try:
            # Device is 16 MB; ask for far more.
            yield from phi.fs.pwrite(core, fd, 0, length=64 * MB)
        except RemoteCallError as error:
            return type(error.cause)
        return None

    assert eng.run_process(main(eng)) is NoSpace


def test_stale_fid_rejected(system):
    eng, sys_ = system
    phi = sys_.dataplane(0)
    core = phi.core(0)

    def main(eng):
        fd = yield from phi.fs.open(core, "/x", O_CREAT | O_RDWR)
        handle = phi.fs._files[fd].handle
        yield from phi.fs.close(core, fd)
        # Replay the clunked fid directly at the backend.
        try:
            yield from phi.fs.backend.pread(core, handle, 0, 10)
        except RemoteCallError as error:
            return type(error.cause)
        return None

    assert eng.run_process(main(eng)) is BadFileDescriptor


def test_bad_local_fd_raises_immediately(system):
    eng, sys_ = system
    phi = sys_.dataplane(0)

    def main(eng):
        yield from phi.fs.pread(phi.core(0), 9999, 10, 0)

    with pytest.raises(BadFileDescriptor):
        eng.run_process(main(eng))


def test_rpc_handler_crash_does_not_kill_server_loop():
    """A handler exception is shipped to one caller; the next call on
    the same channel still succeeds."""
    eng = Engine()
    m = build_machine(eng)
    ch = RpcChannel(eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host)
    calls = {"n": 0}

    def handler(core, method, payload, ctx):
        calls["n"] += 1
        yield 0
        if calls["n"] == 1:
            raise RuntimeError("first call explodes")
        return "recovered"

    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(0)], handler)

    def client(eng):
        core = m.phi_core(0, 0)
        try:
            yield from ch.call(core, "x", None)
        except RemoteCallError:
            pass
        result = yield from ch.call(core, "x", None)
        ch.stop()
        return result

    assert eng.run_process(client(eng)) == "recovered"


def test_ring_pressure_returns_would_block_not_corruption():
    """Hammer a tiny ring: every rejected enqueue must leave the ring
    consistent (all accepted elements still flow through exactly once)."""
    eng = Engine()
    m = build_machine(eng)
    phi = m.phi(0)
    rb = RingBuffer(
        eng, m.fabric, 2 * KB,
        master_cpu=phi, sender_cpu=phi, receiver_cpu=m.host,
    )
    sent, got = [], []

    def producer(eng):
        core = phi.core(0)
        for i in range(50):
            slot = yield from rb.try_enqueue(core, 300)
            if slot is None:
                yield 20_000  # back off and retry once
                slot = yield from rb.try_enqueue(core, 300)
            if slot is None:
                continue
            yield from rb.copy_to(core, slot, i)
            yield from rb.set_ready(core, slot)
            sent.append(i)

    def consumer(eng):
        core = m.host_core(0)
        while len(got) < len(sent) or not producer_done[0]:
            slot = yield from rb.try_dequeue(core)
            if slot is None:
                if producer_done[0] and len(got) >= len(sent):
                    return
                yield 10_000
                continue
            got.append((yield from rb.copy_from(core, slot)))
            yield from rb.set_done(core, slot)

    producer_done = [False]

    def orchestrate(eng):
        p = eng.spawn(producer(eng))
        c = eng.spawn(consumer(eng))
        yield p
        producer_done[0] = True
        yield c

    eng.run_process(orchestrate(eng))
    assert got == sent
    assert rb.stats.would_blocks > 0  # pressure actually happened


def test_connection_reset_surfaces_as_eof_then_broken_pipe():
    eng = Engine()
    m = build_machine(eng)
    tb = NetTestbed(eng, m)
    tb.host.listen(99)
    outcome = {}

    def server(eng):
        core = m.host_core(0)
        conn = yield from tb.host._listeners[99].accept(core)
        yield from conn.close(core)  # immediate reset-ish close

    def client(eng):
        core = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(core, SocketAddr("host", 99))
        payload, n = yield from conn.recv(core)
        outcome["eof"] = (payload, n)
        try:
            yield from conn.send(core, b"x", 1)
        except BrokenPipeError:
            outcome["pipe"] = True

    eng.spawn(server(eng))
    proc = eng.spawn(client(eng))
    eng.run()
    assert proc.ok
    assert outcome["eof"] == (None, 0)
    assert outcome.get("pipe") is True


def test_read_from_directory_rejected_over_rpc(system):
    eng, sys_ = system
    phi = sys_.dataplane(0)
    core = phi.core(0)

    def main(eng):
        yield from phi.fs.mkdir(core, "/d")
        fd = yield from phi.fs.open(core, "/d")
        try:
            yield from phi.fs.pread(core, fd, 10, 0)
        except RemoteCallError as error:
            return type(error.cause)
        return None

    assert eng.run_process(main(eng)) is IsADirectory
