"""Unit tests for the simplified TCP stack."""

import gc

from repro.apps import KvClient, KvShard
from repro.core import SolrosConfig, SolrosSystem
from repro.hw import build_machine
from repro.net import LoopbackWire, Network, SocketAddr, TcpHost
from repro.net.tcp import Connection
from repro.net.testbed import NetTestbed
from repro.sim import Engine


def make_pair(eng=None):
    eng = eng or Engine()
    m = build_machine(eng)
    net = Network(eng)
    a = TcpHost(net, "a", m.host, jitter=False)
    b = TcpHost(net, "b", m.host_sockets[1], jitter=False)
    net.link("a", "b", LoopbackWire())
    return eng, m, net, a, b


def test_connect_and_echo():
    eng, m, net, a, b = make_pair()
    b.listen(80)
    log = []

    def server(eng):
        listener = b._listeners[80]
        conn = yield from listener.accept(m.host_core(0, socket=1))
        payload, n = yield from conn.recv(m.host_core(0, socket=1))
        yield from conn.send(m.host_core(0, socket=1), payload.upper(), n)

    def client(eng):
        core = m.host_core(1)
        conn = yield from a.connect(core, SocketAddr("b", 80))
        yield from conn.send(core, "hello", 5)
        payload, n = yield from conn.recv(core)
        log.append((payload, n))

    eng.spawn(server(eng))
    eng.spawn(client(eng))
    eng.run()
    assert log == [("HELLO", 5)]


def test_connection_refused():
    eng, m, net, a, b = make_pair()

    def client(eng):
        try:
            yield from a.connect(m.host_core(0), SocketAddr("b", 9999))
        except ConnectionRefusedError:
            return "refused"
        return "connected"

    assert eng.run_process(client(eng)) == "refused"


def test_in_order_delivery():
    eng, m, net, a, b = make_pair()
    b.listen(80)
    got = []

    def server(eng):
        core = m.host_core(0, socket=1)
        conn = yield from b._listeners[80].accept(core)
        for _ in range(20):
            payload, _ = yield from conn.recv(core)
            got.append(payload)

    def client(eng):
        core = m.host_core(1)
        conn = yield from a.connect(core, SocketAddr("b", 80))
        for i in range(20):
            yield from conn.send(core, i, 100)

    eng.spawn(server(eng))
    eng.spawn(client(eng))
    eng.run()
    assert got == list(range(20))


def test_fin_gives_eof_and_send_fails():
    eng, m, net, a, b = make_pair()
    b.listen(80)
    result = {}

    def server(eng):
        core = m.host_core(0, socket=1)
        conn = yield from b._listeners[80].accept(core)
        payload, n = yield from conn.recv(core)
        result["eof"] = (payload, n)

    def client(eng):
        core = m.host_core(1)
        conn = yield from a.connect(core, SocketAddr("b", 80))
        yield from conn.close(core)
        try:
            yield from conn.send(core, "x", 1)
        except BrokenPipeError:
            result["pipe"] = True

    eng.spawn(server(eng))
    eng.spawn(client(eng))
    eng.run()
    assert result["eof"] == (None, 0)
    assert result["pipe"] is True


def test_multiple_connections_isolated():
    eng, m, net, a, b = make_pair()
    b.listen(80)
    got = {}

    def server(eng):
        core = m.host_core(0, socket=1)
        listener = b._listeners[80]
        conns = []
        for _ in range(3):
            conn = yield from listener.accept(core)
            conns.append(conn)
        for i, conn in enumerate(conns):
            payload, _ = yield from conn.recv(core)
            got[i] = payload

    def client(eng, tag):
        core = m.host_core(1 + tag)
        conn = yield from a.connect(core, SocketAddr("b", 80))
        yield 10_000 * tag
        yield from conn.send(core, f"msg-{tag}", 10)

    eng.spawn(server(eng))
    for tag in range(3):
        eng.spawn(client(eng, tag))
    eng.run()
    assert sorted(got.values()) == ["msg-0", "msg-1", "msg-2"]


def test_phi_endpoint_slower_than_host():
    """The Figure 1(b) mechanism: the same message costs far more when
    the TCP stack runs on the Phi."""

    def rtt(kind):
        eng = Engine()
        m = build_machine(eng)
        tb = NetTestbed(eng, m)
        server = tb.host if kind == "host" else tb.phi_linux(0)
        server.jitter = False
        tb.client.jitter = False
        server.listen(7)
        server_core = (
            m.host_core(0) if kind == "host" else m.phi_core(0, 0)
        )

        def echo(eng):
            conn = yield from server._listeners[7].accept(server_core)
            while True:
                payload, n = yield from conn.recv(server_core)
                if payload is None:
                    return
                yield from conn.send(server_core, payload, n)

        samples = []

        def client(eng):
            core = tb.client_cpu.core(0)
            conn = yield from tb.client.connect(
                core, SocketAddr(server.name, 7)
            )
            for _ in range(10):
                t0 = eng.now
                yield from conn.send(core, b"x" * 64, 64)
                yield from conn.recv(core)
                samples.append(eng.now - t0)
            yield from conn.close(core)

        eng.spawn(echo(eng))
        eng.spawn(client(eng))
        eng.run()
        return sum(samples) / len(samples)

    rtt_host = rtt("host")
    rtt_phi = rtt("phi")
    assert rtt_phi > 2.5 * rtt_host


def test_closed_connections_are_freed_by_refcount():
    """Connection-per-request traffic leaves no closed connection pair
    for the cyclic collector: once both ends have closed, the pair's
    links to each other are dropped."""
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=1))
    tb = NetTestbed(eng, system.machine, seed=3)
    proxy = tb.solros_proxy()
    dp = system.dataplane(0)
    KvShard(eng, dp, proxy.attach(dp), 0).start()
    replies = []

    def client():
        kv = KvClient(tb.client, tb.client_cpu)
        for i in range(40):
            if i % 4 == 0:
                replies.append((yield from kv.put(f"k{i % 7}", "v")))
            else:
                replies.append((yield from kv.get(f"k{i % 7}")))

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        eng.run_process(client())
        gc.collect()
        leaked = sum(isinstance(obj, Connection) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(replies) == 40 and all(r[0] in ("ok", "miss") for r in replies)
    assert leaked == 0
