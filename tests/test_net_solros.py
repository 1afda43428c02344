"""Integration tests for the Solros network service: stub, proxy,
event dispatcher, shared listening socket with load balancing."""

import pytest

from repro.core import SolrosSystem
from repro.net import (
    ContentBasedBalancer,
    LeastLoadedBalancer,
    RoundRobinBalancer,
    SocketAddr,
)
from repro.net.testbed import NetTestbed
from repro.sim import Engine


@pytest.fixture()
def env():
    eng = Engine()
    system = SolrosSystem(eng)
    eng.run_process(system.boot(n_phis=4))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    apis = [proxy.attach(system.dataplane(i)) for i in range(4)]
    return eng, system, tb, proxy, apis


def run_client_echo_server(eng, tb, api, phi, port=9000, messages=5):
    """Phi runs an echo server; client connects and ping-pongs."""
    results = []

    def server(eng):
        core = phi.core(0)
        listener = yield from api.listen(core, port)
        sock = yield from listener.accept(core)
        while True:
            payload, n = yield from sock.recv(core)
            if payload is None:
                return
            yield from sock.send(core, payload, n)

    def client(eng):
        core = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        for i in range(messages):
            yield from conn.send(core, f"ping{i}", 64)
            payload, n = yield from conn.recv(core)
            results.append(payload)
        yield from conn.close(core)

    eng.spawn(server(eng))
    client_proc = eng.spawn(client(eng))
    eng.run()
    assert client_proc.ok
    return results


def test_accept_and_echo_roundtrip(env):
    eng, system, tb, proxy, apis = env
    results = run_client_echo_server(eng, tb, apis[0], system.dataplane(0))
    assert results == [f"ping{i}" for i in range(5)]
    assert proxy.stats.accepts == 1
    assert proxy.stats.messages_in >= 5
    assert proxy.stats.messages_out >= 5


def test_outbound_connect_from_phi(env):
    eng, system, tb, proxy, apis = env
    phi = system.dataplane(1)
    got = []

    def client_server(eng):
        core = tb.client_cpu.core(0)
        listener = tb.client.listen(5555)
        conn = yield from listener.accept(core)
        payload, n = yield from conn.recv(core)
        got.append((payload, n))
        yield from conn.send(core, b"ack", 3)

    def phi_app(eng):
        core = phi.core(0)
        sock = yield from apis[1].connect(core, SocketAddr("client", 5555))
        yield from sock.send(core, b"hello from phi1", 15)
        payload, n = yield from sock.recv(core)
        got.append((payload, n))
        yield from sock.close(core)

    eng.spawn(client_server(eng))
    proc = eng.spawn(phi_app(eng))
    eng.run()
    assert proc.ok
    assert got[0] == (b"hello from phi1", 15)
    assert got[1] == (b"ack", 3)


def test_shared_listening_round_robin(env):
    """Four phis listen on one port; connections spread round-robin."""
    eng, system, tb, proxy, apis = env
    port = 9100
    served_by = []

    def phi_server(i):
        phi = system.dataplane(i)
        core = phi.core(0)
        api = apis[i]
        listener = yield from api.listen(
            core, port, RoundRobinBalancer() if i == 0 else None
        )
        while True:
            sock = yield from listener.accept(core)
            payload, n = yield from sock.recv(core)
            served_by.append((i, payload))
            yield from sock.send(core, b"ok", 2)

    def one_client(j):
        core = tb.client_cpu.core(j % 16)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        yield from conn.send(core, f"req{j}", 64)
        yield from conn.recv(core)
        yield from conn.close(core)

    for i in range(4):
        eng.spawn(phi_server(i))

    def clients(eng):
        for j in range(8):
            yield from one_client(j)

    proc = eng.spawn(clients(eng))
    eng.run()
    assert proc.ok
    counts = {i: 0 for i in range(4)}
    for i, _ in served_by:
        counts[i] += 1
    # Round robin: 8 sequential connections over 4 members = 2 each.
    assert all(c == 2 for c in counts.values()), counts


def test_content_based_balancing(env):
    eng, system, tb, proxy, apis = env
    port = 9200
    served_by = {}

    balancer = ContentBasedBalancer(
        lambda payload, n: int(payload.split("-")[1]) % n
    )

    def phi_server(i):
        phi = system.dataplane(i)
        core = phi.core(0)
        listener = yield from apis[i].listen(
            core, port, balancer if i == 0 else None
        )
        while True:
            sock = yield from listener.accept(core)
            payload, n = yield from sock.recv(core)
            served_by[payload] = i
            yield from sock.send(core, b"ok", 2)

    def one_client(key):
        core = tb.client_cpu.core(key % 16)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        yield from conn.send(core, f"key-{key}", 64)
        yield from conn.recv(core)
        yield from conn.close(core)

    for i in range(4):
        eng.spawn(phi_server(i))

    def clients(eng):
        for key in range(8):
            yield from one_client(key)

    proc = eng.spawn(clients(eng))
    eng.run()
    assert proc.ok
    # Content rule: request key-k must land on phi (k % 4).
    for key in range(8):
        assert served_by[f"key-{key}"] == key % 4


def test_least_loaded_balancer_prefers_idle_member():
    balancer = LeastLoadedBalancer()
    assert balancer.pick(["a", "b", "c"], [5, 1, 3]) == 1
    assert balancer.pick(["a", "b"], [2, 2]) == 0  # tie -> lowest index


def test_eof_propagates_to_phi(env):
    eng, system, tb, proxy, apis = env
    phi = system.dataplane(0)
    port = 9300
    got = []

    def server(eng):
        core = phi.core(0)
        listener = yield from apis[0].listen(core, port)
        sock = yield from listener.accept(core)
        payload, n = yield from sock.recv(core)
        got.append((payload, n))
        payload, n = yield from sock.recv(core)  # EOF
        got.append((payload, n))

    def client(eng):
        core = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        yield from conn.send(core, b"bye", 3)
        yield from conn.close(core)

    server_proc = eng.spawn(server(eng))
    eng.spawn(client(eng))
    eng.run()
    assert server_proc.ok
    assert got == [(b"bye", 3), (None, 0)]


def test_solros_echo_latency_between_host_and_phi_linux(env):
    """Fig. 1(b) ordering: host < Solros << Phi-Linux for echo RTTs."""
    eng, system, tb, proxy, apis = env
    phi = system.dataplane(0)
    tb.client.jitter = False

    # Solros RTT.
    samples = []
    port = 9400

    def server(eng):
        core = phi.core(1)
        listener = yield from apis[0].listen(core, port)
        sock = yield from listener.accept(core)
        while True:
            payload, n = yield from sock.recv(core)
            if payload is None:
                return
            yield from sock.send(core, payload, n)

    def client(eng):
        core = tb.client_cpu.core(1)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        for _ in range(10):
            t0 = eng.now
            yield from conn.send(core, b"x" * 64, 64)
            yield from conn.recv(core)
            samples.append(eng.now - t0)
        yield from conn.close(core)

    eng.spawn(server(eng))
    proc = eng.spawn(client(eng))
    eng.run()
    assert proc.ok
    solros_rtt = sum(samples) / len(samples)
    # Sanity: a 64-byte Solros echo lands in the tens of microseconds.
    assert 10_000 < solros_rtt < 250_000


def test_service_forgets_finished_connection_processes(env):
    """Connection-per-request echoes spawn a feeder per connection; the
    service's process group holds a bounded number of them, live ones in
    spawn order."""
    eng, system, tb, proxy, apis = env
    phi = system.dataplane(0)
    port = 9500

    def server(eng):
        core = phi.core(0)
        listener = yield from apis[0].listen(core, port)
        while True:
            sock = yield from listener.accept(core)
            payload, n = yield from sock.recv(core)
            yield from sock.send(core, payload, n)
            yield from sock.close(core)

    def clients(eng, n):
        core = tb.client_cpu.core(0)
        for j in range(n):
            conn = yield from tb.client.connect(core, SocketAddr("host", port))
            yield from conn.send(core, f"req{j}", 64)
            yield from conn.recv(core)
            yield from conn.close(core)

    workers = list(proxy._procs)  # started by attach, never finish
    eng.spawn(server(eng))
    sizes = []
    for n in (60, 180):
        proc = eng.spawn(clients(eng, n))
        eng.run()
        assert proc.ok
        sizes.append(len(proxy._procs))
    assert proxy.stats.accepts == 240
    assert max(sizes) <= 128, sizes
    assert list(proxy._procs)[: len(workers)] == workers
