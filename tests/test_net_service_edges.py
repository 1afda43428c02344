"""Edge cases of the Solros network service: listener lifecycle,
dispatcher under fan-in stress, send/close ordering, least-loaded
balancing end to end."""

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.faults import FaultPlan, ProxyFaults
from repro.net import LeastLoadedBalancer, SocketAddr
from repro.net.testbed import NetTestbed
from repro.sim import Engine, SimError
from repro.transport import RemoteCallError, RpcTimeout


@pytest.fixture()
def env():
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=4))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    apis = [proxy.attach(system.dataplane(i)) for i in range(4)]
    return eng, system, tb, proxy, apis


def test_close_listener_releases_port(env):
    eng, system, tb, proxy, apis = env
    phi = system.dataplane(0)
    core = phi.core(0)

    def flow(eng):
        yield from apis[0].listen(core, 8800)
        assert 8800 in proxy.listeners
        yield from apis[0].close_listener(core, 8800)
        return 8800 in proxy.listeners

    assert eng.run_process(flow(eng)) is False
    # The port can be re-listened afterwards.

    def again(eng):
        yield from apis[0].listen(core, 8800)
        return True

    assert eng.run_process(again(eng))


def test_double_listen_same_plane_rejected(env):
    eng, system, tb, proxy, apis = env
    core = system.dataplane(0).core(0)

    def flow(eng):
        yield from apis[0].listen(core, 8801)
        yield from apis[0].listen(core, 8801)

    with pytest.raises(SimError, match="already listening"):
        eng.run_process(flow(eng))


def test_timed_out_listen_can_be_retried():
    """A listen whose RPC times out (the proxy crashed on it) leaves no
    data-plane listener behind, so retrying it succeeds."""
    eng = Engine()
    plan = FaultPlan(
        seed=1,
        rpc_timeout_ns=50_000,
        proxy=ProxyFaults(
            crash_at_requests=(1,), restart_after_ns=10_000,
            targets=("net.",),
        ),
    )
    system = SolrosSystem(eng, SolrosConfig(
        disk_blocks=8192, max_inodes=16, fault_plan=plan,
    ))
    eng.run_process(system.boot(n_phis=1))
    proxy = NetTestbed(eng, system.machine).solros_proxy()
    api = proxy.attach(system.dataplane(0))
    core = system.dataplane(0).core(0)

    def flow(eng):
        try:
            yield from api.listen(core, 9000)
        except RemoteCallError as err:
            assert isinstance(err.cause, RpcTimeout)
        else:
            raise AssertionError("the first listen should time out")
        assert 9000 not in api.channel.listener_stores
        yield from api.listen(core, 9000)
        return list(proxy.listeners)

    assert eng.run_process(flow(eng)) == [9000]


def test_unknown_net_messages_raise(env):
    """Both dispatchers raise on a record that is no net message
    instead of dropping it."""
    eng, system, tb, proxy, apis = env
    core = system.dataplane(0).core(0)
    channel = apis[0].channel

    def bad_rpc(eng):
        yield from channel.rpc.call(core, "net", ("connect", None))

    with pytest.raises(RemoteCallError, match="unknown net RPC"):
        eng.run_process(bad_rpc(eng))

    def bad_record(eng):
        yield from channel.outbound.send(core, ("close", 1), 32)

    eng.spawn(bad_record(eng))
    with pytest.raises(SimError, match="unknown net ring record"):
        eng.run()


def test_partial_membership_listener_survives(env):
    """Two planes join; one leaves; the listener keeps serving the
    remaining member."""
    eng, system, tb, proxy, apis = env
    port = 8802
    served = []

    def phi_server(i, leave_after=None):
        dp = system.dataplane(i)
        core = dp.core(0)
        listener = yield from apis[i].listen(core, port)
        if leave_after is not None:
            yield leave_after
            yield from apis[i].close_listener(core, port)
            return
        while True:
            sock = yield from listener.accept(core)
            payload, n = yield from sock.recv(core)
            served.append((i, payload))
            yield from sock.send(core, b"ok", 2)

    eng.spawn(phi_server(0))
    eng.spawn(phi_server(1, leave_after=50_000))

    def clients(eng):
        yield 200_000  # after phi1 left
        for j in range(3):
            core = tb.client_cpu.core(j)
            conn = yield from tb.client.connect(core, SocketAddr("host", port))
            yield from conn.send(core, f"r{j}", 64)
            yield from conn.recv(core)
            yield from conn.close(core)

    eng.run_process(clients(eng))
    assert len(served) == 3
    assert all(i == 0 for i, _p in served)  # only the remaining member


def test_least_loaded_integration(env):
    """With phi0 tied up by long-lived connections, new connections
    flow to the idle members."""
    eng, system, tb, proxy, apis = env
    port = 8803
    served = []

    def phi_server(i):
        dp = system.dataplane(i)
        core = dp.core(0)
        balancer = LeastLoadedBalancer() if i == 0 else None
        listener = yield from apis[i].listen(core, port, balancer)
        while True:
            sock = yield from listener.accept(core)

            def handle(sock=sock, i=i):
                core2 = system.dataplane(i).core(1)
                while True:
                    payload, n = yield from sock.recv(core2)
                    if payload is None:
                        return
                    served.append((i, payload))
                    yield from sock.send(core2, b"ok", 2)

            eng.spawn(handle())

    for i in range(2):  # members: phi0 and phi1 only
        eng.spawn(phi_server(i))

    def clients(eng):
        # First connection stays OPEN (loads its member), the rest are
        # short-lived; least-loaded must route them to the other member.
        core = tb.client_cpu.core(0)
        sticky = yield from tb.client.connect(core, SocketAddr("host", port))
        yield from sticky.send(core, "sticky", 64)
        yield from sticky.recv(core)
        for j in range(3):
            c = tb.client_cpu.core(1 + j)
            conn = yield from tb.client.connect(c, SocketAddr("host", port))
            yield from conn.send(c, f"short-{j}", 64)
            yield from conn.recv(c)
            yield from conn.close(c)
        yield from sticky.close(core)

    eng.run_process(clients(eng))
    sticky_member = next(i for i, p in served if p == "sticky")
    other = 1 - sticky_member
    shorts = [i for i, p in served if p.startswith("short")]
    # With the sticky connection loading one member, the first short
    # connection must go to the other.
    assert shorts[0] == other


def test_sends_and_close_stay_ordered(env):
    """FIN rides the outbound ring behind pending sends: the peer sees
    every message, then EOF."""
    eng, system, tb, proxy, apis = env
    got = []

    def client_server(eng):
        core = tb.client_cpu.core(0)
        listener = tb.client.listen(8804)
        conn = yield from listener.accept(core)
        while True:
            payload, n = yield from conn.recv(core)
            got.append(payload)
            if payload is None:
                return

    def phi_app(eng):
        dp = system.dataplane(0)
        core = dp.core(0)
        sock = yield from apis[0].connect(core, SocketAddr("client", 8804))
        for i in range(5):
            yield from sock.send(core, i, 64)
        yield from sock.close(core)

    eng.spawn(client_server(eng))
    proc = eng.spawn(phi_app(eng))
    eng.run()
    assert proc.ok
    assert got == [0, 1, 2, 3, 4, None]


def test_dispatcher_handles_fan_in(env):
    """Many concurrent sockets on one plane: the single-thread event
    dispatcher routes every message to the right socket (the paper:
    no dispatcher bottleneck observed even at 244 threads)."""
    eng, system, tb, proxy, apis = env
    port = 8805
    n_conns = 16
    per_conn = 6
    results = {}

    def phi_server(eng):
        dp = system.dataplane(0)
        core0 = dp.core(0)
        listener = yield from apis[0].listen(core0, port)
        for k in range(n_conns):
            sock = yield from listener.accept(core0)

            def handle(sock=sock, k=k):
                core = system.dataplane(0).core(1 + (k % 40))
                seen = []
                while True:
                    payload, n = yield from sock.recv(core)
                    if payload is None:
                        results[k] = seen
                        return
                    seen.append(payload)

            eng.spawn(handle())

    def client(j):
        core = tb.client_cpu.core(j % 16)
        conn = yield from tb.client.connect(core, SocketAddr("host", port))
        for i in range(per_conn):
            yield from conn.send(core, (j, i), 64)
        yield from conn.close(core)

    eng.spawn(phi_server(eng))
    procs = [eng.spawn(client(j)) for j in range(n_conns)]
    eng.run()
    assert all(p.ok for p in procs)
    assert len(results) == n_conns
    # Every socket got exactly its own messages, in order.
    all_payloads = [p for seen in results.values() for p in seen]
    assert len(all_payloads) == n_conns * per_conn
    for seen in results.values():
        js = {j for j, _i in seen}
        assert len(js) == 1  # no cross-socket leakage
        assert [i for _j, i in seen] == list(range(per_conn))
