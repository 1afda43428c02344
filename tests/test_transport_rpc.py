"""Unit tests for the RPC channel."""

import pytest

from repro.hw import build_machine
from repro.sim import Engine
from repro.transport import RemoteCallError, RpcChannel, RpcError


def make_channel(eng, m):
    return RpcChannel(eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host)


def echo_handler(core, method, payload, ctx):
    yield core.compute(100)
    if method == "boom":
        raise ValueError("server exploded")
    return (method, payload)


def test_call_roundtrip():
    eng = Engine()
    m = build_machine(eng)
    ch = make_channel(eng, m)
    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(1)], echo_handler)

    def client(eng):
        result = yield from ch.call(m.phi_core(0, 0), "open", {"path": "/a"})
        ch.stop()
        return result

    assert eng.run_process(client(eng)) == ("open", {"path": "/a"})


def test_call_requires_started_client():
    eng = Engine()
    m = build_machine(eng)
    ch = make_channel(eng, m)

    def client(eng):
        yield from ch.call(m.phi_core(0, 0), "open", None)

    with pytest.raises(RpcError):
        eng.run_process(client(eng))


def test_double_start_client_rejected():
    eng = Engine()
    m = build_machine(eng)
    ch = make_channel(eng, m)
    ch.start_client(m.phi_core(0, 60))
    with pytest.raises(RpcError):
        ch.start_client(m.phi_core(0, 59))
    ch.stop()
    eng.run()


def test_server_exception_propagates_to_caller():
    eng = Engine()
    m = build_machine(eng)
    ch = make_channel(eng, m)
    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(1)], echo_handler)

    def client(eng):
        try:
            yield from ch.call(m.phi_core(0, 0), "boom", None)
        except RemoteCallError as error:
            ch.stop()
            return str(error.cause)
        ch.stop()
        return "no error"

    assert eng.run_process(client(eng)) == "server exploded"


def test_concurrent_calls_multiplex_correctly():
    eng = Engine()
    m = build_machine(eng)
    ch = make_channel(eng, m)
    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(i) for i in range(1, 5)], echo_handler)
    results = {}

    def client(i):
        core = m.phi_core(0, i)
        r = yield from ch.call(core, f"m{i}", i * 10)
        results[i] = r

    procs = [eng.spawn(client(i)) for i in range(16)]

    def stopper(eng):
        yield eng.all_of(procs)
        ch.stop()

    eng.spawn(stopper(eng))
    eng.run()
    assert results == {i: (f"m{i}", i * 10) for i in range(16)}


def test_rpc_latency_is_microseconds_not_milliseconds():
    """A 64-byte RPC across PCIe should cost on the order of tens of
    microseconds — the foundation of the Figure 1(b) latency story."""
    eng = Engine()
    m = build_machine(eng)
    ch = make_channel(eng, m)
    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(1)], echo_handler)

    def client(eng):
        core = m.phi_core(0, 0)
        yield from ch.call(core, "warm", None)   # warm-up
        t0 = eng.now
        yield from ch.call(core, "ping", None)
        dt = eng.now - t0
        ch.stop()
        return dt

    dt = eng.run_process(client(eng))
    assert 1_000 < dt < 100_000  # 1 us .. 100 us


def test_answered_call_cancels_its_timeout_timer():
    """A call answered before ``timeout_ns`` leaves no live timer, so the
    run ends when the untimed call's run does, not at the deadline."""

    def run(timeout_ns):
        eng = Engine()
        m = build_machine(eng)
        ch = make_channel(eng, m)
        ch.start_client(m.phi_core(0, 60))
        ch.start_server([m.host_core(1)], echo_handler)
        live = []

        def client(eng):
            result = yield from ch.call(
                m.phi_core(0, 0), "open", None, timeout_ns=timeout_ns
            )
            live.extend(e for e in eng._heap if e[2] is not None)
            ch.stop()
            return result

        proc = eng.spawn(client(eng))
        end = eng.run()
        assert proc.value == ("open", None)
        return end, live

    untimed_end, _ = run(None)
    end, live = run(50_000_000)
    assert end == untimed_end < 50_000_000
    assert not any(e[0] >= 50_000_000 for e in live)
