"""Figure 15 (reconstructed): shared listening socket scalability.

§4.4.3: multiple co-processors listen on one address/port and the
control plane balances connections across them.  The paper's
evaluation of this fell in the truncated text; reconstructed here as:
aggregate request throughput of a request-reply service as the number
of member co-processors grows from 1 to 4, plus the balance quality of
each policy.
"""

from repro.bench.report import render_table
from repro.core import SolrosConfig, SolrosSystem
from repro.net import RoundRobinBalancer, SocketAddr
from repro.net.testbed import NetTestbed
from repro.sim import Engine

PORT = 9500
REQUESTS = 48


def run_members(n_phis: int):
    """Aggregate served requests/s with n_phis shared-socket members."""
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(disk_blocks=8192, max_inodes=16))
    eng.run_process(system.boot(n_phis=n_phis))
    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    apis = [proxy.attach(system.dataplane(i)) for i in range(n_phis)]
    served = {i: 0 for i in range(n_phis)}

    def phi_server(i):
        dp = system.dataplane(i)
        core = dp.core(0)
        listener = yield from apis[i].listen(
            core, PORT, RoundRobinBalancer() if i == 0 else None
        )
        while True:
            sock = yield from listener.accept(core)
            while True:
                payload, n = yield from sock.recv(core)
                if payload is None:
                    break
                # Simulated request handling on the Phi: this is the
                # per-request work the members parallelize.
                yield core.compute(30_000, "branchy")
                served[i] += 1
                yield from sock.send(core, b"ok", 64)

    def client(j, n_requests):
        core = tb.client_cpu.core(j % 16)
        conn = yield from tb.client.connect(core, SocketAddr("host", PORT))
        for _ in range(n_requests):
            yield from conn.send(core, b"req", 64)
            yield from conn.recv(core)
        yield from conn.close(core)

    for i in range(n_phis):
        eng.spawn(phi_server(i))
    start = eng.now
    n_clients = 8
    procs = [eng.spawn(client(j, REQUESTS // n_clients)) for j in range(n_clients)]

    def waiter(eng):
        yield eng.all_of(procs)
        return eng.now

    end = eng.run_process(waiter(eng))
    proxy.stop()
    system.shutdown()
    total = sum(served.values())
    rate = total * 1e9 / (end - start)
    return rate, served


def run_figure():
    rows = []
    balances = {}
    for n in (1, 2, 3, 4):
        rate, served = run_members(n)
        rows.append([n, rate, min(served.values()), max(served.values())])
        balances[n] = served
    return rows, balances


def test_fig15_shared_listening_socket(benchmark):
    rows, balances = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    print(
        render_table(
            "Figure 15*: shared listening socket scaling (requests/s)",
            ["members", "req/s", "min-served", "max-served"],
            rows,
            subtitle="reconstructed; round-robin across 1-4 Phis",
        )
    )
    rates = [row[1] for row in rows]
    # Aggregate throughput grows with members...
    assert rates[3] > 1.8 * rates[0]
    # ...and round robin keeps the members balanced (within one conn's
    # worth of requests).
    served4 = balances[4]
    per_conn = REQUESTS // 8
    assert max(served4.values()) - min(served4.values()) <= 2 * per_conn
