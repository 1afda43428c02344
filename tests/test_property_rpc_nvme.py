"""Property-based tests for the RPC channel and NVMe command prep."""

from hypothesis import given, settings, strategies as st

from repro.hw import NvmeOp, build_machine
from repro.hw.params import NvmeParams
from repro.sim import Engine
from repro.transport import RpcChannel

settings.register_profile("rpcnvme", max_examples=20, deadline=None)
settings.load_profile("rpcnvme")


# ----------------------------------------------------------------------
# RPC: arbitrary concurrent call patterns multiplex correctly
# ----------------------------------------------------------------------
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["alpha", "beta", "gamma"]),
            st.integers(min_value=0, max_value=1_000),
            st.integers(min_value=0, max_value=30_000),  # client-side stagger
        ),
        min_size=1,
        max_size=20,
    ),
    n_servers=st.integers(min_value=1, max_value=4),
)
def test_rpc_multiplexing_under_arbitrary_interleavings(calls, n_servers):
    eng = Engine()
    m = build_machine(eng)
    ch = RpcChannel(eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host)

    def handler(core, method, payload, ctx):
        # Variable server-side latency scrambles completion order.
        yield (payload * 37) % 5_000
        return (method, payload * 2)

    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(i) for i in range(n_servers)], handler)
    results = {}

    def client(i, method, payload, stagger):
        core = m.phi_core(0, i % 50)
        yield stagger
        results[i] = yield from ch.call(core, method, payload)

    procs = [
        eng.spawn(client(i, method, payload, stagger))
        for i, (method, payload, stagger) in enumerate(calls)
    ]

    def finisher(eng):
        yield eng.all_of(procs)
        ch.stop()

    eng.spawn(finisher(eng))
    eng.run()
    assert all(p.ok for p in procs)
    # Every caller got *its own* response, never a neighbour's.
    for i, (method, payload, _stagger) in enumerate(calls):
        assert results[i] == (method, payload * 2)


# ----------------------------------------------------------------------
# NVMe: MDTS splitting is a partition of the request
# ----------------------------------------------------------------------
@given(
    offset=st.integers(min_value=0, max_value=1 << 30),
    nbytes=st.integers(min_value=1, max_value=16 << 20),
)
def test_mdts_split_partitions_request(offset, nbytes):
    eng = Engine()
    m = build_machine(eng)
    op = NvmeOp("read", offset, nbytes, "numa0")
    cmds = m.nvme.split_mdts(op)
    mdts = NvmeParams().mdts_bytes
    # Exact coverage, in order, no overlap, each within MDTS.
    assert cmds[0].offset == offset
    assert sum(c.nbytes for c in cmds) == nbytes
    position = offset
    for cmd in cmds:
        assert cmd.offset == position
        assert 0 < cmd.nbytes <= mdts
        assert cmd.target == "numa0"
        assert cmd.op == "read"
        position += cmd.nbytes
    # Minimal command count.
    assert len(cmds) == (nbytes + mdts - 1) // mdts
