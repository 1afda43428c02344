"""The metric catalog: every metric's name, unit and good direction.

``BENCHMARK.json`` at the repository root lists the same metrics; a
test keeps the two in step.  README.md explains each one.
"""

# (name, unit, better, clock).  "sim" is the modelled Solros machine
# (deterministic for a seed); "host" is the simulator's own cost.
END_TO_END = (
    ("sim_ops_per_s", "1/s", "higher", "sim"),
    ("sim_gbps", "GB/s", "higher", "sim"),
    ("sim_p50_us", "us", "lower", "sim"),
    ("sim_p99_us", "us", "lower", "sim"),
    ("sim_write_p50_us", "us", "lower", "sim"),
    ("sim_write_p99_us", "us", "lower", "sim"),
    ("host_ops_per_s", "1/s", "higher", "host"),
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
)

# (name, unit, better).  Simulated-time layer metrics come from the
# probes in layers.py, host.* from the profiler, sample.* from the
# latency samples of the run itself.
PER_LAYER = (
    ("fs.stub.calls", "count", "lower"),
    ("fs.stub.sim_us_p50", "us", "lower"),
    ("fs.stub.sim_us_p99", "us", "lower"),
    ("transport.rpc.calls", "count", "lower"),
    ("transport.rpc.errors", "count", "lower"),
    ("transport.rpc.sim_us_p50", "us", "lower"),
    ("transport.rpc.sim_us_p99", "us", "lower"),
    ("transport.ringbuf.sends", "count", "lower"),
    ("transport.ringbuf.send_sim_us_mean", "us", "lower"),
    ("transport.ringbuf.recv_sim_us_mean", "us", "lower"),
    ("transport.ringbuf.dma_share", "ratio", "higher"),
    ("transport.combining.calls", "count", "lower"),
    ("transport.combining.ops_per_batch", "count", "higher"),
    ("fs.proxy.requests", "count", "lower"),
    ("fs.proxy.handle_sim_us_p50", "us", "lower"),
    ("fs.proxy.queue_wait_sim_us_mean", "us", "lower"),
    ("fs.proxy.busy_ratio", "ratio", "lower"),
    ("fs.extfs.calls", "count", "lower"),
    ("fs.extfs.sim_us_mean", "us", "lower"),
    ("fs.buffercache.lookups", "count", "lower"),
    ("fs.buffercache.hit_ratio", "ratio", "higher"),
    ("core.policy.p2p_ratio", "ratio", "higher"),
    ("hw.nvme.cmds", "count", "lower"),
    ("hw.nvme.bytes", "B", "lower"),
    ("hw.nvme.sim_us_p50", "us", "lower"),
    ("hw.nvme.busy_ratio", "ratio", "lower"),
    ("hw.topology.dma_bytes", "B", "lower"),
    ("hw.topology.dma_sim_us_mean", "us", "lower"),
    ("net.socket_api.calls", "count", "lower"),
    ("net.socket_api.sim_us_p50", "us", "lower"),
    ("net.tcp.calls", "count", "lower"),
    ("net.tcp.sim_us_mean", "us", "lower"),
    ("hw.nic.packets", "count", "lower"),
    ("hw.nic.sim_us_mean", "us", "lower"),
    ("net.balancer.max_shard_share", "ratio", "lower"),
    ("host.sim_s", "s", "lower"),
    ("host.transport_s", "s", "lower"),
    ("host.fs_s", "s", "lower"),
    ("host.hw_s", "s", "lower"),
    ("host.net_s", "s", "lower"),
    ("host.core_s", "s", "lower"),
    ("host.apps_s", "s", "lower"),
    ("host.obs_s", "s", "lower"),
    ("host.other_s", "s", "lower"),
    ("host.sim_share", "ratio", "lower"),
    ("host.tracing_overhead", "ratio", "lower"),
    ("sample.count", "count", "higher"),
    ("sample.beyond_p99", "count", "higher"),
    ("sample.write_count", "count", "higher"),
    ("sample.write_beyond_p99", "count", "higher"),
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}
SIM_METRICS = tuple(name for name, _u, _b, clock in END_TO_END if clock == "sim")
