"""The catalog: every metric name and span category, declared once.

:class:`~repro.obs.metrics.MetricsRegistry` accepts a metric only as
the kind of the first :data:`METRICS` row its name matches, and
:class:`~repro.obs.tracer.Tracer` only a category in
:data:`SPAN_CATEGORIES`.  A ``<placeholder>`` stands for one or more
lowercase dotted segments: ``ring.<name>.copy.dma`` covers
``ring.fs-rpc.phi0.req.copy.dma``.  ``docs/OBSERVABILITY.md``'s two
tables are rendered from here by :func:`render_doc`.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Tuple

__all__ = [
    "Metric",
    "METRICS",
    "SPAN_CATEGORIES",
    "CATEGORY_NAMES",
    "row_of",
    "render_doc",
]


class Metric(NamedTuple):
    pattern: str
    kind: str  # counter | gauge | histogram | meter
    meaning: str


# (category, emitted by, spans)
SPAN_CATEGORIES = (
    ("stub", "`fs/stub.py`", "`fs.open`, `fs.pread`, `fs.pwrite`, … — one root "
     "per delegated operation"),
    ("transport", "`transport/ringbuf.py`, `rpc.py`, `combining.py`, "
     "`fs/proxy.py`", "`rpc.<method>` (whole round trip), `rb.enqueue`, "
     "`rb.copy_in`, `rb.queued` (time in ring), `rb.copy_out`, "
     "`combining.wait`, `dma.push`/`dma.pull`"),
    ("proxy", "`transport/rpc.py` server side", "`rpc.serve.<method>` — the "
     "host worker executing the handler"),
    ("fs", "`fs/proxy.py`", "`fs.fiemap`, `fs.allocate+fiemap` — host-FS "
     "metadata work inside the handler"),
    ("device", "`fs/proxy.py`, `hw/nvme.py`", "`nvme.read`/`nvme.write` "
     "(submission, with `path=p2p\\|buffered`), `nvme.cmd.<op>` (per "
     "command; these overlap)"),
    ("net", "`net/socket_api.py`, `net/service.py`", "`net.connect`, "
     "`net.send`, `net.recv`, `net.tcp_send`"),
)
CATEGORY_NAMES = frozenset(name for name, _by, _spans in SPAN_CATEGORIES)

METRICS: Tuple[Metric, ...] = tuple(Metric(*row) for row in (
    ("ring.<name>.occupancy_bytes", "gauge",
     "bytes reserved in a ring, sampled at every enqueue/free"),
    ("ring.<name>.copy.dma", "counter",
     "slot copies that crossed PCIe by DMA (a copy into ring memory local "
     "to the copying side is in neither `copy` series)"),
    ("ring.<name>.copy.memcpy", "counter",
     "slot copies that crossed PCIe by load/store memcpy"),
    ("combining.<name>.batch", "histogram",
     "operations retired per flat-combining batch"),
    ("rpc.<name>.inflight", "gauge", "outstanding RPCs on a channel"),
    ("rpc.<name>.calls", "meter",
     "completed RPCs (ops) and their request + response bytes"),
    ("cache.hits", "counter",
     "blocks found resident when the buffer cache is probed: every block "
     "of every read and write the proxy decides a path for, P2P ones "
     "included, and of every prefetch"),
    ("cache.misses", "counter",
     "blocks probed, as for `cache.hits`, and not resident; a P2P read "
     "fills nothing, so its blocks miss again on every read"),
    ("cache.hit_rate", "gauge",
     "`cache.hits` over all probes so far, set at every probe"),
    ("cache.resident_blocks", "gauge",
     "cache occupancy after every insert, invalidation and clear"),
    ("proxy.path.p2p", "counter", "reads and writes completed peer to peer"),
    ("proxy.path.buffered", "counter",
     "reads and writes completed on the host-staged path (a P2P attempt "
     "that faulted and fell back counts here)"),
    ("nvme.<node>.cmd_bytes", "histogram",
     "per-command transfer sizes, including the commands `mkfs` issues"),
    ("net.outbound", "meter",
     "co-processor socket sends the net proxy completed on host TCP (ops) "
     "and their payload bytes"),
    ("net.inbound", "meter",
     "host TCP messages the net proxy delivered to a co-processor's "
     "inbound ring (ops) and their payload bytes"),
    ("sched.submitted", "counter",
     "requests offered to the control-plane scheduler"),
    ("sched.admitted", "counter", "requests the scheduler queued"),
    ("sched.rejected", "counter",
     "admission-control pushbacks (`SchedRejected` replies)"),
    ("sched.shed", "counter", "expired-deadline requests dropped at dispatch"),
    ("sched.queue.depth", "gauge",
     "total queued requests, sampled at every admit/dispatch"),
    ("sched.queue.depth.c<class>", "gauge",
     "queued requests per priority class (0 RT, 1 normal, 2 bulk)"),
    ("sched.workers", "gauge",
     "staffed pool workers (permanent + RT-reserved + elastic)"),
    ("sched.wait_ns", "histogram",
     "admit→dispatch queueing delay per request (its only record)"),
    ("sched.service_ns", "histogram",
     "dispatch→completion service time per request"),
    ("sched.src.<source>.bytes", "counter",
     "cost of one source's completed requests, each the larger of its 9P "
     "`count` and its wire size (the DRR fairness series; it appears at "
     "the source's first completion)"),
    ("perfgate.errors", "counter",
     "perf-gate benchmarks that crashed during the run"),
    ("perfgate.<metric>", "gauge",
     "one gated suite number mirrored from `BENCH_perf.json` (see "
     "[PERFORMANCE.md](PERFORMANCE.md))"),
    ("faults.nvme.read_errors", "counter",
     "injected NVMe read errors (see [FAULTS.md](FAULTS.md))"),
    ("faults.nvme.write_errors", "counter", "injected NVMe write errors"),
    ("faults.nvme.latency_spikes", "counter",
     "injected NVMe latency spikes charged inside a command slot"),
    ("faults.ring.stalls", "counter",
     "injected transient ring-slot stalls (enqueue + dequeue sides)"),
    ("faults.pcie.degraded", "counter",
     "injected PCIe link-degradation penalties on control-variable reads"),
    ("faults.proxy.crashes", "counter",
     "injected proxy crash events (one per crash, per channel)"),
    ("faults.proxy.dropped", "counter",
     "requests swallowed by a crashed/restarting proxy"),
    ("faults.nic.drops", "counter",
     "injected NIC packet drops (each charges one retransmit delay)"),
    ("faults.rpc.timeouts", "counter",
     "`RpcChannel.call` waits that expired (`ETIMEDOUT` causes)"),
    ("faults.rpc.retries", "counter",
     "stub backoff-and-re-issue rounds for transient failures"),
    ("faults.rpc.dedup_hits", "counter",
     "duplicate requests answered with the original's reply (cached, or "
     "by waiting for the original)"),
    ("faults.breaker.trips", "counter",
     "circuit-breaker CLOSED/HALF_OPEN → OPEN transitions"),
    ("faults.breaker.<device>.state", "gauge",
     "breaker state per device (0 closed, 1 open, 2 half-open)"),
    ("faults.fallback.buffered", "counter",
     "P2P requests degraded to the host-staged buffered path"),
))

_SEGMENTS = r"[a-z0-9_-]+(?:\.[a-z0-9_-]+)*"


def _regex(pattern: str) -> "re.Pattern[str]":
    literals = re.split(r"<[a-z]+>", pattern)
    return re.compile(_SEGMENTS.join(map(re.escape, literals)))


_COMPILED = [(_regex(row.pattern), row) for row in METRICS]


def row_of(name: str) -> Metric:
    """The first row matching metric ``name``, so an exact row listed
    first wins (``perfgate.errors`` over ``perfgate.<metric>``); a
    name no row matches raises :class:`ValueError`."""
    for regex, row in _COMPILED:
        if regex.fullmatch(name):
            return row
    raise ValueError(f"metric {name!r} is not declared in repro.obs.catalog")


def render_doc(text: str) -> str:
    """``text`` with each catalog table, between ``<!-- catalog:
    <title> -->`` and ``<!-- end catalog -->``, rendered anew."""
    tables = {
        "span categories": ("category | emitted by | spans", SPAN_CATEGORIES),
        "metrics": ("metric | kind | meaning", METRICS),
    }
    for title, (header, rows) in tables.items():
        lines = [f"| {header} |", "|---|---|---|"]
        lines += [f"| `{a}` | {b} | {c} |" for a, b, c in rows]
        begin = f"<!-- catalog: {title} -->\n"
        start = text.index(begin) + len(begin)
        end = text.index("<!-- end catalog -->", start)
        text = text[:start] + "\n".join(lines) + "\n" + text[end:]
    return text
