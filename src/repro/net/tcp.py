"""A simplified TCP stack with calibrated per-segment costs.

The paper's network evaluation never stresses the wire — it stresses
*where the protocol processing runs*.  This stack therefore keeps TCP's
observable behaviour (handshake, in-order reliable byte stream,
per-segment processing, softirq serialization, FIN) while abstracting
congestion control and loss away.  Each endpoint is a
:class:`TcpHost`; where it runs decides everything:

* a host endpoint processes segments on fast Xeon cores;
* a "Phi-Linux" endpoint pays the ~8× branch-divergence multiplier and
  serializes receives on a softirq core, with scheduling jitter —
  producing Figure 1(b)'s fat latency tail;
* the external client machine is just another host-class endpoint
  behind the Ethernet wire.

Wires are pluggable: the plain Ethernet wire (client ↔ host NIC) and
the bridged wire (client ↔ Phi across the host bridge, the paper's
stock-Phi networking setup).
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, Generator, Optional, Tuple

from ..hw.cpu import CPU, Core
from ..hw.nic import NicDevice
from ..hw.topology import Fabric
from ..sim.engine import Delay, Engine, SimError
from ..sim.primitives import Store
from ..sim.resources import Resource
from .packets import Segment, SocketAddr

__all__ = [
    "Wire",
    "EthernetWire",
    "BridgedPhiWire",
    "LoopbackWire",
    "Network",
    "TcpHost",
    "ListenSocket",
    "Connection",
]

# Stack cost calibration (host-core ns; Phi pays branchy_mult).
TCP_FIXED_UNITS = 1700        # per send/recv call: socket, skb, locking
TCP_SEG_UNITS = 300           # per MSS segment
TCP_HANDSHAKE_UNITS = 2600    # SYN/ACK processing per endpoint
# Receive-side scheduling jitter: exponential tail scale as a fraction
# of the fixed cost, plus rare scheduling hiccups (heavier on the Phi,
# where 244 hardware threads fight for 61 in-order cores).
JITTER_SCALE = 0.35
PHI_HICCUP_PROB = 0.06
PHI_HICCUP_NS = 150_000
# The stock MIC Linux TCP stack is slower than the branch-divergence
# multiplier alone predicts (poor softirq/locking behaviour on the
# in-order cores); calibrated against Figure 1(b)'s ~7x p99 gap.
PHI_STACK_PENALTY = 2.2


class Wire:
    """A bidirectional medium between two named endpoints."""

    def send(self, src: str, nbytes: int) -> Generator:
        """Propagate ``nbytes`` from endpoint ``src`` to the other end."""
        raise NotImplementedError


class LoopbackWire(Wire):
    """Near-zero-cost wire for unit tests."""

    def __init__(self, latency_ns: int = 1_000):
        self.latency_ns = latency_ns

    def send(self, src: str, nbytes: int) -> Generator:
        yield self.latency_ns


class EthernetWire(Wire):
    """External client ↔ host NIC ↔ host memory."""

    def __init__(
        self,
        nic: NicDevice,
        host_name: str,
        client_name: str,
        host_node: str = "numa0",
    ):
        self.nic = nic
        self.host_name = host_name
        self.client_name = client_name
        self.host_node = host_node

    def send(self, src: str, nbytes: int) -> Generator:
        if src == self.client_name:
            yield from self.nic.receive(nbytes)
            yield from self.nic.dma_to(self.host_node, nbytes)
        elif src == self.host_name:
            yield from self.nic.dma_from(self.host_node, nbytes)
            yield from self.nic.transmit(nbytes)
        else:
            raise SimError(f"{src!r} is not on this wire")


class BridgedPhiWire(Wire):
    """External client ↔ host bridge ↔ Phi over PCIe (§6 setup:
    "we configured a bridge in our server so our client machine can
    directly access a Xeon Phi with a designated IP address")."""

    BRIDGE_UNITS = 600  # host bridge forwarding per message

    def __init__(
        self,
        nic: NicDevice,
        fabric: Fabric,
        phi_cpu: CPU,
        client_name: str,
        bridge_core: Core,
        host_node: str = "numa0",
    ):
        self.nic = nic
        self.fabric = fabric
        self.phi_cpu = phi_cpu
        self.client_name = client_name
        self.bridge_core = bridge_core
        self.host_node = host_node

    def send(self, src: str, nbytes: int) -> Generator:
        if src == self.client_name:
            yield from self.nic.receive(nbytes)
            yield from self.nic.dma_to(self.host_node, nbytes)
            yield self.bridge_core.compute(self.BRIDGE_UNITS, "branchy")
            yield from self.fabric.transfer(
                self.host_node, self.phi_cpu.node, nbytes
            )
        else:
            yield from self.fabric.transfer(
                self.phi_cpu.node, self.host_node, nbytes
            )
            yield self.bridge_core.compute(self.BRIDGE_UNITS, "branchy")
            yield from self.nic.dma_from(self.host_node, nbytes)
            yield from self.nic.transmit(nbytes)


class Network:
    """Endpoint registry and wiring."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._hosts: Dict[str, "TcpHost"] = {}
        self._wires: Dict[Tuple[str, str], Wire] = {}

    def add_host(self, host: "TcpHost") -> "TcpHost":
        if host.name in self._hosts:
            raise SimError(f"duplicate network host: {host.name}")
        self._hosts[host.name] = host
        return host

    def host(self, name: str) -> "TcpHost":
        try:
            return self._hosts[name]
        except KeyError:
            raise SimError(f"unknown network host: {name!r}") from None

    def link(self, a: str, b: str, wire: Wire) -> None:
        self._wires[(a, b)] = wire
        self._wires[(b, a)] = wire

    def wire(self, src: str, dst: str) -> Wire:
        try:
            return self._wires[(src, dst)]
        except KeyError:
            raise SimError(f"no wire between {src!r} and {dst!r}") from None


class TcpHost:
    """One machine's TCP endpoint: stack costs + listening sockets."""

    def __init__(
        self,
        network: Network,
        name: str,
        cpu: CPU,
        seed: int = 0,
        jitter: bool = True,
        rx_queues: Optional[int] = None,
    ):
        self.network = network
        self.engine = network.engine
        self.name = name
        self.cpu = cpu
        self.jitter = jitter
        # crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), which would make jitter non-reproducible.
        self._rng = random.Random((zlib.crc32(name.encode()) & 0xFFFF) ^ seed)
        # Receive processing serializes on the softirq cores.  Hosts
        # get multi-queue NIC + RSS (4 queues); the MIC's network path
        # effectively funnels through one — a real source of the
        # stock-Phi throughput ceiling.
        if rx_queues is None:
            rx_queues = 4 if cpu.params.kind == "host" else 1
        self.softirq = Resource(self.engine, rx_queues, name=f"{name}.softirq")
        self._listeners: Dict[int, "ListenSocket"] = {}
        self._next_port = 40000
        network.add_host(self)

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def _stack_units(self, nsegs: int, handshake: bool = False) -> int:
        units = TCP_HANDSHAKE_UNITS if handshake else TCP_FIXED_UNITS
        units += TCP_SEG_UNITS * nsegs
        if self.cpu.params.kind == "phi":
            units = int(units * PHI_STACK_PENALTY)
        if self.jitter:
            units += int(self._rng.expovariate(1.0) * JITTER_SCALE * units)
        return units

    def tx_cost(self, core: Core, nsegs: int, handshake: bool = False) -> Delay:
        """Send path: stack processing on the calling core (a delay to
        ``yield``)."""
        return core.compute(self._stack_units(nsegs, handshake), "branchy")

    def rx_cost(self, core: Core, nsegs: int, handshake: bool = False) -> Generator:
        """Receive path: interrupt + softirq-serialized processing.

        The app ``core`` blocks for the duration; the softirq pays."""
        units = self._stack_units(nsegs, handshake)
        cost = int(units * self.cpu.params.branchy_mult)
        cost += self.cpu.params.interrupt_ns
        if (
            self.jitter
            and self.cpu.params.kind == "phi"
            and self._rng.random() < PHI_HICCUP_PROB
        ):
            cost += PHI_HICCUP_NS
        return self.softirq.using(cost)

    # ------------------------------------------------------------------
    # Socket operations
    # ------------------------------------------------------------------
    def listen(self, port: int, backlog: int = 128) -> "ListenSocket":
        if port in self._listeners:
            raise SimError(f"{self.name}: port {port} in use")
        sock = ListenSocket(self, port, backlog)
        self._listeners[port] = sock
        return sock

    def close_listener(self, port: int) -> None:
        self._listeners.pop(port, None)

    def alloc_port(self) -> int:
        self._next_port += 1
        return self._next_port

    # SYN retry schedule: a real stack retransmits before giving up,
    # which also absorbs races where the server's listen() lands a
    # moment after the client's first SYN.
    SYN_RETRIES = 5
    SYN_RETRY_NS = 200_000

    def connect(self, core: Core, addr: SocketAddr) -> Generator:
        """Three-way handshake; returns the client-side Connection."""
        peer = self.network.host(addr.host)
        listener = peer._listeners.get(addr.port)
        attempts = 0
        while listener is None and attempts < self.SYN_RETRIES:
            yield self.SYN_RETRY_NS
            attempts += 1
            listener = peer._listeners.get(addr.port)
        if listener is None:
            raise ConnectionRefusedError(f"{addr}: connection refused")
        wire = self.network.wire(self.name, addr.host)
        # SYN ->
        yield self.tx_cost(core, 1, handshake=True)
        yield from wire.send(self.name, 64)
        yield from peer.rx_cost(core, 1, handshake=True)
        # <- SYN/ACK
        yield from wire.send(addr.host, 64)
        yield from self.rx_cost(core, 1, handshake=True)
        # ACK -> (cost folded into first data exchange; wire only)
        yield from wire.send(self.name, 64)

        local = Connection(self, peer, wire, is_client=True)
        remote = Connection(peer, self, wire, is_client=False)
        local.peer_conn = remote
        remote.peer_conn = local
        local.local_addr = SocketAddr(self.name, self.alloc_port())
        local.remote_addr = addr
        remote.local_addr = addr
        remote.remote_addr = local.local_addr
        yield from listener.deliver(remote)
        return local


class ListenSocket:
    """A passive socket with an accept queue."""

    def __init__(self, host: TcpHost, port: int, backlog: int):
        self.host = host
        self.port = port
        self._queue = Store(host.engine, capacity=backlog)

    def deliver(self, conn: "Connection") -> Generator:
        yield self._queue.put(conn)

    def accept(self, core: Core) -> Generator:
        """Block for an inbound connection; returns a Connection."""
        yield core.syscall()
        conn = yield self._queue.get()
        yield from self.host.rx_cost(core, 1, handshake=True)
        return conn

    def pending(self) -> int:
        return len(self._queue)


class Connection:
    """One direction-pair endpoint of an established connection."""

    def __init__(self, host: TcpHost, peer: TcpHost, wire: Wire, is_client: bool):
        self.host = host
        self.peer = peer
        self.wire = wire
        self.is_client = is_client
        self.peer_conn: Optional["Connection"] = None
        self.local_addr: Optional[SocketAddr] = None
        self.remote_addr: Optional[SocketAddr] = None
        self._inbox: Store = Store(host.engine)
        self._tx_seq = 0
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------
    def send(self, core: Core, payload: Any, nbytes: int) -> Generator:
        """Reliable in-order delivery of one message."""
        if self._closed:
            raise BrokenPipeError("send on closed connection")
        if nbytes < 0:
            raise SimError(f"negative send size: {nbytes}")
        peer = self.peer_conn
        yield core.syscall()
        self._tx_seq += 1
        seg = Segment(self._tx_seq, nbytes, payload)
        yield self.host.tx_cost(core, seg.nsegs)
        yield from self.wire.send(self.host.name, max(64, nbytes))
        self.bytes_sent += nbytes
        yield peer._inbox.put(seg)

    def recv(self, core: Core) -> Generator:
        """Block for the next message; returns (payload, nbytes).

        Returns ``(None, 0)`` on a clean FIN from the peer.
        """
        yield core.syscall()
        seg: Segment = yield self._inbox.get()
        if seg.fin:
            self._closed = True
            self._unlink()
            return None, 0
        yield from self.host.rx_cost(core, seg.nsegs)
        yield core.memcpy_local(seg.nbytes)
        self.bytes_received += seg.nbytes
        return seg.payload, seg.nbytes

    def close(self, core: Core) -> Generator:
        """Send FIN; the peer's next recv returns EOF."""
        if self._closed:
            yield 0
            return
        self._closed = True
        peer = self.peer_conn
        yield core.syscall()
        yield self.host.tx_cost(core, 1)
        yield from self.wire.send(self.host.name, 64)
        yield peer._inbox.put(Segment(self._tx_seq + 1, 0, fin=True))
        if peer._closed:
            self._unlink()

    def _unlink(self) -> None:
        """Both ends have closed: drop the pair's links to each other,
        so the pair is freed by reference counting.  (A send or close
        still in flight holds its peer in a local.)"""
        peer = self.peer_conn
        if peer is not None:
            peer.peer_conn = None
            self.peer_conn = None

    @property
    def closed(self) -> bool:
        return self._closed
