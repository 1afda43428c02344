"""The Solros network service (§4.4): TCP stub, proxy, event channel.

Structure (Figure 7):

Each socket call is one typed message from ``net/packets.py`` (§4.4.1),
which the proxy dispatches by type.

* **Control path**: socket-initiating operations (``NetConnect``,
  ``NetListen``, ``NetCloseListener``) are RPCs from the data-plane
  stub to the host proxy.
* **Outbound data** (``NetSend``, ``NetClose``): enqueued on a ring
  *mastered at the co-processor* — the Phi's enqueue is a local memory
  operation and a host proxy worker pulls it across PCIe with host DMA
  engines.
* **Inbound data** (recv, accept events): the proxy enqueues events on
  a large ring *mastered at the host*; the co-processor's single-thread
  event dispatcher (§4.4.2) claims slots and routes them to per-socket
  queues, and the application thread itself copies the payload out
  (Phi DMA engines pull incoming data) — minimizing contention on the
  inbound ring while keeping data copies parallel.
* **Shared listening socket** (§4.4.3): multiple co-processors listen
  on one port; a pluggable balancer assigns each new connection (or,
  content-based, each first request) to a member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..core.dataplane import DataPlaneOS
from ..hw.cpu import CPU, Core
from ..obs.hub import hub_of
from ..sim.engine import Engine, Interrupt, ProcessGroup, SimError
from ..sim.primitives import Store
from ..transport.ringbuf import RingBuffer, RingPolicy
from ..transport.rpc import RpcChannel
from .balancer import LoadBalancer, RoundRobinBalancer
from .packets import (
    NetClose, NetCloseListener, NetConnect, NetListen, NetSend, SocketAddr,
)
from .tcp import Connection, Network, TcpHost

__all__ = ["SolrosNetProxy", "NetChannel", "NetEvent", "NetStats"]

EVENT_HDR_BYTES = 32
OUTBOUND_RING_BYTES = 8 << 20
INBOUND_RING_BYTES = 128 << 20   # §4.4.1: "large enough (e.g., 128 MB)"
PROXY_NET_UNITS = 300            # proxy bookkeeping per message
STUB_NET_UNITS = 350             # data-plane stub work per socket call


@dataclass
class NetEvent:
    """One record on the inbound event ring."""

    kind: str                    # 'accept' | 'data' | 'eof'
    sock_id: int
    payload: Any = None
    nbytes: int = 0
    port: int = 0                # for 'accept': the shared port
    peer: Optional[SocketAddr] = None


class NetStats:
    def __init__(self) -> None:
        self.accepts = 0
        self.messages_out = 0
        self.messages_in = 0
        self.bytes_out = 0
        self.bytes_in = 0


class _ProxySock:
    """Host-side state of one delegated socket."""

    __slots__ = ("sock_id", "conn", "phi_index", "feeder")

    def __init__(self, sock_id: int, conn: Connection, phi_index: int):
        self.sock_id = sock_id
        self.conn = conn
        self.phi_index = phi_index
        self.feeder = None


class _SharedListener:
    """One shared listening socket: host listener + member planes."""

    def __init__(self, port: int, balancer: LoadBalancer):
        self.port = port
        self.balancer = balancer
        self.members: List[int] = []      # phi indices
        self.accept_loop = None
        self.listen_socket = None


class NetChannel:
    """Per-co-processor transport: control RPC + data rings."""

    def __init__(
        self,
        engine: Engine,
        fabric,
        phi_cpu: CPU,
        host_cpu: CPU,
        policy: Optional[RingPolicy] = None,
        name: str = "net",
    ):
        self.engine = engine
        self.phi_cpu = phi_cpu
        self.host_cpu = host_cpu
        self.rpc = RpcChannel(
            engine, fabric, client_cpu=phi_cpu, server_cpu=host_cpu,
            policy=policy, name=f"{name}.rpc",
        )
        # Outbound: co-processor sends; master at the co-processor.
        self.outbound = RingBuffer(
            engine, fabric, OUTBOUND_RING_BYTES,
            master_cpu=phi_cpu, sender_cpu=phi_cpu, receiver_cpu=host_cpu,
            policy=policy, name=f"{name}.out",
        )
        # Inbound: host sends events; master at the host.
        self.inbound = RingBuffer(
            engine, fabric, INBOUND_RING_BYTES,
            master_cpu=host_cpu, sender_cpu=host_cpu, receiver_cpu=phi_cpu,
            policy=policy, name=f"{name}.in",
        )
        # Data-plane routing state (owned by the event dispatcher).
        self.sock_stores: Dict[int, Store] = {}
        self.listener_stores: Dict[int, Store] = {}
        self.dispatcher = None
        self.tracer = hub_of(engine).tracer

    def route_store(self, sock_id: int) -> Store:
        store = self.sock_stores.get(sock_id)
        if store is None:
            store = Store(self.engine)
            self.sock_stores[sock_id] = store
        return store


class SolrosNetProxy:
    """The control-plane network service."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        host_tcp: TcpHost,
        host_cpu: CPU,
        fabric,
        ring_policy: Optional[RingPolicy] = None,
        workers_per_channel: int = 2,
        scheduler=None,
    ):
        self.engine = engine
        self.network = network
        self.host_tcp = host_tcp
        self.host_cpu = host_cpu
        self.fabric = fabric
        self.ring_policy = ring_policy
        self.workers_per_channel = workers_per_channel
        # Optional control-plane scheduler (repro.sched): when set, the
        # control RPCs of every attached channel are admitted/dispatched
        # through it instead of a dedicated per-channel server loop.
        self.scheduler = scheduler
        self.stats = stats = NetStats()
        self.socks: Dict[int, _ProxySock] = {}
        self.channels: Dict[int, NetChannel] = {}
        self.listeners: Dict[int, _SharedListener] = {}
        self.loads: Dict[int, int] = {}  # phi_index -> active conns
        self._next_sock = 0
        self._procs = ProcessGroup(engine)
        self._running = True
        self._worker_core_base = 8
        obs = hub_of(engine)
        self.tracer = obs.tracer
        obs.metrics.view(
            "net.outbound", lambda: (stats.bytes_out, stats.messages_out)
        )
        obs.metrics.view(
            "net.inbound", lambda: (stats.bytes_in, stats.messages_in)
        )

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, dataplane: DataPlaneOS) -> "SolrosNetApi":
        """Create the per-co-processor channel and start its workers.

        Returns the data-plane socket API (also set as
        ``dataplane.net``).
        """
        from .socket_api import SolrosNetApi  # circular by design

        phi_index = dataplane.phi_index
        if phi_index in self.channels:
            raise SimError(f"phi{phi_index} already attached to net service")
        channel = NetChannel(
            self.engine,
            self.fabric,
            dataplane.cpu,
            self.host_cpu,
            policy=self.ring_policy,
            name=f"net.phi{phi_index}",
        )
        self.channels[phi_index] = channel
        self.loads[phi_index] = 0
        # Fault injection (repro.faults): the net channel inherits the
        # control plane's injector so proxy crash/restart and ring
        # faults cover the network service too.  The net stub has no
        # retry loop, so a timeout surfaces at the socket API as
        # RemoteCallError(ETIMEDOUT).
        injector = getattr(dataplane.control, "faults", None)
        if injector is not None:
            channel.rpc.set_faults(injector)
            channel.outbound.faults = injector
            channel.inbound.faults = injector

        # Control RPC servicing.
        channel.rpc.start_client(dataplane.cpu.cores[-2])
        rpc_core = self.host_cpu.core(self._alloc_core())
        channel.rpc.start_server(
            [rpc_core],
            lambda core, method, payload, ctx: self._rpc(
                core, phi_index, payload
            ),
            scheduler=self.scheduler,
            source=f"net.phi{phi_index}",
        )

        # Outbound pullers (host DMA engines pull outgoing data).
        for _ in range(self.workers_per_channel):
            core = self.host_cpu.core(self._alloc_core())
            self._procs.spawn(self._outbound_worker(core, channel), "net-out")

        # Data-plane event dispatcher (§4.4.2): single thread.
        dispatcher_core = dataplane.cpu.cores[-3]
        channel.dispatcher = self._procs.spawn(
            self._event_dispatcher(dispatcher_core, channel), "net-disp"
        )

        api = SolrosNetApi(self, channel, dataplane, phi_index)
        dataplane.net = api
        return api

    def _alloc_core(self) -> int:
        core = self._worker_core_base % len(self.host_cpu.cores)
        self._worker_core_base += 1
        return core

    # ------------------------------------------------------------------
    # Control RPC (connect / listen / close_listener)
    # ------------------------------------------------------------------
    def _rpc(self, core: Core, phi_index: int, msg: Any) -> Generator:
        if isinstance(msg, NetConnect):
            return (yield from self._connect(core, phi_index, msg.addr))
        if isinstance(msg, NetListen):
            return (yield from self._listen(core, phi_index, msg.port, msg.balancer))
        if isinstance(msg, NetCloseListener):
            return (yield from self._close_listener(core, phi_index, msg.port))
        raise SimError(f"unknown net RPC: {msg!r}")

    def _connect(
        self, core: Core, phi_index: int, addr: SocketAddr
    ) -> Generator:
        conn = yield from self.host_tcp.connect(core, addr)
        return self._register(conn, phi_index)

    def _register(self, conn: Connection, phi_index: int) -> int:
        self._next_sock += 1
        sock_id = self._next_sock
        psock = _ProxySock(sock_id, conn, phi_index)
        self.socks[sock_id] = psock
        self.loads[phi_index] += 1
        core = self.host_cpu.core(self._alloc_core())
        psock.feeder = self._procs.spawn(
            self._inbound_feeder(core, psock), f"net-feed{sock_id}"
        )
        return sock_id

    def _listen(
        self,
        core: Core,
        phi_index: int,
        port: int,
        balancer: Optional[LoadBalancer],
    ) -> Generator:
        shared = self.listeners.get(port)
        if shared is None:
            shared = _SharedListener(port, balancer or RoundRobinBalancer())
            shared.listen_socket = self.host_tcp.listen(port)
            self.listeners[port] = shared
            accept_core = self.host_cpu.core(self._alloc_core())
            shared.accept_loop = self._procs.spawn(
                self._accept_loop(accept_core, shared), f"net-accept{port}"
            )
        if phi_index not in shared.members:
            shared.members.append(phi_index)
        yield 0

    def _close_listener(self, core: Core, phi_index: int, port: int) -> Generator:
        shared = self.listeners.get(port)
        if shared and phi_index in shared.members:
            shared.members.remove(phi_index)
            if not shared.members:
                self.host_tcp.close_listener(port)
                if shared.accept_loop is not None:
                    shared.accept_loop.interrupt("listener closed")
                del self.listeners[port]
        yield 0

    # ------------------------------------------------------------------
    # Host-side workers
    # ------------------------------------------------------------------
    def _accept_loop(self, core: Core, shared: _SharedListener) -> Generator:
        try:
            while self._running:
                conn = yield from shared.listen_socket.accept(core)
                if not shared.members:
                    yield from conn.close(core)
                    continue
                if shared.balancer.content_based:
                    # Defer the decision until the first request arrives.
                    self._procs.spawn(
                        self._content_assign(core, shared, conn), "net-content"
                    )
                    continue
                loads = [self.loads[i] for i in shared.members]
                member = shared.balancer.pick(shared.members, loads)
                yield from self._assign(core, shared, conn, shared.members[member])
        except Interrupt:
            pass

    def _content_assign(
        self, core: Core, shared: _SharedListener, conn: Connection
    ) -> Generator:
        try:
            payload, nbytes = yield from conn.recv(core)
            if payload is None:
                yield from conn.close(core)
                return
            loads = [self.loads[i] for i in shared.members]
            member = shared.balancer.pick(shared.members, loads, payload)
            phi_index = shared.members[member]
            sock_id = yield from self._assign(core, shared, conn, phi_index)
            # Forward the first request right behind the accept event.
            channel = self.channels[phi_index]
            yield from channel.inbound.send(
                core,
                NetEvent("data", sock_id, payload, nbytes),
                nbytes + EVENT_HDR_BYTES,
            )
            self.stats.messages_in += 1
            self.stats.bytes_in += nbytes
        except Interrupt:
            pass

    def _assign(
        self,
        core: Core,
        shared: _SharedListener,
        conn: Connection,
        phi_index: int,
    ) -> Generator:
        sock_id = self._register(conn, phi_index)
        self.stats.accepts += 1
        channel = self.channels[phi_index]
        yield from channel.inbound.send(
            core,
            NetEvent(
                "accept", sock_id, port=shared.port, peer=conn.remote_addr
            ),
            EVENT_HDR_BYTES,
        )
        return sock_id

    def _outbound_worker(self, core: Core, channel: NetChannel) -> Generator:
        """Pull NetSend/NetClose records off the outbound ring."""
        try:
            while self._running:
                msg = yield from channel.outbound.recv(core)
                yield core.compute(PROXY_NET_UNITS, "branchy")
                if isinstance(msg, NetSend):
                    psock = self.socks.get(msg.sock_id)
                    if psock is None:
                        continue  # raced with close
                    nbytes = msg.nbytes
                    span = None
                    if msg.trace is not None:
                        span = self.tracer.child(
                            "net.tcp_send", "net", msg.trace, core=core,
                            nbytes=nbytes,
                        )
                    yield from psock.conn.send(core, msg.payload, nbytes)
                    if span is not None:
                        self.tracer.end(span)
                    self.stats.messages_out += 1
                    self.stats.bytes_out += nbytes
                elif isinstance(msg, NetClose):
                    psock = self.socks.get(msg.sock_id)
                    if psock is not None:  # None: raced with close
                        yield from psock.conn.close(core)
                        self._teardown(psock)
                else:
                    raise SimError(f"unknown net ring record: {msg!r}")
        except Interrupt:
            pass

    def _inbound_feeder(self, core: Core, psock: _ProxySock) -> Generator:
        """One per connection: host TCP recv → inbound event ring."""
        try:
            channel = self.channels[psock.phi_index]
            while self._running:
                payload, nbytes = yield from psock.conn.recv(core)
                yield core.compute(PROXY_NET_UNITS, "branchy")
                if payload is None and nbytes == 0:
                    yield from channel.inbound.send(
                        core, NetEvent("eof", psock.sock_id), EVENT_HDR_BYTES
                    )
                    self._teardown(psock)
                    return
                yield from channel.inbound.send(
                    core,
                    NetEvent("data", psock.sock_id, payload, nbytes),
                    nbytes + EVENT_HDR_BYTES,
                )
                self.stats.messages_in += 1
                self.stats.bytes_in += nbytes
        except Interrupt:
            pass

    def _teardown(self, psock: _ProxySock) -> None:
        if psock.sock_id in self.socks:
            del self.socks[psock.sock_id]
            self.loads[psock.phi_index] -= 1

    # ------------------------------------------------------------------
    # Data-plane event dispatcher (§4.4.2)
    # ------------------------------------------------------------------
    def _event_dispatcher(self, core: Core, channel: NetChannel) -> Generator:
        """Single thread: claim inbound slots, route to per-socket
        queues.  The *application* thread copies the data out, so data
        access parallelizes while ring contention stays minimal."""
        try:
            while self._running:
                slot = yield from channel.inbound.dequeue_blocking(core)
                event: NetEvent = slot.data
                yield core.compute(STUB_NET_UNITS // 2, "branchy")
                if event.kind == "accept":
                    # Tiny record: consume it here.
                    yield from channel.inbound.drain(core, slot)
                    store = channel.listener_stores.get(event.port)
                    if store is not None:
                        yield store.put(event)
                else:
                    # Route the slot; the app thread copies + releases.
                    yield channel.route_store(event.sock_id).put((event, slot))
        except Interrupt:
            pass

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop every service process: each worker body ends quietly on
        the Interrupt this delivers."""
        self._running = False
        self._procs.stop("net stop")
        for channel in self.channels.values():
            channel.rpc.stop()
