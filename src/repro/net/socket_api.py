"""Data-plane socket API: what co-processor applications program to.

The paper keeps a one-to-one mapping between socket system calls and
RPC/ring messages (§4.4.1); this module is that socket layer.  Each
call sends one typed message from ``net/packets.py``:
``connect``/``listen`` go over the control RPC, ``send``/``close``
ride the outbound ring, and ``recv``/``accept`` consume events the
dispatcher routed to per-socket queues — with the application thread
itself pulling payload bytes off the inbound ring (rb_copy_from_rb_buf
+ rb_set_done, one ``RingBuffer.drain``), so copies parallelize across
threads.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..hw.cpu import Core
from ..sched.qos import QOS_NORMAL, Qos
from ..sim.engine import SimError
from ..sim.primitives import Store
from .balancer import LoadBalancer
from .packets import (
    NetClose, NetCloseListener, NetConnect, NetListen, NetSend, SocketAddr,
)
from .service import (
    EVENT_HDR_BYTES,
    STUB_NET_UNITS,
    NetChannel,
    NetEvent,
    SolrosNetProxy,
)

__all__ = ["SolrosNetApi", "SolrosSocket", "SolrosListener"]


class SolrosNetApi:
    """Per-co-processor network service handle (``dataplane.net``)."""

    def __init__(
        self,
        proxy: SolrosNetProxy,
        channel: NetChannel,
        dataplane,
        phi_index: int,
        qos: Optional[Qos] = None,
    ):
        self.proxy = proxy
        self.channel = channel
        self.dataplane = dataplane
        self.phi_index = phi_index
        # QoS for control RPCs when the proxy routes them through a
        # control-plane scheduler; mutable so a tenant can reprioritize.
        self.qos = qos or QOS_NORMAL

    def _qos_kwargs(self) -> dict:
        deadline = None
        if self.qos.deadline_ns is not None:
            deadline = self.channel.engine.now + self.qos.deadline_ns
        return {"priority": self.qos.priority, "deadline": deadline}

    # ------------------------------------------------------------------
    # Socket creation
    # ------------------------------------------------------------------
    def connect(self, core: Core, addr: SocketAddr) -> Generator:
        """Open an outbound connection; returns a SolrosSocket."""
        tracer = self.channel.tracer
        span = ctx = None
        if tracer.enabled:
            span = tracer.root("net.connect", "net", core=core)
            ctx = span.ctx()
        try:
            yield core.syscall()
            yield core.compute(STUB_NET_UNITS, "branchy")
            sock_id = yield from self.channel.rpc.call(
                core, "net", NetConnect(addr), ctx=ctx, **self._qos_kwargs()
            )
            return SolrosSocket(self, sock_id)
        finally:
            if span is not None:
                tracer.end(span)

    def listen(
        self,
        core: Core,
        port: int,
        balancer: Optional[LoadBalancer] = None,
    ) -> Generator:
        """Join the shared listening socket on ``port`` (§4.4.3).

        The first co-processor to listen creates it (optionally fixing
        the balancing policy); later members just join.
        """
        yield core.syscall()
        yield core.compute(STUB_NET_UNITS, "branchy")
        if port in self.channel.listener_stores:
            raise SimError(f"phi{self.phi_index} already listening on {port}")
        # Registered before the call: an accept event that arrives while
        # no store exists is dropped.
        self.channel.listener_stores[port] = Store(self.channel.engine)
        try:
            yield from self.channel.rpc.call(
                core, "net", NetListen(port, balancer), **self._qos_kwargs()
            )
        except BaseException:
            # A failed (e.g. timed-out) listen must stay retryable.
            self.channel.listener_stores.pop(port, None)
            raise
        return SolrosListener(self, port)

    def close_listener(self, core: Core, port: int) -> Generator:
        yield core.syscall()
        yield from self.channel.rpc.call(
            core, "net", NetCloseListener(port), **self._qos_kwargs()
        )
        # Dropped only once the proxy has let go: a failed (e.g.
        # timed-out) close keeps the plane a member, so its accepts
        # still need the store, and the close stays retryable.
        self.channel.listener_stores.pop(port, None)


class SolrosListener:
    """The data-plane view of a shared listening socket."""

    def __init__(self, api: SolrosNetApi, port: int):
        self.api = api
        self.port = port

    def accept(self, core: Core) -> Generator:
        """Block for a connection assigned to this co-processor."""
        yield core.syscall()
        store = self.api.channel.listener_stores.get(self.port)
        if store is None:
            raise SimError(f"not listening on {self.port}")
        event: NetEvent = yield store.get()
        yield core.compute(STUB_NET_UNITS, "branchy")
        sock = SolrosSocket(self.api, event.sock_id, peer=event.peer)
        return sock


class SolrosSocket:
    """One delegated TCP socket on the data plane."""

    def __init__(
        self,
        api: SolrosNetApi,
        sock_id: int,
        peer: Optional[SocketAddr] = None,
    ):
        self.api = api
        self.sock_id = sock_id
        self.peer = peer
        self._closed = False
        self._eof = False

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def send(self, core: Core, payload: Any, nbytes: int) -> Generator:
        """Enqueue outbound data (local ring op; host pulls it)."""
        if self._closed:
            raise BrokenPipeError("send on closed socket")
        if nbytes < 0:
            raise SimError(f"negative send size: {nbytes}")
        tracer = self.api.channel.tracer
        span = ctx = None
        if tracer.enabled:
            span = tracer.root("net.send", "net", core=core, nbytes=nbytes)
            ctx = span.ctx()
        try:
            yield core.syscall()
            yield core.compute(STUB_NET_UNITS, "branchy")
            yield from self.api.channel.outbound.send(
                core,
                NetSend(self.sock_id, payload, nbytes, ctx),
                nbytes + EVENT_HDR_BYTES,
                ctx=ctx,
            )
        finally:
            if span is not None:
                tracer.end(span)

    def recv(self, core: Core) -> Generator:
        """Block for the next message; ``(None, 0)`` on EOF.

        The payload copy happens here, on the application's core,
        pulling from the inbound ring (Phi-initiated, adaptive copy).
        """
        if self._eof:
            return None, 0
        tracer = self.api.channel.tracer
        span = None
        if tracer.enabled:
            span = tracer.root("net.recv", "net", core=core)
        yield core.syscall()
        store = self.api.channel.route_store(self.sock_id)
        event, slot = yield store.get()
        yield core.compute(STUB_NET_UNITS, "branchy")
        if span is not None and slot.trace is None:
            # Inbound events carry no sender context; adopt ours so the
            # copy-out phase appears under this recv.
            slot.trace = span.ctx()
        yield from self.api.channel.inbound.drain(core, slot)
        if span is not None:
            tracer.end(span, nbytes=event.nbytes, kind=event.kind)
        if event.kind == "eof":
            self._eof = True
            self.api.channel.sock_stores.pop(self.sock_id, None)
            return None, 0
        return event.payload, event.nbytes

    def close(self, core: Core) -> Generator:
        """Half-close: FIN flows out through the outbound ring, in
        order behind any pending sends."""
        if self._closed:
            yield 0
            return
        self._closed = True
        yield core.syscall()
        yield from self.api.channel.outbound.send(
            core, NetClose(self.sock_id), EVENT_HDR_BYTES
        )
