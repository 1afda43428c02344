"""RPC over a pair of transport rings (§4.3.1, §4.4.1).

The data-plane OS is "a minimal RPC stub": every delegated system call
becomes one request message; the control-plane proxy pulls requests,
executes them, and pushes results back.

Ring placement follows the paper's file-system service: *both* master
rings live in co-processor memory, so the co-processor's enqueue (and
its response dequeue) are local memory operations while the fast host
processor does the PCIe crossing in both directions — exploiting the
initiator asymmetry of Figure 4.

Payloads are small control messages (tens of bytes): bulk data never
rides the RPC ring — the file-system service passes physical addresses
for zero-copy DMA instead (§4.3.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Optional, Sequence

from ..hw.cpu import CPU, Core
from ..hw.topology import Fabric
from ..obs.hub import hub_of
from ..obs.tracer import ctx_of
from ..sim.engine import Engine, Event, Interrupt, ProcessGroup, SimError
from .ringbuf import RingBuffer, RingPolicy

__all__ = [
    "RpcChannel", "RpcMessage", "RpcError", "RemoteCallError", "RpcTimeout",
]

DEFAULT_RING_BYTES = 1 << 20      # 1 MB control rings
DEFAULT_MSG_BYTES = 64            # typical RPC header size

# Server-side dedup cache: completed results (successes and final
# errors) remembered per channel.
DEDUP_CACHE_SIZE = 512


class RpcError(SimError):
    """Transport-level RPC failure."""


class RpcTimeout(SimError):
    """A call's response did not arrive within its timeout.

    Transient by construction: the request may have been lost before
    execution (proxy crash) or the response may still be in flight, so
    the caller re-issues with the same dedup sequence number and the
    server's result cache makes the retry idempotent.
    """

    errno_name = "ETIMEDOUT"
    transient = True

    def __init__(self, method: str, timeout_ns: int):
        super().__init__(f"rpc {method!r} timed out after {timeout_ns}ns")
        self.method = method
        self.timeout_ns = timeout_ns


class RemoteCallError(SimError):
    """The server handler raised; carries the original exception.

    ``cause`` is always the *innermost* failure: wrapping a
    RemoteCallError (e.g. a stub re-raising after retry exhaustion, or
    a proxy whose handler itself made a delegated call) flattens to
    the original cause, so callers never have to unwrap
    ``RemoteCallError(RemoteCallError(...))`` chains and
    ``errno_name`` always reflects the root failure.
    """

    def __init__(self, method: str, cause: BaseException):
        while isinstance(cause, RemoteCallError):
            cause = cause.cause
        super().__init__(f"remote {method!r} failed: {cause!r}")
        self.method = method
        self.cause = cause

    @property
    def errno_name(self) -> str:
        return getattr(self.cause, "errno_name", "EIO")


def _transient(error: BaseException) -> bool:
    """True for a failure a re-issue may not meet again, so not the
    op's result (``RetryPolicy.retryable``'s test, applied to the
    cause the client will see)."""
    if isinstance(error, RemoteCallError):
        error = error.cause
    return bool(getattr(error, "transient", False))


class RpcMessage:
    """One request or response frame.

    ``trace`` is the caller's span context (``repro.obs``), carried
    across the ring so server-side spans link into the client's trace
    tree; None when tracing is off.

    ``priority`` and ``deadline`` are the QoS fields read by the
    control-plane scheduler (``repro.sched``): a small class integer
    (0 = most urgent) and an absolute simulated-ns deadline (None =
    never shed).  Both ride the wire header, so a scheduler-less
    server simply ignores them.

    ``dedup`` is an optional idempotency sequence number: re-issues of
    one logical operation (after a timeout) carry the same number, and
    the server answers duplicates from its result cache instead of
    re-executing the handler.  None (the default) opts out.
    """

    __slots__ = (
        "req_id", "method", "payload", "size", "is_error", "trace",
        "priority", "deadline", "dedup",
    )

    def __init__(
        self,
        req_id: int,
        method: str,
        payload: Any,
        size: int,
        is_error: bool = False,
        trace=None,
        priority: int = 1,
        deadline: Optional[int] = None,
        dedup: Optional[int] = None,
    ):
        self.req_id = req_id
        self.method = method
        self.payload = payload
        self.size = size
        self.is_error = is_error
        self.trace = trace
        self.priority = priority
        self.deadline = deadline
        self.dedup = dedup

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Rpc #{self.req_id} {self.method} {self.size}B>"


class RpcChannel:
    """A request ring + response ring between a client (data-plane) and
    a server (control-plane)."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        client_cpu: CPU,
        server_cpu: CPU,
        policy: Optional[RingPolicy] = None,
        name: str = "rpc",
    ):
        self.engine = engine
        self.fabric = fabric
        self.client_cpu = client_cpu
        self.server_cpu = server_cpu
        self.name = name
        # Both masters at the client (co-processor) — see module doc.
        self.request_ring = RingBuffer(
            engine,
            fabric,
            DEFAULT_RING_BYTES,
            master_cpu=client_cpu,
            sender_cpu=client_cpu,
            receiver_cpu=server_cpu,
            policy=policy,
            name=f"{name}.req",
        )
        self.response_ring = RingBuffer(
            engine,
            fabric,
            DEFAULT_RING_BYTES,
            master_cpu=client_cpu,
            sender_cpu=server_cpu,
            receiver_cpu=client_cpu,
            policy=policy,
            name=f"{name}.resp",
        )
        self._next_id = 0
        self._pending: Dict[int, Event] = {}
        self._dispatcher: Optional[Any] = None
        self._servers = ProcessGroup(engine)
        self._running = True
        self.calls = 0
        # Fault injection + recovery (repro.faults).  All None/off by
        # default: the legacy path is bit-identical.
        self.faults = None                  # FaultInjector or None
        self.default_timeout_ns: Optional[int] = None
        self._dedup_seq = 0
        # Idempotency: (result, is_error) of completed requests by
        # dedup number, and those executing, each with the event its
        # duplicates wait on (None until the first duplicate arrives).
        self._dedup_done: "OrderedDict[int, tuple]" = OrderedDict()
        self._dedup_running: Dict[int, Optional[Event]] = {}
        obs = hub_of(engine)
        metrics = obs.metrics
        self.tracer = obs.tracer
        self._metered = obs.enabled
        self._g_inflight = metrics.gauge(f"rpc.{name}.inflight")
        self._m_calls = metrics.meter(f"rpc.{name}.calls")

    def set_faults(self, injector) -> None:
        """Wire a fault injector into the channel and both rings, and
        bound every call's wait by its plan's ``rpc_timeout_ns``."""
        self.faults = injector
        self.request_ring.faults = injector
        self.response_ring.faults = injector
        self.default_timeout_ns = injector.plan.rpc_timeout_ns

    def next_dedup(self) -> int:
        """A fresh idempotency sequence number for one logical call."""
        self._dedup_seq += 1
        return self._dedup_seq

    # ------------------------------------------------------------------
    # Client side (data-plane stub)
    # ------------------------------------------------------------------
    def start_client(self, core: Core) -> None:
        """Launch the client's response dispatcher on ``core``."""
        if self._dispatcher is not None:
            raise RpcError("client dispatcher already started")
        self._dispatcher = self.engine.spawn(
            self._client_dispatch(core), name=f"{self.name}.cdisp"
        )

    def call(
        self,
        core: Core,
        method: str,
        payload: Any = None,
        size: int = DEFAULT_MSG_BYTES,
        ctx=None,
        priority: int = 1,
        deadline: Optional[int] = None,
        dedup: Optional[int] = None,
        timeout_ns: Optional[int] = None,
    ) -> Generator:
        """Invoke ``method`` on the server; returns its result.

        Raises :class:`RemoteCallError` if the handler raised.
        ``ctx`` (a span context) links the call into the caller's trace.
        ``priority``/``deadline`` annotate the request for a scheduled
        server (ignored without a scheduler).

        ``timeout_ns`` (or the channel's ``default_timeout_ns``) bounds
        the wait for the response: on expiry the call raises
        :class:`RemoteCallError` with an :class:`RpcTimeout` cause and
        forgets the waiter (a late response is dropped by the
        dispatcher).  ``dedup`` tags the request so a post-timeout
        re-issue is idempotent at the server.
        """
        if self._dispatcher is None:
            raise RpcError("start_client() must be called first")
        if timeout_ns is None:
            timeout_ns = self.default_timeout_ns
        self._next_id += 1
        req_id = self._next_id
        done = self.engine.event()
        self._pending[req_id] = done
        self.calls += 1
        span = send_ctx = None
        if ctx is not None:
            span = self.tracer.child(
                f"rpc.{method}", "transport", ctx, core=core,
                channel=self.name, size=size,
            )
            send_ctx = ctx_of(span, ctx)
        if self._metered:
            self._g_inflight.add(1)
        msg = RpcMessage(
            req_id, method, payload, size, False, send_ctx, priority,
            deadline, dedup,
        )
        yield from self.request_ring.send(core, msg, size, ctx=send_ctx)
        if timeout_ns is None:
            response: RpcMessage = yield done
        else:
            which, value = yield self.engine.any_of(
                [done, self.engine.timeout(timeout_ns)]
            )
            if which != 0:
                self._pending.pop(req_id, None)
                if self._metered:
                    self._g_inflight.add(-1)
                if span is not None:
                    self.tracer.end(span, error=True, timeout=True)
                if self.faults is not None:
                    self.faults.rpc_timeout()
                raise RemoteCallError(method, RpcTimeout(method, timeout_ns))
            response = value
        if self._metered:
            self._g_inflight.add(-1)
            self._m_calls.add(size + response.size)
        if span is not None:
            self.tracer.end(span, error=response.is_error)
        if response.is_error:
            raise RemoteCallError(method, response.payload)
        return response.payload

    def _client_dispatch(self, core: Core) -> Generator:
        try:
            while self._running:
                msg: RpcMessage = yield from self.response_ring.recv(core)
                waiter = self._pending.pop(msg.req_id, None)
                if waiter is not None:
                    waiter.succeed(msg)
        except Interrupt:
            pass  # clean shutdown via stop()

    # ------------------------------------------------------------------
    # Server side (control-plane proxy)
    # ------------------------------------------------------------------
    def start_server(
        self,
        cores: Sequence[Core],
        handler: Callable[..., Generator],
        response_size: int = DEFAULT_MSG_BYTES,
        scheduler=None,
        source: Optional[str] = None,
    ) -> None:
        """Launch one ring-draining process per core.

        ``handler(core, method, payload, ctx)`` is a generator returning
        the result object; exceptions are shipped back to the caller.
        ``ctx`` is the request's span context (None when tracing is off).

        Without a ``scheduler`` each process is a proxy worker that
        executes requests in ring order.  With one (a
        ``repro.sched.RequestScheduler``) each process is a *puller*
        that submits requests tagged with ``source`` (the co-processor
        they come from); admission rejections are answered on the
        puller's core, and admitted requests execute later on the
        scheduler's shared worker pool via :meth:`serve_one`.
        """
        if not cores:
            raise RpcError("need at least one server core")
        kind = "srv"
        if scheduler is not None:
            kind = "pull"
            scheduler.register_source(source, self)
        for core in cores:
            self._servers.spawn(
                self._server_loop(
                    core, handler, response_size, scheduler, source
                ),
                f"{self.name}.{kind}{core.cid}",
            )

    def _server_loop(
        self,
        core: Core,
        handler: Callable[..., Generator],
        response_size: int,
        scheduler,
        source: Optional[str],
    ) -> Generator:
        try:
            while self._running:
                msg: RpcMessage = yield from self.request_ring.recv(core)
                if scheduler is None:
                    yield from self.serve_one(
                        core, msg, handler, response_size
                    )
                    continue
                verdict = scheduler.submit(
                    source, self, msg, handler, response_size
                )
                if verdict is not None:
                    yield from self.reply_error(
                        core, msg, verdict, response_size
                    )
        except Interrupt:
            pass  # clean shutdown via stop()

    def serve_one(
        self,
        core: Core,
        msg: RpcMessage,
        handler: Callable[..., Generator],
        response_size: int,
    ) -> Generator:
        """Execute one already-received request and ship its reply.

        This is the per-message body of the classic server loop, split
        out so a control-plane scheduler can receive in one process and
        execute in another (its worker pool) with identical semantics.
        """
        span = hctx = None
        if msg.trace is not None:
            span = self.tracer.child(
                f"rpc.serve.{msg.method}", "proxy", msg.trace, core=core,
                channel=self.name,
            )
            hctx = ctx_of(span, msg.trace)
        if self.faults is not None and self.faults.proxy_request(self.name):
            # Injected proxy crash: the request vanishes without a
            # reply.  The client recovers via timeout + re-issue.
            if span is not None:
                self.tracer.end(span, error=True, dropped=True)
            return
        dedup = msg.dedup
        outcome = None
        if dedup is not None:
            outcome = self._dedup_done.get(dedup)
            if outcome is None and dedup in self._dedup_running:
                # A re-issue of a request still executing (the client
                # timed out meanwhile): wait for the original instead
                # of running the handler a second time.
                original = self._dedup_running[dedup]
                if original is None:
                    original = Event(self.engine)
                    self._dedup_running[dedup] = original
                outcome = yield original
        if outcome is not None:
            # A duplicate: answer with the original's result.
            if self.faults is not None:
                self.faults.dedup_hit()
            result, is_error = outcome
        else:
            if dedup is not None:
                self._dedup_running[dedup] = None  # no duplicate yet
            is_error = False
            try:
                result = yield from handler(
                    core, msg.method, msg.payload, hctx
                )
            except Exception as error:  # noqa: BLE001 - shipped to caller
                result, is_error = error, True
            if dedup is not None:
                outcome = (result, is_error)
                original = self._dedup_running.pop(dedup)
                if original is not None:
                    original.succeed(outcome)
                # A transient failure is not the op's result: a later
                # re-issue runs the handler again.
                if not (is_error and _transient(result)):
                    self._dedup_done[dedup] = outcome
                    while len(self._dedup_done) > DEDUP_CACHE_SIZE:
                        self._dedup_done.popitem(last=False)
        reply = RpcMessage(
            msg.req_id, msg.method, result, response_size, is_error,
            msg.trace,
        )
        if span is not None:
            self.tracer.end(span, error=reply.is_error)
        yield from self.response_ring.send(
            core, reply, reply.size, ctx=msg.trace
        )

    def reply_error(
        self,
        core: Core,
        msg: RpcMessage,
        error: BaseException,
        response_size: int = DEFAULT_MSG_BYTES,
    ) -> Generator:
        """Answer ``msg`` with an error without running any handler.

        Used by the scheduler for admission rejections and shed
        requests: the client sees the same :class:`RemoteCallError`
        wrapping it would get from a raising handler.
        """
        reply = RpcMessage(
            msg.req_id, msg.method, error, response_size, True, msg.trace
        )
        yield from self.response_ring.send(
            core, reply, reply.size, ctx=msg.trace
        )

    # ------------------------------------------------------------------
    # Shutdown (tests / examples)
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Interrupt dispatcher and server loops."""
        self._running = False
        if self._dispatcher is not None:
            self._dispatcher.interrupt("rpc stop")
        self._servers.stop("rpc stop")
