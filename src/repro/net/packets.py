"""Wire-level message records: TCP segments, and one ``Net*`` message
per data-plane socket call (§4.4.1), as ``fs/ninep.py`` has one ``T*``
per 9P op.  ``NetConnect``/``NetListen``/``NetCloseListener`` are
control RPCs; ``NetSend``/``NetClose`` ride the outbound ring.

The ``Net*`` messages and ``SocketAddr`` are immutable ``NamedTuple``
records, like the ``T*`` messages (:mod:`repro.sim.record`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from ..sim.record import record

if TYPE_CHECKING:
    from ..obs.tracer import SpanContext
    from .balancer import LoadBalancer

__all__ = [
    "Segment", "SocketAddr", "MSS",
    "NetConnect", "NetListen", "NetCloseListener", "NetSend", "NetClose",
]

MSS = 1460  # TCP payload per segment (Ethernet MTU 1500 - headers)


@record
class SocketAddr(NamedTuple):
    """(host, port) endpoint address."""

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.host}:{self.port}"


@dataclass
class Segment:
    """One logical message on a connection (1..n MSS segments).

    The simulation moves whole send()-payloads as units but accounts
    per-segment processing costs at both stacks, so message size and
    segmentation costs behave like a real stack without simulating
    every 1460-byte frame as a separate event.
    """

    seq: int
    nbytes: int
    payload: Any = None
    fin: bool = False

    @property
    def nsegs(self) -> int:
        return max(1, (self.nbytes + MSS - 1) // MSS)


@record
class NetConnect(NamedTuple):
    addr: SocketAddr


@record
class NetListen(NamedTuple):
    """Join the shared listening socket on ``port``; the first member's
    ``balancer`` (None: round-robin) fixes the policy."""

    port: int
    balancer: Optional[LoadBalancer] = None


@record
class NetCloseListener(NamedTuple):
    port: int


@record
class NetSend(NamedTuple):
    sock_id: int
    payload: Any
    nbytes: int
    trace: Optional[SpanContext] = None


@record
class NetClose(NamedTuple):
    sock_id: int
