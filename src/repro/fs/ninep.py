"""Extended 9P protocol messages for the file-system RPC (§5).

The paper implements its file-system stub/proxy RPC by extending the
9P protocol (the diod server): notably ``Tread``/``Twrite`` carry the
*physical address* of co-processor memory instead of data, enabling
zero-copy transfers driven by the NVMe (or host) DMA engines.

Each message is an immutable ``NamedTuple`` record, built at tuple
cost and equal only to a message of its own class
(:mod:`repro.sim.record`).  ``wire_bytes`` accounts its on-ring size;
payload data never rides the RPC ring.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..sim.record import record

__all__ = [
    "Topen",
    "Tclunk",
    "Tread",
    "Twrite",
    "Tremove",
    "Tstat",
    "Tmkdir",
    "Treaddir",
    "Tfsync",
    "wire_bytes",
]


@record
class Topen(NamedTuple):
    path: str
    flags: int


@record
class Tclunk(NamedTuple):
    fid: int


@record
class Tread(NamedTuple):
    """Extended Tread: carries the co-processor's buffer address
    (here: its topology node + an opaque buffer id) for zero copy."""

    fid: int
    offset: int
    count: int
    target_node: str
    buffer_id: int = 0


@record(uncompared=("data",))
class Twrite(NamedTuple):
    """Extended Twrite: source address instead of inline data.

    ``data`` rides along functionally (the simulation's byte truth) but
    is not accounted as RPC bytes — the DMA engines move it.
    """

    fid: int
    offset: int
    count: int
    source_node: str
    buffer_id: int = 0
    data: Optional[bytes] = None


@record
class Tremove(NamedTuple):
    path: str


@record
class Tstat(NamedTuple):
    path: str


@record
class Tmkdir(NamedTuple):
    path: str


@record
class Treaddir(NamedTuple):
    path: str


@record
class Tfsync(NamedTuple):
    fid: int


_BASE = 24  # 9P header: size[4] type[1] tag[2] + alignment


def wire_bytes(msg) -> int:
    """Approximate on-ring size of a message (control only)."""
    size = _BASE
    for value in msg:
        if isinstance(value, str):
            size += 2 + len(value)
        elif isinstance(value, bytes):
            pass  # data moves by DMA, not on the ring
        else:
            size += 8
    return size
