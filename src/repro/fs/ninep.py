"""Extended 9P protocol messages for the file-system RPC (§5).

The paper implements its file-system stub/proxy RPC by extending the
9P protocol (the diod server): notably ``Tread``/``Twrite`` carry the
*physical address* of co-processor memory instead of data, enabling
zero-copy transfers driven by the NVMe (or host) DMA engines.

Messages here are small dataclasses with a ``wire_bytes`` accounting
of their on-ring size; payload data never rides the RPC ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass(frozen=True)
class Topen:
    path: str
    flags: int


@dataclass(frozen=True)
class Tclunk:
    fid: int


@dataclass(frozen=True)
class Tread:
    """Extended Tread: carries the co-processor's buffer address
    (here: its topology node + an opaque buffer id) for zero copy."""

    fid: int
    offset: int
    count: int
    target_node: str
    buffer_id: int = 0


@dataclass(frozen=True)
class Twrite:
    """Extended Twrite: source address instead of inline data.

    ``data`` rides along functionally (the simulation's byte truth) but
    is not accounted as RPC bytes — the DMA engines move it.
    """

    fid: int
    offset: int
    count: int
    source_node: str
    buffer_id: int = 0
    data: Optional[bytes] = field(default=None, compare=False)


@dataclass(frozen=True)
class Tremove:
    path: str


@dataclass(frozen=True)
class Tstat:
    path: str


@dataclass(frozen=True)
class Tmkdir:
    path: str


@dataclass(frozen=True)
class Treaddir:
    path: str


@dataclass(frozen=True)
class Tfsync:
    fid: int


_BASE = 24  # 9P header: size[4] type[1] tag[2] + alignment


def wire_bytes(msg) -> int:
    """Approximate on-ring size of a message (control only)."""
    size = _BASE
    for name in getattr(msg, "__dataclass_fields__", {}):
        value = getattr(msg, name)
        if isinstance(value, str):
            size += 2 + len(value)
        elif isinstance(value, bytes):
            pass  # data moves by DMA, not on the ring
        else:
            size += 8
    return size
