"""A FIFO item store between simulation processes.

:class:`Store` is strictly FIFO and deterministic: waiters are served
in arrival order, with ties broken by engine sequence numbers.  A
``put`` that does not block returns ``0``, so the caller's ``yield``
resumes it at the current instant without an event; one that must wait
returns the event to wait on.  Mutual exclusion and counting slots are
:class:`repro.sim.resources.Resource` (``capacity=1`` is a FIFO lock).

These model *software* synchronization at zero simulated cost; the
hardware-level cost of synchronization (cache-line transfers, atomic
instruction latency, PCIe transactions) is modelled separately in
:mod:`repro.hw.memory` and charged explicitly by the code under test.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Union

from .engine import Engine, Event, SimError

__all__ = ["Store", "WouldBlock"]


class WouldBlock(SimError):
    """Raised by non-blocking operations that cannot proceed.

    This mirrors the paper's ``EWOULDBLOCK`` return from the transport
    ring buffer (§4.2.2): callers decide whether to retry.
    """


class Store:
    """A FIFO item queue (optionally bounded) between processes.

    ``put`` blocks when a bounded store is full; ``get`` blocks when
    empty.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Union[int, Event]:
        """``0`` if the item is stored at once, else an event that
        succeeds once it is."""
        if self._getters:
            # Hand the item directly to the longest-waiting getter.
            self._getters.popleft().succeed(item)
            return 0
        if not self.full:
            self._items.append(item)
            return 0
        ev = Event(self.engine)
        self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        ev = self.engine.event()
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()
