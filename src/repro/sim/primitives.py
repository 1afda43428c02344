"""Synchronization primitives for simulation processes.

All primitives are strictly FIFO and deterministic: waiters are served
in arrival order, with ties broken by engine sequence numbers.  An
acquire (or a ``Store.put``) that is granted at once returns ``0``, so
the caller's ``yield`` resumes it at the current instant without an
event; one that must wait returns the event to wait on.

These model *software* synchronization at zero simulated cost; the
hardware-level cost of synchronization (cache-line transfers, atomic
instruction latency, PCIe transactions) is modelled separately in
:mod:`repro.hw.memory` and charged explicitly by the code under test.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Union

from .engine import Engine, Event, SimError

__all__ = ["Lock", "Semaphore", "Store", "Gate", "WouldBlock"]


class WouldBlock(SimError):
    """Raised by non-blocking operations that cannot proceed.

    This mirrors the paper's ``EWOULDBLOCK`` return from the transport
    ring buffer (§4.2.2): callers decide whether to retry.
    """


class Lock:
    """A FIFO mutual-exclusion lock."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Union[int, Event]:
        """Something to ``yield`` that resumes once the lock is held:
        ``0`` if it is taken at once, else an event."""
        if not self._locked and not self._waiters:
            self._locked = True
            return 0
        ev = Event(self.engine)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise SimError("release of unlocked Lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False

    def holding(self, duration: int) -> Generator:
        """Acquire, hold for ``duration`` ns, release.

        Usage: ``yield from lock.holding(100)``.
        """
        yield self.acquire()
        try:
            yield duration
        finally:
            self.release()


class Semaphore:
    """A counting semaphore with FIFO waiters."""

    def __init__(self, engine: Engine, value: int = 1):
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self.engine = engine
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Union[int, Event]:
        """``0`` if a unit is taken at once, else an event that
        succeeds once one is."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return 0
        ev = Event(self.engine)
        self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class Store:
    """A FIFO item queue (optionally bounded) between processes.

    ``put`` blocks when a bounded store is full; ``get`` blocks when
    empty.  ``try_put``/``try_get`` raise :class:`WouldBlock` instead of
    blocking, mirroring the paper's non-blocking ring-buffer interface.
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

    def try_put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        elif not self.full:
            self._items.append(item)
        else:
            raise WouldBlock("store full")

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        ev = self.engine.event()
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        if not self._items:
            raise WouldBlock("store empty")
        item = self._items.popleft()
        self._admit_putter()
        return item

    def peek(self) -> Any:
        if not self._items:
            raise WouldBlock("store empty")
        return self._items[0]

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()


class Gate:
    """A broadcast condition: processes wait; ``open()`` wakes them all.

    After ``open()`` the gate stays open (waiting returns immediately)
    until ``reset()``.  Used for things like device-ready and
    connection-established notifications.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._open = False
        self._waiters: list = []

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = self.engine.event()
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self, value: Any = None) -> None:
        if self._open:
            return
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)

    def reset(self) -> None:
        self._open = False
