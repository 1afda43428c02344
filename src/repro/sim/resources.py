"""Capacity-limited resources (DMA channels, device queues, links).

A :class:`Resource` models a pool of ``capacity`` identical service
slots with FIFO admission.  :class:`BandwidthLink` models a shared
channel where holding time is derived from transfer size, which is how
PCIe links, QPI, the NVMe data bus, and the Ethernet wire are modelled.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Union

from .engine import Engine, Event, SimError

__all__ = ["Resource", "BandwidthLink"]


class Resource:
    """A FIFO resource pool with ``capacity`` slots."""

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Union[int, Event]:
        """Something to ``yield`` that resumes once a slot is granted:
        ``0`` if it is granted at once, else an event."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return 0
        ev = Event(self.engine)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use == 0:
            raise SimError(f"release of idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def using(self, duration: int) -> Generator:
        """Hold one slot for ``duration`` ns.

        Usage: ``yield from resource.using(500)``.
        """
        yield self.request()
        try:
            yield duration
        finally:
            self.release()


class BandwidthLink:
    """A shared channel with fixed latency and finite bandwidth.

    A transfer of ``nbytes`` experiences the propagation ``latency_ns``
    once and then occupies one of ``channels`` lanes for
    ``nbytes / bytes_per_ns``.  With concurrent transfers the aggregate
    throughput converges to ``channels * bytes_per_ns`` — i.e. the link
    is work-conserving and FIFO per lane.
    """

    def __init__(
        self,
        engine: Engine,
        bytes_per_ns: float,
        latency_ns: int = 0,
        channels: int = 1,
        name: str = "",
    ):
        if bytes_per_ns <= 0:
            raise ValueError("bytes_per_ns must be positive")
        self.engine = engine
        self.bytes_per_ns = bytes_per_ns
        self.latency_ns = latency_ns
        self.name = name
        self._lanes = Resource(engine, capacity=channels, name=f"{name}.lanes")
        self._bytes_moved = 0

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved

    def occupancy_ns(self, nbytes: int) -> int:
        """Lane-holding time for a transfer of ``nbytes``."""
        return max(1, int(round(nbytes / self.bytes_per_ns)))

    def transfer(self, nbytes: int) -> Generator:
        """Move ``nbytes`` across the link; completes when delivered."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.latency_ns:
            yield self.latency_ns
        if nbytes:
            lanes = self._lanes
            occupancy = self.occupancy_ns(nbytes)
            yield lanes.request()
            try:
                yield occupancy
            finally:
                lanes.release()
            self._bytes_moved += nbytes

    # ------------------------------------------------------------------
    # Low-level lane control, used by the PCIe fabric to hold several
    # links of a cut-through path for an externally computed duration.
    # ------------------------------------------------------------------
    def acquire(self) -> Union[int, Event]:
        """Grab one lane (``0`` or an event to yield, as
        :meth:`Resource.request`); pair with :meth:`release`."""
        return self._lanes.request()

    def release(self) -> None:
        self._lanes.release()

    def note_bytes(self, nbytes: int) -> None:
        """Account bytes moved by an externally timed transfer."""
        self._bytes_moved += nbytes
