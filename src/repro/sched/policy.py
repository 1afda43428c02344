"""Dispatch policies: the pluggable core of the request scheduler.

A policy is a pure queueing discipline over admitted
:class:`~repro.sched.scheduler.SchedRequest` objects — it decides
*order*, never admission or execution.  All policies are deterministic
(ties broken by submission sequence), which is what makes two runs
with the same seed produce identical decision traces.

``pop(max_class=...)`` supports class-filtered dequeue so the
worker pool can reserve a worker for the latency-critical class
(``max_class=CLASS_RT``): that worker never picks up bulk work and so
never head-of-line-blocks a foreground request behind a long scan.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..sim.engine import SimError

__all__ = [
    "DispatchPolicy",
    "FifoPolicy",
    "DrrPolicy",
    "DrrPriorityPolicy",
    "SCHED_POLICIES",
    "make_policy",
]

DEFAULT_DRR_QUANTUM = 256 * 1024  # bytes of service per DRR visit


class DispatchPolicy:
    """Interface every dispatch discipline implements."""

    name = "abstract"
    #: True when the policy distinguishes priority classes, enabling
    #: the pool's reserved-RT worker.
    class_aware = False

    def push(self, req) -> None:
        raise NotImplementedError

    def pop(self, max_class: Optional[int] = None):
        """Remove and return the next request, or None when (filtered)
        empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def class_depth(self, cls: int) -> int:
        """Queued requests of one class (classless policies report the
        total under every class)."""
        return len(self)


class FifoPolicy(DispatchPolicy):
    """Arrival order — exactly what direct ring draining gives you.

    This is the seed repo's behavior made explicit, and the baseline
    the QoS benchmark collapses: one backlogged co-processor's requests
    sit ahead of everyone else's.
    """

    name = "fifo"

    def __init__(self) -> None:
        self._q: Deque = deque()

    def push(self, req) -> None:
        self._q.append(req)

    def pop(self, max_class: Optional[int] = None):
        if not self._q:
            return None
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)


class DrrPolicy(DispatchPolicy):
    """Deficit round robin across sources (co-processors).

    Classic DRR (Shreedhar & Varghese): each *active* source holds a
    byte deficit; a visit adds ``quantum`` and serves head requests
    while the deficit covers their cost.  Costs are the request's I/O
    byte count, so a source issuing 512 KB scans gets the same byte
    share as one issuing 4 KB reads — per-co-processor fairness in
    bandwidth, not request count.
    """

    name = "drr"

    def __init__(self, quantum: int = DEFAULT_DRR_QUANTUM):
        if quantum < 1:
            raise SimError(f"bad DRR quantum: {quantum}")
        self.quantum = quantum
        self._queues: Dict[str, Deque] = {}
        self._deficit: Dict[str, int] = {}
        self._active: Deque[str] = deque()
        self._len = 0

    def push(self, req) -> None:
        q = self._queues.setdefault(req.source, deque())
        if not q:
            self._deficit[req.source] = 0
            self._active.append(req.source)
        q.append(req)
        self._len += 1

    def pop(self, max_class: Optional[int] = None):
        if not self._active:
            return None
        # Each full rotation adds a quantum to every active source, so
        # the loop terminates within cost/quantum rotations; the guard
        # only trips on a logic bug.
        for _ in range(len(self._active) * 64 + 8):
            source = self._active[0]
            q = self._queues[source]
            head = q[0]
            if self._deficit[source] >= head.cost:
                self._deficit[source] -= head.cost
                q.popleft()
                self._len -= 1
                if not q:
                    self._active.popleft()
                    self._deficit[source] = 0
                return head
            self._deficit[source] += self.quantum
            self._active.rotate(-1)
        raise SimError("DRR failed to converge (cost >> quantum * bound)")

    def __len__(self) -> int:
        return self._len


class DrrPriorityPolicy(DispatchPolicy):
    """Strict priority between classes, DRR across sources within one.

    The QoS benchmark's headline policy: the latency-critical class
    always dispatches first, and backlogged bulk tenants share the
    leftovers fairly by bytes.
    """

    name = "drr+priority"
    class_aware = True

    def __init__(self, quantum: int = DEFAULT_DRR_QUANTUM):
        self.quantum = quantum
        self._classes: Dict[int, DrrPolicy] = {}
        self._len = 0

    def push(self, req) -> None:
        ring = self._classes.get(req.cls)
        if ring is None:
            ring = self._classes[req.cls] = DrrPolicy(self.quantum)
        ring.push(req)
        self._len += 1

    def pop(self, max_class: Optional[int] = None):
        for cls in sorted(self._classes):
            if max_class is not None and cls > max_class:
                break
            req = self._classes[cls].pop()
            if req is not None:
                self._len -= 1
                return req
        return None

    def __len__(self) -> int:
        return self._len

    def class_depth(self, cls: int) -> int:
        ring = self._classes.get(cls)
        return len(ring) if ring else 0


SCHED_POLICIES = ("fifo", "drr", "drr+priority")


def make_policy(name: str) -> DispatchPolicy:
    """Instantiate a dispatch policy by config name."""
    if name == "fifo":
        return FifoPolicy()
    if name == "drr":
        return DrrPolicy()
    if name == "drr+priority":
        return DrrPriorityPolicy()
    raise SimError(
        f"unknown scheduler policy {name!r} (one of {SCHED_POLICIES})"
    )
