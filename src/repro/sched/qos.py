"""QoS vocabulary shared by the stub (client) and scheduler (server).

A request's class rides the RPC message as a small integer priority
(0 is most urgent) plus an optional absolute deadline in simulated
nanoseconds.  The scheduler's admission verdicts are exceptions so
they travel the existing error-reply path of :mod:`repro.transport.rpc`
unchanged: the stub sees a :class:`RemoteCallError` whose ``cause`` is
one of the classes below and reacts accordingly (backoff-and-retry for
:class:`SchedRejected`, propagate for :class:`SchedDeadlineExceeded`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.engine import SimError

__all__ = [
    "CLASS_RT",
    "CLASS_NORMAL",
    "CLASS_BULK",
    "Qos",
    "QOS_RT",
    "QOS_NORMAL",
    "QOS_BULK",
    "RetryPolicy",
    "SchedError",
    "SchedRejected",
    "SchedDeadlineExceeded",
    "clamp_class",
]

# Priority classes (lower number = more urgent).
CLASS_RT = 0        # latency-critical foreground traffic
CLASS_NORMAL = 1    # ordinary delegated I/O (the default)
CLASS_BULK = 2      # background scans / best-effort bulk

_N_CLASSES = 3


def clamp_class(priority: int) -> int:
    """Map an arbitrary priority integer onto a known class."""
    return min(max(int(priority), CLASS_RT), CLASS_BULK)


@dataclass(frozen=True)
class Qos:
    """Per-tenant service parameters attached to a stub.

    ``deadline_ns`` is *relative*: the stub stamps each RPC with
    ``engine.now + deadline_ns`` at issue time.  ``None`` means no
    deadline (the request is never shed).
    """

    priority: int = CLASS_NORMAL
    deadline_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if not CLASS_RT <= self.priority <= CLASS_BULK:
            raise ValueError(
                f"priority {self.priority!r} is outside the class range "
                f"[{CLASS_RT}, {CLASS_BULK}]"
            )


QOS_RT = Qos(priority=CLASS_RT)
QOS_NORMAL = Qos(priority=CLASS_NORMAL)
QOS_BULK = Qos(priority=CLASS_BULK)


class SchedError(SimError):
    """Base class for scheduler admission verdicts."""


class SchedRejected(SchedError):
    """Admission control refused the request (queue full / no credit).

    The paper's transport expresses this as ``EWOULDBLOCK``; here the
    verdict additionally carries ``retry_after_ns``, the control
    plane's own estimate of when capacity frees up, which the stub
    uses as the base of its backoff.
    """

    transient = True  # safe to re-issue (nothing executed)

    def __init__(self, reason: str, retry_after_ns: int = 2_000):
        super().__init__(f"admission rejected: {reason}")
        self.reason = reason
        self.retry_after_ns = retry_after_ns


class SchedDeadlineExceeded(SchedError):
    """The request's deadline expired while queued; it was shed."""

    def __init__(self, deadline: int, now: int):
        super().__init__(f"deadline {deadline} expired at {now}")
        self.deadline = deadline
        self.now = now


class RetryPolicy:
    """Bounded exponential backoff with jitter for transient RPC
    failures.

    Deterministic given a seeded RNG: delay for attempt ``k`` is drawn
    uniformly from the upper half of ``min(max_ns, base << k)`` where
    ``base`` is the larger of the policy's floor and the scheduler's
    retry-after hint — and the result is always clamped to ``max_ns``,
    even when the hint itself exceeds the cap.
    """

    def __init__(
        self,
        base_ns: int = 2_000,
        max_ns: int = 2_000_000,
        max_tries: int = 10,
    ):
        if base_ns < 1 or max_ns < base_ns or max_tries < 1:
            raise ValueError("bad retry policy parameters")
        self.base_ns = base_ns
        self.max_ns = max_ns
        self.max_tries = max_tries

    def retryable(self, cause: BaseException) -> bool:
        """Is re-issuing after this failure safe and useful?

        True for admission pushback (:class:`SchedRejected`) and for
        any cause marked ``transient`` (RPC timeouts, injected device
        errors — see ``repro.faults``); everything else, including
        :class:`SchedDeadlineExceeded`, propagates immediately.
        """
        return bool(getattr(cause, "transient", False))

    def delay(self, attempt: int, rng, hint_ns: Optional[int] = None) -> int:
        base = max(self.base_ns, min(int(hint_ns or 0), self.max_ns))
        ceiling = min(self.max_ns, base << min(attempt, 20))
        half = max(1, ceiling // 2)
        return min(self.max_ns, half + rng.randrange(half + 1))
