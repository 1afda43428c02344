"""`repro.sched`: the control-plane QoS request scheduler.

The paper's control plane owns *global* knowledge — PCIe topology,
per-co-processor load, file access patterns (§4) — but the seed repo
used it only for the data-path policy: every RPC ring was drained FIFO
into a fixed worker pool, so one greedy co-processor could starve the
rest.  This subsystem sits between the RPC channels and the proxy
workers and turns that knowledge into scheduling:

* **Pluggable dispatch** (:mod:`repro.sched.policy`): FIFO (the
  baseline; arrival order, exactly what direct ring draining gives
  you), deficit-round-robin fair queueing per co-processor, and
  ``drr+priority`` (strict priority between classes, DRR within one)
  used by the QoS benchmark.
* **Admission control** (:mod:`repro.sched.scheduler`): bounded
  per-class queues and per-source credit windows; rejected requests
  surface to the data-plane stub as an ``EWOULDBLOCK``-style
  :class:`SchedRejected` carrying a retry-after hint, which the stub
  answers with bounded exponential backoff + jitter.
* **Overload shedding**: requests whose deadline expired while queued
  are dropped at dispatch time and answered with
  :class:`SchedDeadlineExceeded` instead of burning device bandwidth.
* **Elastic workers** (:mod:`repro.sched.workers`): the proxy worker
  pool grows against queue depth and shrinks after idling on the
  simulated clock, with an optional reserved worker that only serves
  the latency-critical class.
"""

from .policy import (
    DispatchPolicy,
    DrrPolicy,
    DrrPriorityPolicy,
    FifoPolicy,
    SCHED_POLICIES,
    make_policy,
)
from .qos import (
    CLASS_BULK,
    CLASS_NORMAL,
    CLASS_RT,
    Qos,
    QOS_BULK,
    QOS_NORMAL,
    QOS_RT,
    RetryPolicy,
    SchedDeadlineExceeded,
    SchedError,
    SchedRejected,
)
from .scheduler import RequestScheduler, SchedConfig, SchedRequest, SchedStats
from .workers import ElasticWorkerPool

__all__ = [
    "CLASS_BULK",
    "CLASS_NORMAL",
    "CLASS_RT",
    "DispatchPolicy",
    "DrrPolicy",
    "DrrPriorityPolicy",
    "ElasticWorkerPool",
    "FifoPolicy",
    "Qos",
    "QOS_BULK",
    "QOS_NORMAL",
    "QOS_RT",
    "RequestScheduler",
    "RetryPolicy",
    "SCHED_POLICIES",
    "SchedConfig",
    "SchedDeadlineExceeded",
    "SchedError",
    "SchedRejected",
    "SchedRequest",
    "SchedStats",
    "make_policy",
]
