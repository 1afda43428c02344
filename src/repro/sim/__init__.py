"""Deterministic discrete-event simulation kernel.

Submodules:

* :mod:`repro.sim.engine` — the event loop, processes, process groups,
  events.
* :mod:`repro.sim.primitives` — locks, semaphores, stores, gates.
* :mod:`repro.sim.resources` — capacity pools and bandwidth links.
* :mod:`repro.sim.stats` — percentiles, CDFs, throughput meters.
"""

from .engine import (
    Delay, Engine, Event, Interrupt, Process, ProcessGroup, SimError,
)
from .primitives import Gate, Lock, Semaphore, Store, WouldBlock
from .resources import BandwidthLink, Resource
from .stats import Histogram, ThroughputMeter, cdf_points, percentile, summarize

__all__ = [
    "Delay",
    "Engine",
    "Event",
    "Process",
    "ProcessGroup",
    "Interrupt",
    "SimError",
    "Lock",
    "Semaphore",
    "Store",
    "Gate",
    "WouldBlock",
    "Resource",
    "BandwidthLink",
    "percentile",
    "summarize",
    "cdf_points",
    "Histogram",
    "ThroughputMeter",
]
