"""Deterministic discrete-event simulation kernel.

Submodules:

* :mod:`repro.sim.engine` — the event loop, processes, process groups,
  events.
* :mod:`repro.sim.primitives` — FIFO item stores.
* :mod:`repro.sim.resources` — capacity pools and bandwidth links.
* :mod:`repro.sim.stats` — percentiles, CDFs, throughput meters.
"""

from .engine import (
    Delay, Engine, Event, Interrupt, Process, ProcessGroup, SimError,
)
from .primitives import Store, WouldBlock
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
    "Store",
    "WouldBlock",
    "Resource",
    "BandwidthLink",
    "percentile",
    "summarize",
    "cdf_points",
    "Histogram",
    "ThroughputMeter",
]
