"""Elastic proxy worker pool driven by scheduler queue depth.

Workers are simulation processes that loop pop → execute against a
:class:`~repro.sched.scheduler.RequestScheduler`.  The pool staffs a
fixed floor of *permanent* workers, optionally reserves one or more
workers for the latency-critical class (so a foreground request never
waits behind an in-service bulk scan), and spawns *elastic* workers
when queue depth outruns the staff.  Elastic workers retire after
idling ``idle_shrink_ns`` on the simulated clock; permanent workers
block indefinitely, so a finished workload drains the event heap and
the simulation terminates without explicit teardown.
"""

from __future__ import annotations

from typing import Deque, List, Optional
from collections import deque

from ..obs.hub import hub_of
from ..obs.metrics import NULL_METRIC
from ..sim.engine import Engine, Interrupt, ProcessGroup
from .qos import CLASS_RT

__all__ = ["ElasticWorkerPool"]


class ElasticWorkerPool:
    """Grow/shrink proxy workers against scheduler queue depth."""

    def __init__(
        self,
        engine: Engine,
        sched,
        *,
        min_workers: int = 2,
        max_workers: int = 8,
        grow_depth_per_worker: int = 2,
        idle_shrink_ns: int = 200_000,
        rt_reserve: int = 0,
    ):
        if min_workers < 1 or max_workers < min_workers:
            raise ValueError(
                f"bad pool bounds: min={min_workers} max={max_workers}"
            )
        self.engine = engine
        self.sched = sched
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.grow_depth_per_worker = max(1, grow_depth_per_worker)
        self.idle_shrink_ns = idle_shrink_ns
        self.rt_reserve = rt_reserve
        self.regular_active = 0
        self.rt_active = 0
        self.high_water = 0
        self.grown = 0   # elastic spawns over the pool's lifetime
        self.shrunk = 0  # elastic retirements
        self._running = False
        self._started = False
        # Idle workers parked on events: entries are [event, max_class].
        self._waiters: Deque[List] = deque()
        self._procs = ProcessGroup(engine)
        self._next_id = 0
        # ``sched.workers``, registered by start() once the floor is
        # staffed: one sample for the floor, then one per grow/retire.
        self._g_workers = NULL_METRIC

    @property
    def active(self) -> int:
        return self.regular_active + self.rt_active

    # ------------------------------------------------------------------
    # Staffing
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._running = True
        for _ in range(self.min_workers):
            self._spawn(max_class=None, permanent=True)
        for _ in range(self.rt_reserve):
            self._spawn(max_class=CLASS_RT, permanent=True)
        self._g_workers = hub_of(self.engine).metrics.gauge("sched.workers")
        self._g_workers.set(self.active)

    def maybe_grow(self, depth: int) -> None:
        """Called on every admit: add an elastic worker when backlog
        exceeds ``grow_depth_per_worker`` per staffed regular worker."""
        if (
            self._running
            and self.regular_active < self.max_workers
            and depth > self.regular_active * self.grow_depth_per_worker
        ):
            self.grown += 1
            proc = self._spawn(max_class=None, permanent=False)
            self.sched._log(
                "grow", self.engine.now, "pool", -1, proc.name
            )

    def _spawn(self, max_class: Optional[int], permanent: bool):
        self._next_id += 1
        name = f"{self.sched.name}-w{self._next_id}" + (
            "-rt" if max_class is not None else ""
        )
        if max_class is not None:
            self.rt_active += 1
        else:
            self.regular_active += 1
        if self.active > self.high_water:
            self.high_water = self.active
        core = self.sched.worker_core()
        proc = self._procs.spawn(self._worker(core, max_class, permanent), name)
        self._g_workers.set(self.active)
        return proc

    # ------------------------------------------------------------------
    # Worker body
    # ------------------------------------------------------------------
    def _worker(self, core, max_class: Optional[int], permanent: bool):
        try:
            while self._running:
                req = self.sched.pop_ready(max_class)
                if req is not None:
                    yield from self.sched.execute(core, req)
                    continue
                waiter = self.engine.event()
                entry = [waiter, max_class]
                self._waiters.append(entry)
                if permanent:
                    yield waiter
                    continue
                which, _ = yield self.engine.any_of(
                    [waiter, self.engine.timeout(self.idle_shrink_ns)]
                )
                if which == 1:
                    # Idle timeout.  If our waiter is still parked,
                    # nothing arrived — retire unless work raced in
                    # between the timeout firing and us running.
                    try:
                        self._waiters.remove(entry)
                    except ValueError:
                        continue  # woken concurrently: keep serving
                    if self.sched.depth() == 0:
                        break
        except Interrupt:
            pass
        finally:
            if max_class is not None:
                self.rt_active -= 1
            else:
                self.regular_active -= 1
            if not permanent and self._running:
                self.shrunk += 1
                self.sched._log(
                    "shrink", self.engine.now, "pool", -1, self.active
                )
            self._g_workers.set(self.active)

    # ------------------------------------------------------------------
    # Wakeups / teardown
    # ------------------------------------------------------------------
    def wake(self, cls: int) -> None:
        """Wake one parked worker able to serve class ``cls``."""
        for i, entry in enumerate(self._waiters):
            waiter, max_class = entry
            if max_class is None or cls <= max_class:
                del self._waiters[i]
                waiter.succeed()
                return

    def retire_all(self) -> None:
        """Graceful teardown: release parked workers so their loops see
        ``_running == False`` and return (used after a drain)."""
        self._running = False
        while self._waiters:
            self._waiters.popleft()[0].succeed()

    def stop(self) -> None:
        """Hard stop: interrupt every worker, in-service or parked."""
        self.retire_all()
        self._procs.stop("pool stop")
