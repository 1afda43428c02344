"""Discrete-event simulation kernel.

Everything in this reproduction runs on top of this small, deterministic,
generator-based discrete-event engine.  The design follows the classic
process-interaction style (as popularized by SimPy) but is intentionally
minimal and fully deterministic:

* time is an integer number of **nanoseconds** (no floating-point drift),
* event delivery order is a stable ``(time, sequence)`` order,
* processes are plain Python generators that ``yield`` either a delay
  (``int`` nanoseconds; ``0`` resumes at the current instant, after the
  work already queued there) or an :class:`Event` to wait on.

Example::

    eng = Engine()

    def worker(eng):
        yield 100                 # sleep 100 ns
        return "done"

    def main(eng):
        proc = eng.spawn(worker(eng), name="worker")
        result = yield proc       # wait for completion
        assert result == "done"

    eng.spawn(main(eng), name="main")
    eng.run()

Scheduling
----------
Work is a callback plus one argument, ``fn(arg)``, never a closure.
Work due later sits in a heap as ``[when, seq, fn, arg]``; work due
*now* (a triggered event's delivery, a process kick-off, an interrupt,
``yield 0``) sits in a FIFO **now-queue** as ``(fn, arg)``.  Each step
of :meth:`Engine.run` runs one entry: the heap top if it is due at
``now``, else the now-queue head; with the now-queue empty it pops the
heap top, which moves the clock (a cancelled entry moves nothing).  This
is exactly ``(time, seq)`` order: a heap entry due at ``now`` was
scheduled before the clock reached ``now``, so its sequence number is
smaller than that of every now-queue entry, and while the clock stands
at ``now`` nothing new can be scheduled into the heap at ``now`` (a
positive delay lands later, a zero delay on the now-queue).

Each run pushes a **horizon entry** ``[until + 1, -1, None, None]``
(``until`` defaults to 2**62).  Its sequence number ``-1`` sorts it
after every entry due by ``until`` and before every later one, so the
heap is never empty during a run, and reaching the horizon ends it; no
separate "heap empty" or ``until`` test runs per entry.  Its ``fn`` is
None, so anything scanning the heap sees it as a dead entry.  At the
horizon the clock moves on to ``until`` only if live work remains
beyond it, so a drained run ends at its last real event; a run that
raises takes its horizon out again.

A process's own wake-up (``yield N`` or ``yield 0``) is resumed inside
:meth:`Engine.run`, not through :meth:`Process._step`.  When it then
yields another delay ``d >= 0``, the wake-up at ``now + d`` is run in
place, with no heap or queue entry, if it is provably the next entry:
the now-queue is empty, ``now + d`` is strictly before the heap top (a
tie goes to the older heap entry; the horizon keeps it within
``until``) and the ``max_events`` budget has room.  No other entry
could run before that wake-up, so running it at once keeps the
``(time, seq)`` order.  The skipped entry draws no sequence number,
which shifts later numbers by one but not their relative order.  Each
in-place resume counts as one entry, so ``events_processed`` and the
point where :class:`SimulationLimitExceeded` fires do not move.  When
the wake-up cannot run in place but the now-queue is empty and the
budget has room, the heap top is the next entry and the new wake-up
sorts after it, so pushing the one and popping the other is a single
``heapreplace``.  Event waits, kick-offs, throws and invalid commands
still go through :meth:`Process._step`.

An acquire that is granted at once (``Resource.request``, so
``BandwidthLink.acquire``, or a ``Store.put`` that does not block)
returns ``0`` instead of an already-triggered event, so ``yield
res.request()`` is a ``yield 0``: one now-queue wake-up, in the slot
the event's delivery would have taken.  Waiting on an event that is
already triggered also costs one entry, not two: if the event's own
delivery is still the last queued entry, that entry is replaced by the
waiter's ``(callback, event)`` (or, when the event has other
callbacks, by one that delivers the event and then runs the waiter's);
nothing could run between the two, so the order is unchanged.
Otherwise one ``(callback, event)`` entry is queued.

:meth:`Process.interrupt` detaches the process from whatever it waits
on before throwing: a pending ``yield N`` heap entry is marked dead, a
queued ``yield 0`` or event wake-up is removed, and an event callback
is unregistered.  A process that catches :class:`Interrupt` and waits
again is resumed by that new wait alone.  That holds also for an
interrupt issued while the awaited event is being delivered (by an
earlier waiter's callback): the delivery already holds the process's
callback, so a process ignores a resume by any event but the one it
waits on.

Timers are cancellable by lazy deletion.  When :meth:`Engine.any_of`
resolves, each losing :meth:`Engine.timeout` that has no other waiter
is marked dead in place; :meth:`Engine.run` discards dead entries
without advancing the clock, so a drained simulation ends at its last
real event, not at a stale deadline.  A dead timer that is waited on
again is restored and fires at its deadline (at once if that passed).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Delay",
    "Engine",
    "Event",
    "Process",
    "ProcessGroup",
    "Interrupt",
    "SimError",
    "SimulationLimitExceeded",
]


#: The return type of a pure-delay helper (``Core.compute`` and the
#: like): nanoseconds for the caller to ``yield``.  ``repro.lint``
#: flags a call that discards one, as it does a discarded generator.
Delay = int


class SimError(Exception):
    """Base class for all simulation-kernel errors."""


class SimulationLimitExceeded(SimError):
    """Raised when ``Engine.run`` exceeds its event budget."""


class Interrupt(SimError):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever object the interrupter
    supplied (e.g. a device-failure record for failure injection).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


# Event states.
_PENDING = 0
_SUCCEEDED = 1
_FAILED = 2


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending* and is triggered exactly once with either
    :meth:`succeed` (carrying an optional value) or :meth:`fail`
    (carrying an exception).  Any process yielding a triggered event
    resumes immediately (at the current simulation time).
    """

    __slots__ = ("engine", "_state", "_value", "_callbacks", "_failure_consumed")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._state = _PENDING
        self._value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []
        self._failure_consumed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (False while pending)."""
        return self._state == _SUCCEEDED

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimError(f"event already triggered: {self!r}")
        self._state = _SUCCEEDED
        self._value = value
        self.engine._queue.append((_deliver, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiters have the exception thrown into them at their yield point.
        """
        if self._state != _PENDING:
            raise SimError(f"event already triggered: {self!r}")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _FAILED
        self._value = exc
        self.engine._queue.append((_deliver, self))
        return self

    # ------------------------------------------------------------------
    # Callback plumbing (used by Process and the synchronization
    # primitives; not part of the user-facing API).
    # ------------------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._state == _PENDING:
            self._callbacks.append(callback)
            return
        # Already triggered: deliver asynchronously, at the current
        # instant, after everything already queued.
        if self._state == _FAILED:
            self._failure_consumed = True
        queue = self.engine._queue
        if queue:
            last = queue[-1]
            if last[1] is self and last[0] is _deliver:
                # Our own delivery is the last queued entry: ride on it.
                # With no other callbacks the delivery is a no-op, so
                # the callback takes its place outright.  (Not via
                # _callbacks, which interrupt may still edit.)
                if self._callbacks:
                    queue[-1] = (_deliver_then, (self, callback))
                else:
                    queue[-1] = (callback, self)
                return
        queue.append((callback, self))

    def _remove_callback(self, callback: Callable[["Event"], None]) -> None:
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass


def _deliver(event: Event) -> None:
    """Run ``event``'s callbacks (a now-queue entry)."""
    callbacks = event._callbacks
    if callbacks:
        event._callbacks = []
        if event._state == _FAILED:
            event._failure_consumed = True
        for callback in callbacks:
            callback(event)


def _deliver_then(pair: tuple) -> None:
    """Deliver an event, then run one more callback on it."""
    event, callback = pair
    _deliver(event)
    callback(event)


class _Timer(Event):
    """An :meth:`Engine.timeout` event; ``_entry`` is its heap entry
    (``None`` for a zero delay, which is never cancelled)."""

    __slots__ = ("_entry",)

    def _add_callback(self, callback: Callable[[Event], None]) -> None:
        entry = self._entry
        if entry is not None and entry[2] is None:
            # Waited on again after any_of cancelled it: undo the cancel.
            engine = self.engine
            if any(e is entry for e in engine._heap):
                entry[2] = self.succeed
            elif entry[0] <= engine._now:
                # Discarded by run() and past its deadline: it would
                # have fired unobserved, so it is simply triggered.
                self._entry = None
                self._state = _SUCCEEDED
                self._value = entry[3]
            else:
                entry[2] = self.succeed
                heappush(engine._heap, entry)
        Event._add_callback(self, callback)


class Process(Event):
    """A running simulation process.

    A process wraps a generator.  It is itself an :class:`Event` that
    triggers when the generator finishes: the success value is the
    generator's ``return`` value; if the generator raises, the process
    fails with that exception (which propagates to any waiter, or aborts
    the simulation if nobody is waiting).
    """

    __slots__ = ("name", "_gen", "_send", "_waiting_on", "_resume_cb")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "?"):
        super().__init__(engine)
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self.name = name
        self._gen = gen
        self._send = gen.send
        self._waiting_on: Optional[Event] = None
        self._resume_cb = self._on_event
        # Kick off at the current instant.  Wake-ups are (_wake, self)
        # entries: the plain function needs no per-process bound method.
        # The kick-off is a (_start, self) entry, which _detach leaves.
        engine._queue.append((_start, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "running", _SUCCEEDED: "done", _FAILED: "failed"}
        return f"<Process {self.name} {state[self._state]}>"

    @property
    def alive(self) -> bool:
        """True while the process generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        The wait is abandoned: its pending wake-up is cancelled here,
        and again when the throw is delivered (for a wait the process
        began in between, e.g. after interrupting itself).
        """
        if not self.alive:
            return
        self._detach()
        self._throw_in(Interrupt(cause))

    def _detach(self) -> None:
        """Cancel this process's pending wake-up, whatever it waits on."""
        waiting = self._waiting_on
        resume = self._resume_cb
        if waiting is not None:
            self._waiting_on = None
            waiting._remove_callback(resume)
        engine = self.engine
        for entry in engine._heap:
            if entry[3] is self and entry[2] is _wake:
                entry[2] = None  # a ``yield N``: dead, run() drops it
                return
        queue = engine._queue
        for i, (fn, arg) in enumerate(queue):
            if arg is self and fn is _wake or fn is resume:
                del queue[i]  # a ``yield 0`` or a triggered event's resume
                return
            if fn is _deliver_then and arg[1] is resume:
                queue[i] = (_deliver, arg[0])  # keep the delivery itself
                return

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # A stale resume: an interrupt issued during this event's
            # delivery detached the wait after _deliver took the list.
            return
        self._waiting_on = None
        if event._state == _SUCCEEDED:
            self._step(event._value)
        else:
            self._step(None, event._value)

    def _step(
        self, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        if self._state != _PENDING:
            return  # interrupted after completion; nothing to do
        try:
            if exc is None:
                command = self._send(value)
            else:
                command = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - must capture all
            self._finish_fail(error)
            return
        # The common commands inline; everything else (float and
        # negative delays, bad commands) goes through _dispatch.
        if type(command) is int:
            if command > 0:
                engine = self.engine
                heappush(
                    engine._heap,
                    [engine._now + command, next(engine._seq), _wake, self],
                )
                return
            if command == 0:
                self.engine._queue.append((_wake, self))
                return
        elif isinstance(command, Event):
            self._waiting_on = command
            command._add_callback(self._resume_cb)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        # Invalid commands are thrown back *into* the generator (rather
        # than failing the process outright) so that try/finally blocks
        # in user code still run.
        if isinstance(command, (int, float)):
            delay = int(command)  # time is integer nanoseconds
            if delay < 0:
                self._throw_in(SimError(f"negative delay: {command}"))
                return
            self.engine._schedule(delay, _wake, self)
        elif hasattr(command, "send") and hasattr(command, "throw"):
            # A generator was yielded directly — almost always a
            # sub-coroutine called without ``yield from``, which would
            # otherwise silently skip its simulated work.
            self._throw_in(
                SimError(
                    f"process {self.name} yielded a generator "
                    f"{command!r} — did you mean 'yield from'? "
                    f"(bare 'yield gen' discards the coroutine)"
                )
            )
        else:
            self._throw_in(
                SimError(
                    f"process {self.name} yielded unsupported command: "
                    f"{command!r} (expected int delay or Event)"
                )
            )

    def _throw_in(self, error: BaseException) -> None:
        self.engine._queue.append((self._throw, error))

    def _throw(self, error: BaseException) -> None:
        if self._state == _PENDING:
            self._detach()
        self._step(None, error)

    def _finish_ok(self, value: Any) -> None:
        self._state = _SUCCEEDED
        self._value = value
        self._resume_cb = None  # break the self-cycle: free by refcount
        self.engine._queue.append((_deliver, self))

    def _finish_fail(self, error: BaseException) -> None:
        self._state = _FAILED
        self._value = error
        self._resume_cb = None
        self.engine._register_failure(self, error)
        self.engine._queue.append((_deliver, self))


_wake = Process._step  # _wake(process): resume it with None (run inlines it)


def _start(process: Process) -> None:
    """Run a new process to its first wait (its kick-off entry)."""
    process._step()


# The horizon of a run without ``until``: later than any real entry.
_NO_HORIZON = 1 << 62


class Engine:
    """The simulation engine: clock, event heap, now-queue, and
    process registry."""

    def __init__(self) -> None:
        self._now = 0
        self._heap: List[list] = []
        self._queue: deque = deque()
        self._seq = count()
        self._unhandled: List[tuple] = []
        self._nprocs = 0
        self._events = 0
        # The ObservabilityHub recording this simulation, attached by
        # the hub itself (``repro.obs.hub_of`` reads it).
        self.obs = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Entries executed by all :meth:`run` calls so far (updated
        when each ``run`` returns; dead timers are not counted)."""
        return self._events

    # ------------------------------------------------------------------
    # Process / event creation
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from generator ``gen``."""
        self._nprocs += 1
        return Process(self, gen, name or f"proc-{self._nprocs}")

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Event:
        """An event that succeeds ``delay`` ns from now with ``value``."""
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        ev = _Timer(self)
        delay = int(delay)
        if delay:
            ev._entry = [self._now + delay, next(self._seq), ev.succeed, value]
            heappush(self._heap, ev._entry)
        else:
            ev._entry = None
            self._queue.append((ev.succeed, value))
        return ev

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds once every input event has succeeded.

        The success value is the list of input values in input order.
        Fails fast on the first input failure.
        """
        events = list(events)
        done = Event(self)
        remaining = [len(events)]
        if not events:
            done.succeed([])
            return done

        def on_each(_ev: Event) -> None:
            if done.triggered:
                return
            if not _ev.ok:
                done.fail(_ev.value)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                done.succeed([e.value for e in events])

        for ev in events:
            ev._add_callback(on_each)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers as soon as any input event triggers.

        Succeeds with ``(index, value)`` of the first event, or fails
        with the first failure.  Losing :meth:`timeout` inputs that
        nobody else waits on are cancelled.
        """
        events = list(events)
        done = Event(self)
        if not events:
            raise SimError("any_of requires at least one event")
        callbacks: List[Callable[[Event], None]] = []

        def make_cb(index: int) -> Callable[[Event], None]:
            def on_one(ev: Event) -> None:
                if done.triggered:
                    return
                if ev.ok:
                    done.succeed((index, ev.value))
                else:
                    done.fail(ev.value)
                for other, callback in zip(events, callbacks):
                    if type(other) is _Timer and other._state == _PENDING:
                        other._remove_callback(callback)
                        if not other._callbacks and other._entry is not None:
                            other._entry[2] = None  # dead: run() drops it

            return on_one

        for i, ev in enumerate(events):
            callbacks.append(make_cb(i))
            ev._add_callback(callbacks[-1])
        return done

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        if delay:
            heappush(self._heap, [self._now + delay, next(self._seq), fn, arg])
        else:
            self._queue.append((fn, arg))

    def _register_failure(self, proc: Process, error: BaseException) -> None:
        # If nobody waits on the process by the time the failure is
        # delivered, run() re-raises to make bugs loud.
        self._unhandled.append((proc, error))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until no work is left, ``until`` ns is reached, or the
        event budget ``max_events`` is exhausted.

        Returns the final simulation time.  Re-raises the first process
        failure that no other process consumed.
        """
        heap = self._heap
        queue = self._queue
        popleft = queue.popleft
        seq = self._seq
        # The budget counts down once per entry and raises at 0; without
        # one it starts at 0 and never comes back to it.
        left = budget = 0 if max_events is None else max_events + 1
        now = self._now
        # The horizon entry sorts after every entry due by ``until`` and
        # before every later one, so the heap is never empty here.  It
        # reads as dead (``fn`` None) to anything that scans the heap.
        horizon = [
            _NO_HORIZON if until is None else max(until, now) + 1, -1, None, None
        ]
        heappush(heap, horizon)
        top = None  # the former heap top, popped by a fused hand-off
        try:
            while True:
                # With the now-queue empty, the heap top is next and may
                # move the clock.  Heap entries due now precede the
                # now-queue: they were scheduled before the clock got here.
                # A fused hand-off leaves the now-queue empty.
                if not queue or heap[0][0] == now:
                    if top is None:
                        when, entry_seq, fn, arg = heappop(heap)
                    else:
                        when, entry_seq, fn, arg = top
                        top = None
                    if fn is None:
                        if entry_seq < 0:
                            horizon = None  # reached: nothing left by until
                            break
                        continue  # cancelled timer: the clock stays
                    self._now = now = when
                else:
                    fn, arg = popleft()
                if fn is _wake:
                    # A process's wake-up: resume it here.  While it
                    # yields a delay whose wake-up would be the next
                    # entry run anyway, move the clock and resume it
                    # again in place, counting one entry per resume.
                    proc = arg
                    if not proc._state:  # _PENDING
                        send = proc._send
                        while True:
                            try:
                                command = send(None)
                            except StopIteration as done:
                                proc._finish_ok(done.value)
                                break
                            except BaseException as error:  # noqa: BLE001
                                proc._finish_fail(error)
                                break
                            if type(command) is int and command >= 0:
                                when = now + command
                                if queue or heap[0][0] <= when or left == 1:
                                    if not command:
                                        queue.append((_wake, proc))
                                    elif queue or left == 1:
                                        heappush(
                                            heap, [when, next(seq), _wake, proc]
                                        )
                                    else:
                                        # The heap top runs next, and the
                                        # new entry sorts after it: push
                                        # and pop in one step.
                                        top = heapreplace(
                                            heap, [when, next(seq), _wake, proc]
                                        )
                                    break
                                left -= 1
                                self._now = now = when
                            elif isinstance(command, Event):
                                proc._waiting_on = command
                                command._add_callback(proc._resume_cb)
                                break
                            else:
                                proc._dispatch(command)
                                break
                else:
                    fn(arg)
                left -= 1
                if not left:
                    raise SimulationLimitExceeded(
                        f"exceeded {max_events} events at t={now}ns"
                    )
        finally:
            self._events += budget - left
            if horizon is not None:
                # The run raised before reaching it.
                heap.remove(horizon)
                heapify(heap)
        if until is not None:
            # Stopped at the horizon: the clock moves on to ``until`` only
            # if live work remains beyond it, and never back.
            while heap and heap[0][2] is None:
                heappop(heap)
            if heap and until > now:
                self._now = until
        self._check_failures()
        return self._now

    def run_process(
        self,
        gen: Generator,
        name: str = "main",
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        This is the standard entry point for tests and benchmarks.
        """
        proc = self.spawn(gen, name=name)
        self.run(until=until, max_events=max_events)
        if not proc.triggered:
            raise SimError(
                f"process {name!r} did not finish (deadlock or until-limit)"
            )
        if not proc.ok:
            raise proc.value
        return proc.value

    def _check_failures(self) -> None:
        """Raise the first process failure that no waiter consumed.

        Called once the engine runs out of work (or the until-limit
        hits), so that waiters registered at any point during the run
        get the chance to consume the failure first.
        """
        while self._unhandled:
            proc, error = self._unhandled.pop(0)
            if not proc._failure_consumed:
                raise error


class ProcessGroup:
    """The long-lived processes of one owner (a service, a pool, a
    server's loops), held live and in spawn order.

    Finished processes are forgotten: when a spawn finds the list at the
    prune threshold, it drops the finished ones and sets the threshold
    to twice the live count (at least :attr:`PRUNE_AT`), so the list
    stays under about twice the live count plus :attr:`PRUNE_AT` at
    amortised O(1) per spawn.
    The group registers no completion callback: a callback would mark a
    member's failure as consumed, and a crashing member must still
    abort :meth:`Engine.run`.
    """

    PRUNE_AT = 64

    __slots__ = ("engine", "_procs", "_prune_at")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._procs: List[Process] = []
        self._prune_at = self.PRUNE_AT

    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start ``gen`` as a member of the group."""
        proc = self.engine.spawn(gen, name)
        procs = self._procs
        if len(procs) >= self._prune_at:
            procs[:] = [p for p in procs if p.alive]
            self._prune_at = max(self.PRUNE_AT, 2 * len(procs))
        procs.append(proc)
        return proc

    def __len__(self) -> int:
        """Members held: every live one, plus finished ones not yet
        pruned."""
        return len(self._procs)

    def __iter__(self):
        return iter(self._procs)

    def stop(self, cause: Any = None) -> None:
        """Interrupt every live member, in spawn order, and forget them
        all (a second ``stop`` interrupts nothing)."""
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.interrupt(cause)
