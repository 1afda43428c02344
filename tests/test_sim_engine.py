"""Unit tests for the discrete-event engine."""

import heapq
import itertools
from collections import deque
from contextlib import suppress

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (
    BandwidthLink, Engine, Interrupt, ProcessGroup, Resource, SimError, Store,
)
from repro.sim.engine import SimulationLimitExceeded


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0


def test_timeout_advances_clock():
    eng = Engine()

    def main(eng):
        yield 100
        assert eng.now == 100
        yield 250
        assert eng.now == 350
        return eng.now

    assert eng.run_process(main(eng)) == 350


def test_float_delay_truncates_to_int_ns():
    eng = Engine()

    def main(eng):
        yield 10.9
        return eng.now

    assert eng.run_process(main(eng)) == 10


def test_zero_delay_is_allowed():
    eng = Engine()

    def main(eng):
        yield 0
        return "ok"

    assert eng.run_process(main(eng)) == "ok"


def test_negative_delay_fails_process():
    eng = Engine()

    def main(eng):
        yield -5

    with pytest.raises(SimError):
        eng.run_process(main(eng))


def test_yield_bad_command_fails_process():
    eng = Engine()

    def main(eng):
        yield "nonsense"

    with pytest.raises(SimError):
        eng.run_process(main(eng))


def test_process_return_value_propagates():
    eng = Engine()

    def child(eng):
        yield 10
        return 42

    def main(eng):
        result = yield eng.spawn(child(eng))
        return result

    assert eng.run_process(main(eng)) == 42


def test_waiting_on_finished_process_returns_immediately():
    eng = Engine()

    def child(eng):
        yield 1
        return "early"

    def main(eng):
        proc = eng.spawn(child(eng))
        yield 100  # child finishes long before we wait
        result = yield proc
        assert eng.now == 100
        return result

    assert eng.run_process(main(eng)) == "early"


def test_child_exception_propagates_to_waiter():
    eng = Engine()

    def child(eng):
        yield 5
        raise ValueError("boom")

    def main(eng):
        try:
            yield eng.spawn(child(eng))
        except ValueError as e:
            return str(e)
        return "not raised"

    assert eng.run_process(main(eng)) == "boom"


def test_unhandled_background_failure_raises_at_end():
    eng = Engine()

    def crasher(eng):
        yield 5
        raise RuntimeError("background crash")

    eng.spawn(crasher(eng))
    with pytest.raises(RuntimeError, match="background crash"):
        eng.run()


def test_event_succeed_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event()
    log = []

    def waiter(eng):
        value = yield ev
        log.append((eng.now, value))

    def trigger(eng):
        yield 30
        ev.succeed("payload")

    eng.spawn(waiter(eng))
    eng.spawn(trigger(eng))
    eng.run()
    assert log == [(30, "payload")]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_all_of_collects_values_in_order():
    eng = Engine()

    def child(eng, delay, value):
        yield delay
        return value

    def main(eng):
        procs = [
            eng.spawn(child(eng, 30, "a")),
            eng.spawn(child(eng, 10, "b")),
            eng.spawn(child(eng, 20, "c")),
        ]
        values = yield eng.all_of(procs)
        assert eng.now == 30
        return values

    assert eng.run_process(main(eng)) == ["a", "b", "c"]


def test_all_of_empty_is_immediate():
    eng = Engine()

    def main(eng):
        values = yield eng.all_of([])
        return values

    assert eng.run_process(main(eng)) == []


def test_any_of_returns_first():
    eng = Engine()

    def child(eng, delay, value):
        yield delay
        return value

    def main(eng):
        procs = [
            eng.spawn(child(eng, 30, "slow")),
            eng.spawn(child(eng, 10, "fast")),
        ]
        index, value = yield eng.any_of(procs)
        assert eng.now == 10
        return (index, value)

    assert eng.run_process(main(eng)) == (1, "fast")


def test_interrupt_throws_into_wait():
    eng = Engine()
    log = []

    def sleeper(eng):
        try:
            yield 1_000_000
        except Interrupt as intr:
            log.append((eng.now, intr.cause))
            return "interrupted"
        return "slept"

    def main(eng):
        proc = eng.spawn(sleeper(eng))
        yield 50
        proc.interrupt("wakeup")
        result = yield proc
        return result

    assert eng.run_process(main(eng)) == "interrupted"
    assert log == [(50, "wakeup")]


@pytest.mark.parametrize("wait", ["sleep", "zero", "ready", "shared", "pending"])
def test_interrupt_cancels_the_pending_wakeup(wait):
    """A process that catches Interrupt and waits again is resumed by
    the new wait, not by the wake-up of the wait it was interrupted in:
    a ``yield N`` heap entry, a queued ``yield 0``, the resume of an
    already-triggered event (alone or riding on its delivery), or a
    pending event's callback."""
    eng = Engine()
    shared = eng.event()
    woke = []

    def waiter(eng):
        yield shared
        woke.append(eng.now)

    def sleeper(eng):
        yield 50
        try:
            if wait == "sleep":
                yield 100
            elif wait == "zero":
                yield 0
            elif wait == "ready":
                yield eng.event().succeed()
            elif wait == "shared":
                yield shared.succeed()
            else:
                yield eng.event()
        except Interrupt:
            pass
        yield 1000
        return eng.now

    # Spawned first, so its t=50 wake-up runs before main's.
    proc = eng.spawn(sleeper(eng))
    eng.spawn(waiter(eng))

    def main(eng):
        yield 50
        proc.interrupt("now")
        return (yield proc)

    assert eng.run_process(main(eng)) == 1050
    assert woke == ([50] if wait == "shared" else [])


def test_interrupt_before_start_throws_at_the_first_wait():
    eng = Engine()
    log = []

    def body(eng):
        log.append("started")
        try:
            yield 100
        except Interrupt:
            log.append(eng.now)
        yield 10
        return eng.now

    proc = eng.spawn(body(eng))
    proc.interrupt("early")
    eng.run()
    assert log == ["started", 0]
    assert proc.value == 10 and eng.now == 10


def test_self_interrupt_cancels_the_wait_begun_after_it():
    eng = Engine()

    def selfish(eng):
        yield 10
        me.interrupt("self")
        try:
            yield 100
        except Interrupt:
            pass
        yield 1000
        return eng.now

    me = eng.spawn(selfish(eng))
    eng.run()
    assert me.value == 1010


def test_interrupt_after_completion_is_noop():
    eng = Engine()

    def quick(eng):
        yield 1
        return "done"

    def main(eng):
        proc = eng.spawn(quick(eng))
        yield 10
        proc.interrupt("too late")
        result = yield proc
        return result

    assert eng.run_process(main(eng)) == "done"


def test_run_until_limits_time():
    eng = Engine()

    def forever(eng):
        while True:
            yield 100

    eng.spawn(forever(eng))
    final = eng.run(until=1_000)
    assert final == 1_000


def test_max_events_guard():
    eng = Engine()

    def forever(eng):
        while True:
            yield 1

    eng.spawn(forever(eng))
    with pytest.raises(SimulationLimitExceeded):
        eng.run(max_events=1000)


def test_event_budget_runs_out_inside_an_in_place_chain():
    """A sleeper whose wake-up is always the next entry is resumed in
    place, but each resume is still one entry: the budget runs out at
    the same time and count as when every wake-up went through the
    heap, and the run carries on from there unchanged."""
    eng = Engine()

    def sleeper():
        for i in range(60):
            yield 0 if i % 5 == 4 else 3

    def sparse():
        for _ in range(4):
            yield 50

    eng.spawn(sleeper())
    eng.spawn(sparse())
    with pytest.raises(SimulationLimitExceeded, match="at t=93ns"):
        eng.run(max_events=40)
    assert (eng.now, eng.events_processed) == (93, 41)
    with pytest.raises(SimulationLimitExceeded, match="at t=120ns"):
        eng.run(until=140, max_events=12)
    assert (eng.now, eng.events_processed) == (120, 54)
    assert (eng.run(until=130), eng.events_processed) == (130, 57)
    assert (eng.run(), eng.events_processed) == (200, 68)


def test_deterministic_fifo_order_at_same_time():
    eng = Engine()
    log = []

    def worker(eng, tag):
        yield 10
        log.append(tag)

    for tag in ["a", "b", "c", "d"]:
        eng.spawn(worker(eng, tag))
    eng.run()
    assert log == ["a", "b", "c", "d"]


def test_run_process_detects_deadlock():
    eng = Engine()

    def stuck(eng):
        yield eng.event()  # never triggered

    with pytest.raises(SimError, match="did not finish"):
        eng.run_process(stuck(eng))


def test_nested_generator_delegation():
    eng = Engine()

    def inner(eng):
        yield 25
        return "inner-done"

    def outer(eng):
        result = yield from inner(eng)
        assert eng.now == 25
        yield 5
        return result

    assert eng.run_process(outer(eng)) == "inner-done"
    assert eng.now == 30


# ----------------------------------------------------------------------
# Entry accounting and timer cancellation
# ----------------------------------------------------------------------
def _entries(body):
    eng = Engine()
    eng.run_process(body(eng))
    return eng.events_processed


@pytest.mark.parametrize("make, grab", [
    (Resource, Resource.request),
    # topology._move's lane grab on every DMA and PCIe transfer.
    (lambda eng: BandwidthLink(eng, bytes_per_ns=1.0), BandwidthLink.acquire),
], ids=["Resource", "BandwidthLink"])
def test_uncontended_acquire_costs_one_entry(make, grab):
    """Yielding an already-granted Resource slot or link lane costs one
    entry, the same as a ``yield 0``."""

    def empty(eng):
        return
        yield

    def sleeps(eng):
        for _ in range(10):
            yield 0

    def acquires(eng):
        sync = make(eng)
        for _ in range(10):
            yield grab(sync)
            sync.release()

    base = _entries(empty)
    assert _entries(sleeps) == base + 10
    assert _entries(acquires) == base + 10


def test_events_processed_accumulates_across_runs():
    eng = Engine()

    def ticker(eng):
        for _ in range(5):
            yield 10

    eng.spawn(ticker(eng))
    eng.run(until=25)
    first = eng.events_processed
    assert first == 3  # kick-off and the wake-ups at 10 and 20
    eng.run()
    assert eng.events_processed == first + 4  # 30, 40, 50, delivery


def test_any_of_cancels_a_losing_timer():
    eng = Engine()

    def main(eng):
        which, _ = yield eng.any_of([eng.timeout(10, "fast"), eng.timeout(1_000)])
        return which

    proc = eng.spawn(main(eng))
    assert eng.run() == 10  # not the stale 1 000 ns deadline
    assert proc.value == 0
    assert eng._heap == []


def test_shared_timer_still_fires():
    eng = Engine()
    shared = eng.timeout(100, "tick")
    log = []

    def racer(eng):
        which, _ = yield eng.any_of([eng.timeout(10), shared])
        log.append((eng.now, "racer", which))

    def sleeper(eng):
        value = yield shared
        log.append((eng.now, "sleeper", value))

    eng.spawn(racer(eng))
    eng.spawn(sleeper(eng))
    assert eng.run() == 100
    assert log == [(10, "racer", 0), (100, "sleeper", "tick")]


@pytest.mark.parametrize("wait_at", [50, 150])
def test_cancelled_timer_waited_on_again_still_fires(wait_at):
    eng = Engine()

    def main(eng):
        timer = eng.timeout(100, "late")
        yield eng.any_of([eng.timeout(10), timer])
        yield wait_at - eng.now
        value = yield timer
        return eng.now, value

    assert eng.run_process(main(eng)) == (max(100, wait_at), "late")


# ----------------------------------------------------------------------
# ProcessGroup
# ----------------------------------------------------------------------
def _parked(eng, log, tag):
    """A member that waits forever and logs each interrupt it gets."""
    while True:
        try:
            yield eng.event()
        except Interrupt as intr:
            log.append((tag, intr.cause))


def test_group_forgets_finished_processes():
    """Prunes drop finished members, keep live ones in spawn order, and
    bound the list by about twice the live count plus PRUNE_AT."""
    eng = Engine()
    group = ProcessGroup(eng)
    log = []
    keepers = []
    peak = 0

    def short(eng):
        yield 5

    def churn(eng):
        nonlocal peak
        for i in range(1_000):
            if i % 150 == 0:
                keepers.append(group.spawn(_parked(eng, log, i), f"keep{i}"))
            group.spawn(short(eng), f"short{i}")
            peak = max(peak, len(group))
            yield 10

    eng.run_process(churn(eng))
    assert peak <= 2 * (len(keepers) + 1) + ProcessGroup.PRUNE_AT
    assert [p for p in group if p.alive] == keepers
    group.stop("halt")
    eng.run()
    assert log == [(i, "halt") for i in range(0, 1_000, 150)]


def test_group_stop_interrupts_live_members_in_spawn_order():
    eng = Engine()
    group = ProcessGroup(eng)
    log = []

    def quick(eng):
        yield 1

    group.spawn(_parked(eng, log, "a"))
    group.spawn(quick(eng))
    group.spawn(_parked(eng, log, "b"))
    group.spawn(_parked(eng, log, "c"))
    eng.run()
    group.stop("halt")
    eng.run()
    assert log == [("a", "halt"), ("b", "halt"), ("c", "halt")]
    assert len(group) == 0


def test_group_stop_twice_or_when_all_finished_is_a_noop():
    eng = Engine()
    group = ProcessGroup(eng)
    log = []
    group.spawn(_parked(eng, log, "a"))
    eng.run()
    group.stop("first")
    group.stop("second")
    eng.run()
    assert log == [("a", "first")]

    def quick(eng):
        yield 1

    done = ProcessGroup(eng)
    done.spawn(quick(eng))
    eng.run()
    before = eng.events_processed
    done.stop("late")
    eng.run()
    assert eng.events_processed == before


def test_group_member_failure_still_aborts_run():
    """The group must not consume a member's failure (as a completion
    callback would): an unhandled crash still aborts the run."""
    eng = Engine()
    group = ProcessGroup(eng)

    def crasher(eng):
        yield 5
        raise ValueError("member crashed")

    def quick(eng):
        yield 1

    def spawner(eng):
        yield 10  # after the crash: these spawns prune the crasher
        for _ in range(2 * ProcessGroup.PRUNE_AT):
            group.spawn(quick(eng))
            yield 2

    group.spawn(crasher(eng), "crasher")
    eng.spawn(spawner(eng))
    with pytest.raises(ValueError, match="member crashed"):
        eng.run()
    assert all(p.name != "crasher" for p in group)


# ----------------------------------------------------------------------
# Order oracle: Engine against a heap-only reference scheduler
# ----------------------------------------------------------------------
class RefEngine:
    """The reference semantics: one heap of ``(time, seq, thunk)``;
    every delivery and every wake-up is its own entry."""

    def __init__(self):
        self.now, self.heap, self.seq = 0, [], itertools.count()

    def at(self, delay, thunk):
        heapq.heappush(self.heap, (self.now + delay, next(self.seq), thunk))

    def run(self):
        while self.heap:
            self.now, _, thunk = heapq.heappop(self.heap)
            thunk()

    def at_end_of(self, when, thunk):
        """Run ``thunk`` at ``when``, after everything else due then
        that is scheduled before it runs."""
        heapq.heappush(self.heap, (when, 1 << 40 | next(self.seq), thunk))

    def event(self):
        return RefEvent(self)

    def spawn(self, gen):
        return RefProcess(self, gen)

    def timeout(self, delay, value=None):
        ev = RefEvent(self)
        self.at(delay, lambda: ev.succeed(value))
        return ev

    def combine(self, events, on_fire):
        done = RefEvent(self)
        for i, ev in enumerate(events):
            ev._add_callback(lambda ev, i=i: done.state or on_fire(done, i, ev))
        return done

    def any_of(self, events):
        def fire(done, i, ev):
            done.succeed((i, ev.value)) if ev.state == 1 else done.fail(ev.value)
        return self.combine(events, fire)

    def all_of(self, events):
        left = [len(events)]

        def fire(done, i, ev):
            left[0] -= 1
            if ev.state != 1:
                done.fail(ev.value)
            elif not left[0]:
                done.succeed([e.value for e in events])
        return self.combine(events, fire)


class RefEvent:
    def __init__(self, eng):
        self.eng, self.state, self.value, self.cbs = eng, 0, None, []

    triggered = property(lambda self: self.state != 0)

    def succeed(self, value=None, state=1):
        assert self.state == 0
        self.state, self.value = state, value
        self.eng.at(0, self._deliver)
        return self

    def fail(self, exc):
        return self.succeed(exc, state=2)

    def _deliver(self):
        cbs, self.cbs = self.cbs, []
        for cb in cbs:
            cb(self)

    def _add_callback(self, cb):
        if self.state == 0:
            self.cbs.append(cb)
        else:
            self.eng.at(0, lambda: cb(self))


class RefProcess(RefEvent):
    """Each wait gets a fresh token; its wake-up runs only while the
    token is current.  An interrupt drops the token when it is issued
    and again when it is delivered, abandoning the wait."""

    def __init__(self, eng, gen):
        super().__init__(eng)
        self.gen, self.token = gen, None
        eng.at(0, lambda: self._step(None, None))

    def interrupt(self, cause=None):
        if self.state == 0:
            self.token = None
            self.eng.at(0, lambda: self._throw(Interrupt(cause)))

    def _throw(self, exc):
        self.token = None
        self._step(None, exc)

    def _step(self, value, exc):
        if self.state:
            return
        try:
            cmd = self.gen.send(value) if exc is None else self.gen.throw(exc)
        except StopIteration as stop:
            return self.succeed(stop.value)
        except Exception as error:
            return self.fail(error)
        token = self.token = object()
        if isinstance(cmd, int):
            self.eng.at(cmd, lambda: self.token is token and self._step(None, None))
        else:
            cmd._add_callback(lambda ev: self.token is token and self._step(
                *((ev.value, None) if ev.state == 1 else (None, ev.value))
            ))


class RefSlots:
    """Reference FIFO slots (a lock, a resource): every acquire returns
    an event, already triggered when a slot is free."""

    def __init__(self, eng, slots):
        self.eng, self.free, self.waiters = eng, slots, deque()

    def acquire(self):
        ev = self.eng.event()
        if self.free and not self.waiters:
            self.free -= 1
            ev.succeed()
        else:
            self.waiters.append(ev)
        return ev

    request = acquire

    def release(self):
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.free += 1


class RefStore:
    """Reference unbounded store: ``put`` returns a triggered event."""

    def __init__(self, eng):
        self.eng, self.items, self.getters = eng, deque(), deque()

    def put(self, item):
        if self.getters:
            self.getters.popleft().succeed(item)
        else:
            self.items.append(item)
        return self.eng.event().succeed()

    def get(self):
        ev = self.eng.event()
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self.getters.append(ev)
        return ev


N_EVENTS = 3
_op = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0, 0, 1, 2, 5])),
    st.tuples(st.just("timer"), st.sampled_from([0, 1, 2, 5])),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("fail"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("ready"), st.just(0)),
    st.tuples(st.just("lock"), st.sampled_from([0, 1, 3])),
    st.tuples(st.just("res"), st.sampled_from([0, 1, 3])),
    st.tuples(st.just("put"), st.just(0)),
    st.tuples(st.just("get"), st.just(0)),
    st.tuples(st.just("all"), st.integers(0, N_EVENTS - 1), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("any"), st.integers(0, N_EVENTS - 1), st.sampled_from([1, 2, 5])),
    st.tuples(st.just("any_keep"), st.integers(0, N_EVENTS - 1), st.sampled_from([1, 4])),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)
_bodies = st.recursive(
    st.lists(_op, max_size=6),
    lambda inner: st.lists(
        st.one_of(_op, st.tuples(st.just("spawn"), inner, st.booleans())), max_size=6
    ),
    max_leaves=30,
)
_programs = st.lists(_bodies, min_size=1, max_size=4)


def play(eng, program, lock, res, store, slices=(), budget=None, extra=None,
         stops=None):
    """Run ``program`` on ``eng`` with a lock (a 1-slot resource), a
    2-slot resource and an unbounded store, and return its ``(now,
    tag)`` log.

    On an :class:`Engine`: first ``run(max_events=budget)``, which
    raises :class:`SimulationLimitExceeded` after ``budget + 1`` entries
    unless the program ends sooner, then up to each time in ``slices``,
    then to the end.  After each slice
    ``(until, now before, now after, live work left)`` goes on
    ``stops``, and ``extra``, if given, is spawned there: zero-delay
    work between slices.  On the reference, which runs in one call,
    ``extra`` is spawned at each ``now after`` in ``stops``, after
    everything else due by then."""
    log = []
    events = [eng.event() for _ in range(N_EVENTS)]
    procs = []

    def body(tag, ops):
        for i, op in enumerate(ops):
            here = f"{tag}.{i}"
            kind = op[0]
            try:
                if kind == "sleep":
                    yield op[1]
                elif kind == "timer":
                    here += f"={(yield eng.timeout(op[1], here))}"
                elif kind == "trigger":
                    if not events[op[1]].triggered:
                        events[op[1]].succeed(here)
                elif kind == "fail":
                    if not events[op[1]].triggered:
                        events[op[1]].fail(ValueError(here))
                elif kind == "wait":
                    here += f"={(yield events[op[1]])}"
                elif kind == "ready":
                    yield eng.event().succeed(here)
                elif kind == "lock":
                    yield lock.request()
                    try:
                        yield op[1]
                    finally:
                        lock.release()
                elif kind == "res":
                    yield res.request()
                    try:
                        yield op[1]
                    finally:
                        res.release()
                elif kind == "put":
                    yield store.put(here)
                elif kind == "get":
                    here += f"={(yield store.get())}"
                elif kind == "all":
                    here += f"={(yield eng.all_of([events[op[1]], events[op[2]]]))}"
                elif kind in ("any", "any_keep"):
                    timer = eng.timeout(op[2], "t")
                    here += f"={(yield eng.any_of([events[op[1]], timer]))}"
                    if kind == "any_keep":
                        here += f"={(yield timer)}"
                elif kind == "interrupt":
                    if op[1] < len(procs):
                        procs[op[1]].interrupt(here)
                else:  # spawn
                    child = spawn(here, op[1])
                    if op[2]:
                        here += f"={(yield child)}"
            except Exception as error:  # noqa: BLE001 - logged and compared
                here += f"!{type(error).__name__}"
            log.append((eng.now, here))
        return tag

    def spawn(tag, ops):
        procs.append(eng.spawn(body(tag, ops)))
        return procs[-1]

    for j, ops in enumerate(program):
        spawn(str(j), ops)
    if isinstance(eng, RefEngine):
        for k, stop in enumerate(stops or ()):
            eng.at_end_of(stop[2], lambda k=k: spawn(f"x{k}", extra))
        eng.run()
        return log
    # Engine re-raises an unconsumed failure (or SimulationLimitExceeded)
    # when a run returns; the reference never does.
    if budget is not None:
        try:
            eng.run(max_events=budget)
        except SimulationLimitExceeded:
            assert eng.events_processed == budget + 1
        except Exception:  # noqa: BLE001 - an unconsumed failure
            assert eng.events_processed <= budget
        else:
            assert eng.events_processed <= budget
    for k, until in enumerate(slices):
        before = eng.now
        with suppress(Exception):
            eng.run(until=until)
        live = any(entry[2] is not None for entry in eng._heap)
        if stops is not None:
            stops.append((until, before, eng.now, live))
        if extra is not None:
            spawn(f"x{k}", extra)
    with suppress(Exception):
        eng.run()
    return log


def _play_engine(program, **run):
    eng = Engine()
    return eng, play(eng, program, Resource(eng, 1), Resource(eng, 2), Store(eng), **run)


def _play_reference(program, **run):
    ref = RefEngine()
    return play(ref, program, RefSlots(ref, 1), RefSlots(ref, 2), RefStore(ref), **run)


@settings(max_examples=1000, deadline=None)
@given(
    program=_programs,
    slices=st.lists(st.integers(0, 30), max_size=4).map(sorted),
    budget=st.none() | st.integers(1, 40),
    extra=_bodies,
)
# Process 2's resume, run by event 0's delivery, interrupts process 3,
# whose resume that same delivery still holds: 3 must see the Interrupt.
@example(
    program=[[], [("sleep", 0), ("trigger", 0)], [("wait", 0), ("interrupt", 3)],
             [("wait", 0)]],
    slices=[], budget=None, extra=[],
)
# The same with a failed event: 2 catches the failure, then interrupts 3.
@example(
    program=[[], [("sleep", 0), ("fail", 0)], [("wait", 0), ("interrupt", 3)],
             [("wait", 0)]],
    slices=[], budget=None, extra=[],
)
# The budget runs out where process 0 would resume in place (its second
# sleep); run() then takes the wake-up from the heap.
@example(
    program=[[("sleep", 1), ("sleep", 1), ("sleep", 1)]],
    slices=[], budget=2, extra=[("sleep", 0)],
)
# Only the cancelled 5 ns timer is left at t=3: the slice ends at the
# last real event (t=0), and so does the run; the extra work runs there.
@example(
    program=[[("trigger", 0)], [("any", 0, 5)]],
    slices=[3], budget=None, extra=[("sleep", 0), ("sleep", 2)],
)
def test_engine_matches_reference_order(program, slices, budget, extra):
    """Random programs log the same ``(now, tag)`` sequence on Engine
    as on the reference scheduler, whether Engine runs in one call, or
    under an event budget and then in ``run(until=t)`` slices.  Both
    ways count the same entries and end at the same time; a slice ends
    at ``until`` while live work is left, else at the run's last event.
    Zero-delay work spawned between slices runs where the reference
    runs it after everything due by then.  The reference's lock,
    resource and store answer every immediate grant with a triggered
    event; Engine's return ``0`` for it, which must wake the caller in
    the same order."""
    expected = _play_reference(program)
    whole, got = _play_engine(program)
    assert got == expected
    stops = []
    sliced, got = _play_engine(program, slices=slices, budget=budget, stops=stops)
    assert got == expected
    assert sliced.events_processed == whole.events_processed
    assert sliced.now == whole.now
    for until, before, after, live in stops:
        assert after == (max(until, before) if live else whole.now)

    stops = []
    _, got = _play_engine(program, slices=slices, extra=extra, stops=stops)
    assert got == _play_reference(program, extra=extra, stops=stops)
