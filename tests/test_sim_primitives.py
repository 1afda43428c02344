"""Unit tests for the FIFO item store and Resource used as a lock or semaphore."""

import pytest

from repro.sim import Engine, Resource, Store


def test_store_fifo_ordering():
    eng = Engine()
    store = Store(eng)
    received = []

    def producer(eng):
        for i in range(5):
            yield store.put(i)
            yield 10

    def consumer(eng):
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    eng.spawn(producer(eng))
    eng.spawn(consumer(eng))
    eng.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    times = []

    def consumer(eng):
        item = yield store.get()
        times.append((eng.now, item))

    def producer(eng):
        yield 500
        yield store.put("late")

    eng.spawn(consumer(eng))
    eng.spawn(producer(eng))
    eng.run()
    assert times == [(500, "late")]


def test_bounded_store_put_blocks_when_full():
    eng = Engine()
    store = Store(eng, capacity=1)
    log = []

    def producer(eng):
        yield store.put("x")
        log.append(("put-x", eng.now))
        yield store.put("y")  # blocks until consumer frees a slot
        log.append(("put-y", eng.now))

    def consumer(eng):
        yield 100
        item = yield store.get()
        log.append((f"got-{item}", eng.now))

    eng.spawn(producer(eng))
    eng.spawn(consumer(eng))
    eng.run()
    assert ("put-y", 100) in log


def test_lock_release_unlocked_raises():
    eng = Engine()
    lock = Resource(eng, capacity=1)
    with pytest.raises(Exception):
        lock.release()


def test_semaphore_limits_concurrency():
    eng = Engine()
    sem = Resource(eng, capacity=2)
    active = [0]
    peak = [0]

    def worker(eng):
        yield sem.request()
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield 50
        active[0] -= 1
        sem.release()

    for _ in range(6):
        eng.spawn(worker(eng))
    eng.run()
    assert peak[0] == 2
    assert sem.in_use == 0
