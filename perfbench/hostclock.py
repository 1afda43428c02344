"""A host clock that holds steady on a shared machine.

The CPU time the simulator needs for a fixed piece of work swings by up
to 1.6x on a machine shared with other tenants, over tens of seconds,
so raw host seconds from runs taken minutes apart do not compare.  The
end-to-end run therefore interleaves a fixed reference workload with
the measured work, every few hundred operations, and reports host time
in *reference seconds*::

    reference seconds = CPU seconds * REF_S / (CPU seconds the reference took nearby)

The reference is plain Python with no ``repro`` code in it: random
reads of an 8 MB buffer, small-object allocation, heap pushes and
generator sends, the same kinds of work the simulator does.  A machine
that runs everything slower stretches both, so the ratio cancels it; a
change that makes the simulator faster shortens only the measured work,
so it shows.  ``REF_S`` is about what the reference took on the
machine the benchmark was written on (x86-64 at 2.1 GHz), so reference
seconds read close to CPU seconds there.  The time spent in the
reference itself is excluded from the measured work.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Tuple

REF_S = 0.0125
BUF_BYTES = 8 << 20
_MASK = BUF_BYTES - 1

# (CPU clock before the reference, CPU clock after it, its duration)
Mark = Tuple[float, float, float]


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _echo():
    x = 0
    while True:
        x = yield x + 1


class HostClock:
    """Reads the process CPU clock and runs the reference workload."""

    def __init__(self) -> None:
        self._buf = bytearray(range(256)) * (BUF_BYTES // 256)

    def _reference(self) -> int:
        buf, total = self._buf, 0
        for i in range(20_000):
            total += buf[(i * 2654435761) & _MASK]
        keep = []
        for i in range(6_000):
            node = _Node(i, (i, i + 1), {i: i})
            if i % 4 == 0:
                keep.append(node)
        heap: list = []
        echo = _echo()
        next(echo)
        for i in range(4_000):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            total += echo.send(i)
            if len(heap) > 64:
                heapq.heappop(heap)
        return total + len(keep)

    def mark(self) -> Mark:
        """Run the reference once, bracketed by CPU clock reads."""
        before = time.process_time()
        self._reference()
        after = time.process_time()
        return before, after, after - before

    def reference_s(self) -> float:
        return self.mark()[2]

    @staticmethod
    def rates(marks: List[Mark], ops_per_segment: int) -> List[float]:
        """Ops per reference second in each segment between two marks."""
        out = []
        for (_b0, a0, ref0), (b1, _a1, ref1) in zip(marks, marks[1:]):
            cpu_s = b1 - a0
            out.append(ops_per_segment / cpu_s * (ref0 + ref1) / 2 / REF_S)
        return out

    def timed(self, fn) -> Tuple[float, float]:
        """Run ``fn()``; returns (reference seconds, CPU seconds) it took."""
        ref0 = self.reference_s()
        t0 = time.process_time()
        fn()
        cpu_s = time.process_time() - t0
        ref1 = self.reference_s()
        return cpu_s * REF_S / ((ref0 + ref1) / 2), cpu_s
