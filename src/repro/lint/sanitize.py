"""Runtime lock-order sanitizer (lockdep-lite) for the transport stack.

Armed by ``REPRO_SANITIZE=1`` in the environment.  When disabled every
hook is a single attribute check, so the simulated fast path keeps its
cost.  When enabled:

* **Lock ordering** — every ``(lock held) -> (lock acquired)`` pair is
  an edge in a global acquisition-order graph, keyed by lock *label*
  (name + type) rather than instance, exactly like lockdep's lock
  classes: two instances of the same ring's enqueue lock are one node.
  An acquisition that closes a cycle (A taken while holding B, after B
  was ever taken while holding A) raises :class:`SanitizerError` with
  the witness edge set — the simulated analogue of lockdep's inversion
  report.
* **Wait-while-holding** — ``MemCell.wait_until`` while holding locks
  is recorded (not raised: lock-internal handoff legitimately spins on
  cells while queued) so tests can assert on the observed set.

Everything is keyed per *core* (the simulated execution context), not
per OS thread — the simulator is single-threaded but interleaves many
logical cores.  Ring-slot phases are not checked here: ``RingBuffer``
enforces the whole Figure 5 slot lifecycle itself, on every run.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple


class SanitizerError(AssertionError):
    """A lock-ordering invariant was violated at runtime."""


def _label(obj: object) -> str:
    name = getattr(obj, "name", None)
    if name:
        return f"{type(obj).__name__}({name})"
    return f"{type(obj).__name__}@{id(obj):#x}"


class Sanitizer:
    """Global invariant monitor; one instance lives at ``SANITIZER``."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_SANITIZE", "") == "1"
        self.enabled = bool(enabled)
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all state (between tests / simulations)."""
        # core -> locks currently held, innermost last.  Strong refs
        # are fine: entries only live while the lock is held.
        self._held: Dict[object, List[object]] = {}
        # Acquisition-order edges between lock labels (lock classes).
        self.lock_order_edges: Set[Tuple[str, str]] = set()
        self.waits_while_holding: List[Tuple[str, str]] = []
        # Total acquisitions observed — lets tests assert the hooks
        # actually ran before trusting an empty order graph.
        self.acquires = 0

    # ------------------------------------------------------------------
    # Lock hooks
    # ------------------------------------------------------------------
    def on_acquire(self, core: object, lock: object) -> None:
        self.acquires += 1
        held = self._held.setdefault(core, [])
        label = _label(lock)
        for h in held:
            if h is lock:
                raise SanitizerError(
                    f"core {core!r} re-acquired {label} it already "
                    f"holds (self-deadlock)"
                )
            edge = (_label(h), label)
            if edge not in self.lock_order_edges:
                if (edge[1], edge[0]) in self.lock_order_edges:
                    raise SanitizerError(
                        f"lock-order inversion: {edge[0]} -> {edge[1]} "
                        f"(this acquisition, core {core!r}) conflicts "
                        f"with the previously observed order "
                        f"{edge[1]} -> {edge[0]}"
                    )
                self.lock_order_edges.add(edge)
                self._check_cycle(label)
        held.append(lock)

    def on_release(self, core: object, lock: object) -> None:
        held = self._held.get(core, [])
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return
        raise SanitizerError(
            f"core {core!r} released {_label(lock)} it does not hold"
        )

    def _check_cycle(self, start: str) -> None:
        """DFS from ``start``; reaching it again means the newest edge
        closed a cycle (length > 2 — inversions are caught earlier)."""
        stack = [b for (a, b) in self.lock_order_edges if a == start]
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == start:
                raise SanitizerError(
                    f"lock-order cycle through {start}: "
                    f"edges {sorted(self.lock_order_edges)}"
                )
            if node in seen:
                continue
            seen.add(node)
            stack.extend(
                b for (a, b) in self.lock_order_edges if a == node
            )

    # ------------------------------------------------------------------
    # MemCell wait hook
    # ------------------------------------------------------------------
    def on_wait(self, core: object, cell: object) -> None:
        held = self._held.get(core, [])
        if held:
            self.waits_while_holding.append(
                (_label(held[-1]), _label(cell))
            )


SANITIZER = Sanitizer()
