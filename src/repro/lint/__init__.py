"""repro.lint — protocol-aware static analysis.

A checker registry over the stdlib ``ast`` enforcing the
invariants the Solros design states but Python cannot — sim-coroutine
discipline, determinism of simulated packages, RPC registry
conformance, and lock acquire/release nesting.  Run it with
``python -m repro.lint [--json]``.

Lock ordering needs no runtime check: no simulated path acquires a
transport lock while its core holds another, so a lock-order graph
would stay empty (``tests/test_sched.py`` pins that).  The ring's slot
phases need no checker either: ``RingBuffer`` checks them on every run.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and the inline
suppressions.
"""

from .core import (
    Checker,
    Finding,
    Module,
    Project,
    all_checkers,
    load_project,
    register,
    repo_root,
    run_checkers,
)

__all__ = [
    "Checker",
    "Finding",
    "Module",
    "Project",
    "all_checkers",
    "load_project",
    "register",
    "repo_root",
    "run_checkers",
]
