"""repro.lint — protocol-aware static analysis + runtime sanitizer.

Static side (stdlib ``ast``): a checker registry enforcing the
invariants the Solros design states but Python cannot — sim-coroutine
discipline, determinism of simulated packages, RPC registry
conformance, and lock acquire/release nesting.  Run it with
``python -m repro.lint [--json]``.

Runtime side (:mod:`repro.lint.sanitize`): a lockdep-style acquisition
-order graph with cycle detection, armed by ``REPRO_SANITIZE=1`` and
wired into the transport locks at near-zero cost when disabled.  The
ring's slot phases need neither side: ``RingBuffer`` checks them on
every run.

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
from .sanitize import SANITIZER, Sanitizer, SanitizerError

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
    "SANITIZER",
    "Sanitizer",
    "SanitizerError",
]
