"""Sim-coroutine discipline: a discarded generator call is a no-op.

Everything timed in this reproduction is a generator coroutine driven
with ``yield from`` by the simulation engine.  Calling one and
discarding the result executes *nothing* — the classic simulation bug
class, and exactly the failure mode that motivates checking OS
structure invariants on the code graph instead of by convention.

A pure-delay helper (``-> Delay``, e.g. ``Core.syscall``) returns the
nanoseconds to ``yield``; discarding that skips the delay just as
silently.  The checker builds a cross-module index of both kinds
(``yield``-bearing bodies, ``-> Generator`` and ``-> Delay``
annotations), then flags any *statement-expression* call whose callee
name resolves — unambiguously, across the whole project — to one.  Calls whose value is consumed (``yield from``, ``return``,
assignment, argument position such as ``engine.spawn(...)``) are fine:
the generator object survives to be driven later.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..core import Checker, Finding, Project, register

RULE = "coroutine-discipline"


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class CoroutineDiscipline(Checker):
    name = RULE
    doc = (
        "generator-returning sim functions must be yield-from'ed, "
        "returned, assigned, or handed to the engine, and delays "
        "yielded — a discarded call silently does nothing"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Expr):
                    continue
                value = node.value
                if not isinstance(value, ast.Call):
                    continue  # yield/yield-from/awaits are not bare calls
                name = _call_name(value)
                if name is None or name.startswith("__"):
                    continue
                if project.callable_is_generator(name):
                    yield Finding(
                        RULE,
                        mod.path,
                        value.lineno,
                        value.col_offset,
                        f"call to generator or delay {name!r} discards "
                        f"its result — did you mean 'yield from "
                        f"{ast.unparse(value.func)}(...)' (or 'yield' for "
                        f"a delay)?",
                    )
