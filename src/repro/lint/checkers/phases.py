"""Lock protocol ordering, statically.

``yield from lock.acquire(...)`` / ``lock.release(...)`` must be
well-nested per function body: releases match the most recent
unreleased acquire *of the same receiver*, and no acquire survives to
the end of the function.  (Functions that *are* lock wrappers — named
``acquire``/``release`` — are exempt: they implement the protocol
rather than use it.)

The ring's slot phases (Figure 5's enqueue -> copy -> ready and
dequeue -> copy -> done) are not checked here: ``RingBuffer`` raises
on any misordered phase at run time, including for slots that pass
through a store, which this per-function walk cannot follow.

The analysis is a linear walk of each function body in source order
(try bodies before their finally blocks, matching execution order for
the straight-line protocol code this stack uses).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from ..core import Checker, Finding, Module, Project, register

RULE = "lock-phase"


def _receiver_key(func: ast.Attribute) -> str:
    """Stable textual key for a call receiver, e.g. ``self._tail_lock``."""
    return ast.unparse(func.value)


def _linear_statements(body: List[ast.stmt]) -> Iterable[ast.stmt]:
    """Statements in source/execution order, descending into compound
    statements (try bodies precede finally blocks).  Nested function
    and class bodies are their own scopes and are NOT descended into —
    ``check`` analyzes them separately."""
    for stmt in body:
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                yield from _linear_statements(sub)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _linear_statements(handler.body)


def _calls_in(stmt: ast.stmt) -> Iterable[ast.Call]:
    """Attribute calls belonging to exactly this statement: nested
    *statements* (try/if/for bodies) are excluded — the linear walk
    yields those separately — as are nested function scopes."""
    stack: List[ast.AST] = []
    for child in ast.iter_child_nodes(stmt):
        if not isinstance(child, (ast.stmt, ast.ExceptHandler)):
            stack.append(child)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class LockPhaseOrdering(Checker):
    name = RULE
    doc = "acquire/release well-nested per function"

    def check(self, project: Project) -> Iterable[Finding]:
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name in ("acquire", "release", "request"):
                        continue  # lock wrappers implement the protocol
                    yield from self._check_function(mod, node)

    # ------------------------------------------------------------------
    # Per-function linear analysis
    # ------------------------------------------------------------------
    def _check_function(self, mod: Module, func: ast.AST) -> Iterable[Finding]:
        lock_stack: List[Tuple[str, int]] = []  # (receiver, line)
        findings: List[Finding] = []

        for stmt in _linear_statements(func.body):
            for call in _calls_in(stmt):
                attr = call.func.attr
                key = _receiver_key(call.func)
                if attr in ("acquire", "request"):
                    lock_stack.append((key, call.lineno))
                elif attr == "release":
                    if lock_stack and lock_stack[-1][0] == key:
                        lock_stack.pop()
                    elif any(k == key for k, _l in lock_stack):
                        findings.append(Finding(
                            RULE, mod.path, call.lineno, call.col_offset,
                            f"release of {key!r} is not well-nested: "
                            f"{lock_stack[-1][0]!r} was acquired more "
                            f"recently and is still held",
                        ))
                        lock_stack[:] = [
                            e for e in lock_stack if e[0] != key
                        ]
                    else:
                        findings.append(Finding(
                            RULE, mod.path, call.lineno, call.col_offset,
                            f"release of {key!r} without a matching "
                            f"acquire in this function",
                        ))
        for key, line in lock_stack:
            findings.append(Finding(
                RULE, mod.path, line, 0,
                f"{key!r} acquired but never released in "
                f"{getattr(func, 'name', '?')}()",
            ))
        return findings
