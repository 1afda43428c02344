"""RPC registry conformance across the split-OS boundary.

The Solros protocol surface is machine-checkable (TabulaROSA-style
interface contracts between heterogeneous engines).  Both delegated
protocols declare one record class per message (a ``class`` statement,
here ``NamedTuple`` records), and one rule covers both: every message
class in the protocol module must have *exactly one* ``isinstance``
dispatch branch in its control-plane handler module and at least one
construction site (emitter) outside those two modules — a handler-less
message crashes the proxy at runtime, an emitter-less one is dead
protocol surface.

The rule cannot be switched off by moving the protocol: a project that
holds the ``repro`` package, or either module of a protocol, must hold
both of that protocol's modules, and the message module must declare
at least one message class (records built by a factory call, for
example, declare none).  Each gap is a finding.

* **9P** — the ``T*`` classes of ``repro/fs/ninep.py``, handled by
  ``repro/fs/proxy.py``.
* **net** — the ``Net*`` classes of ``repro/net/packets.py``, handled
  by ``repro/net/service.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..core import Checker, Finding, Module, Project, register

RULE = "rpc-conformance"

# (message module, message class-name prefix, handler module)
PROTOCOLS = (
    ("fs/ninep.py", "T", "fs/proxy.py"),
    ("net/packets.py", "Net", "net/service.py"),
)


def _find(project: Project, suffix: str) -> Optional[Module]:
    for mod in project.modules:
        if mod.path.endswith(suffix):
            return mod
    return None


def _opcode_classes(mod: Module, prefix: str) -> Dict[str, int]:
    """Message classes named ``<prefix>*`` -> definition line."""
    ops: Dict[str, int] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ClassDef) and node.name.startswith(prefix):
            ops[node.name] = node.lineno
    return ops


def _isinstance_targets(mod: Module) -> Dict[str, List[int]]:
    """Class names used in ``isinstance(x, Cls)`` checks -> lines."""
    targets: Dict[str, List[int]] = {}
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            cls = node.args[1]
            names = (
                [e for e in cls.elts] if isinstance(cls, ast.Tuple) else [cls]
            )
            for n in names:
                if isinstance(n, ast.Name):
                    targets.setdefault(n.id, []).append(node.lineno)
    return targets


def _constructions(mod: Module, names: Set[str]) -> Set[str]:
    """Which of ``names`` are called (constructed) in ``mod``."""
    used: Set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in names:
                used.add(node.func.id)
    return used


@register
class RpcConformance(Checker):
    name = RULE
    doc = (
        "every 9P and net message class has exactly one proxy-side "
        "isinstance handler and at least one stub-side emitter"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        package = _find(project, "repro/__init__.py")
        for messages_suffix, prefix, handler_suffix in PROTOCOLS:
            messages = _find(project, messages_suffix)
            handler = _find(project, handler_suffix)
            if messages is not None and handler is not None:
                yield from self._check(project, messages, prefix, handler)
                continue
            anchor = messages or handler or package
            if anchor is None:
                continue  # the project holds neither this protocol nor repro
            for suffix, mod in (
                (messages_suffix, messages), (handler_suffix, handler)
            ):
                if mod is None:
                    yield Finding(
                        RULE, anchor.path, 1, 0,
                        f"protocol module {suffix} not found — its "
                        f"{prefix}* messages go unchecked",
                    )

    def _check(
        self, project: Project, messages: Module, prefix: str, proxy: Module
    ) -> Iterable[Finding]:
        ops = _opcode_classes(messages, prefix)
        if not ops:
            yield Finding(
                RULE, messages.path, 1, 0,
                f"no {prefix}* message class declared in {messages.path} "
                f"— nothing to check against {proxy.path}",
            )
            return
        handled = _isinstance_targets(proxy)
        emitters: Set[str] = set()
        for mod in project.modules:
            if mod.path in (messages.path, proxy.path):
                continue
            emitters |= _constructions(mod, set(ops))
        for op, line in sorted(ops.items()):
            branches = handled.get(op, [])
            if not branches:
                yield Finding(
                    RULE, messages.path, line, 0,
                    f"opcode {op} has no proxy-side isinstance handler "
                    f"in {proxy.path} — the proxy will raise on it",
                )
            elif len(branches) > 1:
                yield Finding(
                    RULE, proxy.path, branches[1], 0,
                    f"opcode {op} dispatched by {len(branches)} proxy "
                    f"branches (lines {branches}) — exactly one expected",
                )
            if op not in emitters:
                yield Finding(
                    RULE, messages.path, line, 0,
                    f"opcode {op} is never emitted by any stub-side "
                    f"module — dead protocol surface",
                )
