"""RPC registry conformance across the split-OS boundary.

The Solros protocol surface is machine-checkable (TabulaROSA-style
interface contracts between heterogeneous engines):

* **9P opcodes** — every ``T*`` message dataclass in
  ``repro/fs/ninep.py`` must have *exactly one* ``isinstance`` dispatch
  branch in the control-plane proxy (``repro/fs/proxy.py``) and at
  least one construction site (emitter) outside the proxy/protocol
  modules — a handler-less opcode crashes the proxy at runtime, an
  emitter-less opcode is dead protocol surface.
* **net opcodes** — the string ops the data-plane socket API emits
  (``("connect", ...)`` tuples) must equal the set the net service's
  ``_rpc`` dispatcher compares against.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..core import Checker, Finding, Module, Project, register

RULE = "rpc-conformance"

NINEP_SUFFIX = "fs/ninep.py"
PROXY_SUFFIX = "fs/proxy.py"
NET_SERVICE_SUFFIX = "net/service.py"
NET_API_SUFFIX = "net/socket_api.py"


def _find(project: Project, suffix: str) -> Optional[Module]:
    for mod in project.modules:
        if mod.path.endswith(suffix):
            return mod
    return None


def _opcode_classes(ninep: Module) -> Dict[str, int]:
    """``T*`` message dataclasses -> definition line."""
    ops: Dict[str, int] = {}
    for node in ast.walk(ninep.tree):
        if isinstance(node, ast.ClassDef) and node.name.startswith("T"):
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


def _string_compare_ops(mod: Module, var_names: Set[str]) -> Set[str]:
    """Literal strings compared (==) against any of ``var_names``."""
    ops: Set[str] = set()
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        names = {
            s.id for s in sides if isinstance(s, ast.Name)
        }
        if not (names & var_names):
            continue
        for s in sides:
            if isinstance(s, ast.Constant) and isinstance(s.value, str):
                ops.add(s.value)
    return ops


def _emitted_net_ops(mod: Module) -> Set[str]:
    """Ops the socket API emits: the first element of every
    ``("op", ...)`` record literal.  Covers both control-plane RPC
    payloads (``rpc.call(core, "net", ("connect", ...))``) and
    data-plane ring records (``outbound.send(core, ("close", ...))``,
    including records bound to a variable first)."""
    ops: Set[str] = set()
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and isinstance(node.elts[0], ast.Constant)
            and isinstance(node.elts[0].value, str)
        ):
            ops.add(node.elts[0].value)
    return ops


@register
class RpcConformance(Checker):
    name = RULE
    doc = (
        "every delegated opcode has exactly one proxy-side handler and "
        "at least one stub-side emitter; net string-ops agree across "
        "the socket API and the service dispatcher"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        yield from self._check_ninep(project)
        yield from self._check_net(project)

    def _check_ninep(self, project: Project) -> Iterable[Finding]:
        ninep = _find(project, NINEP_SUFFIX)
        proxy = _find(project, PROXY_SUFFIX)
        if ninep is None or proxy is None:
            return
        ops = _opcode_classes(ninep)
        handled = _isinstance_targets(proxy)
        emitters: Set[str] = set()
        for mod in project.modules:
            if mod.path in (ninep.path, proxy.path):
                continue
            emitters |= _constructions(mod, set(ops))
        for op, line in sorted(ops.items()):
            branches = handled.get(op, [])
            if not branches:
                yield Finding(
                    RULE, ninep.path, line, 0,
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
                    RULE, ninep.path, line, 0,
                    f"opcode {op} is never emitted by any stub-side "
                    f"module — dead protocol surface",
                )

    def _check_net(self, project: Project) -> Iterable[Finding]:
        service = _find(project, NET_SERVICE_SUFFIX)
        api = _find(project, NET_API_SUFFIX)
        if service is None or api is None:
            return
        handled = _string_compare_ops(service, {"op"})
        emitted = _emitted_net_ops(api)
        if not handled or not emitted:
            return
        for op in sorted(emitted - handled):
            yield Finding(
                RULE, api.path, 0, 0,
                f"net op {op!r} is emitted by the socket API but has no "
                f"dispatch branch in {service.path}",
            )
        for op in sorted(handled - emitted):
            yield Finding(
                RULE, service.path, 0, 0,
                f"net op {op!r} is dispatched by the service but never "
                f"emitted by the socket API",
            )

