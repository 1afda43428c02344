"""Protocol-aware static analysis for the Solros reproduction.

The stack's correctness rests on invariants the paper states but
Python cannot enforce: simulation functions are generator coroutines
(a call without ``yield from`` is a silent no-op), simulated packages
must stay deterministic, every delegated opcode needs a matching
proxy handler, and lock acquire/release must be well-nested.
``repro.lint`` checks these by analysis of the code graph rather than
by convention.

Framework pieces:

* :class:`Finding` — one diagnostic.
* :class:`Module` / :class:`Project` — parsed source files plus the
  cross-module **generator index** shared by checkers.
* :class:`Checker` + :func:`register` — the checker registry; each
  checker sees the whole project (cross-module rules are the point).
* Inline suppressions — ``# lint: allow(<rule>)`` on the offending
  line (or the line above), ``# lint: allow-file(<rule>)`` anywhere
  at column 0 for a whole file.

The CLI lives in ``repro.lint.__main__``::

    python -m repro.lint [--json] [--rule RULE] [paths...]
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Module",
    "Project",
    "Checker",
    "register",
    "all_checkers",
    "load_project",
    "run_checkers",
    "repo_root",
]

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")
_ALLOW_FILE_RE = re.compile(r"^#\s*lint:\s*allow-file\(([^)]*)\)")


class Finding:
    """One diagnostic emitted by a checker."""

    __slots__ = ("rule", "path", "line", "col", "message")

    def __init__(self, rule: str, path: str, line: int, col: int, message: str):
        self.rule = rule
        self.path = path  # repo-relative, '/'-separated
        self.line = line  # 1-based; 0 for whole-file findings
        self.col = col
        self.message = message

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Finding {self.format()}>"


class Module:
    """One parsed source file."""

    def __init__(self, path: str, source: str):
        self.path = path  # repo-relative, '/'-separated
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.name = _module_name(path)
        # Rules suppressed for the whole file.
        self.file_allows: Set[str] = set()
        for line in self.lines:
            m = _ALLOW_FILE_RE.match(line)
            if m:
                self.file_allows.update(
                    r.strip() for r in m.group(1).split(",") if r.strip()
                )

    def allows(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed at ``line`` (inline on the
        line, on the line above, or file-wide)."""
        if rule in self.file_allows or "*" in self.file_allows:
            return True
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self.lines):
                m = _ALLOW_RE.search(self.lines[lineno - 1])
                if m:
                    rules = {r.strip() for r in m.group(1).split(",")}
                    if rule in rules or "*" in rules:
                        return True
        return False


def _module_name(path: str) -> str:
    """Dotted module name from a repo-relative path, e.g.
    ``src/repro/fs/stub.py`` -> ``repro.fs.stub``."""
    parts = Path(path).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _GeneratorDef:
    """One function definition and whether it is a generator."""

    __slots__ = ("module", "qualname", "is_generator", "line")

    def __init__(self, module: str, qualname: str, is_generator: bool, line: int):
        self.module = module
        self.qualname = qualname
        self.is_generator = is_generator
        self.line = line


def _walk_for_yield(func: ast.AST) -> bool:
    """True when ``func``'s own body yields (nested defs excluded)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: its yields are not ours
        stack.extend(ast.iter_child_nodes(node))
    return False


def _annotated_yieldable(func: ast.AST) -> bool:
    """True when ``func`` is annotated to return a generator or a
    ``Delay``: either way its result must be yielded."""
    returns = getattr(func, "returns", None)
    if returns is None:
        return False
    text = ast.dump(returns)
    return "Generator" in text or "Iterator" in text or "Delay" in text


class Project:
    """All parsed modules plus shared cross-module indexes."""

    def __init__(self, modules: List[Module]):
        self.modules = modules
        self.by_path = {m.path: m for m in modules}
        self._gen_defs: Optional[List[_GeneratorDef]] = None
        self._gen_by_name: Optional[Dict[str, List[_GeneratorDef]]] = None

    # ------------------------------------------------------------------
    # Generator index (shared by coroutine + phase checkers)
    # ------------------------------------------------------------------
    def _build_generator_index(self) -> None:
        defs: List[_GeneratorDef] = []
        for mod in self.modules:
            for node, qualname in _iter_functions(mod.tree):
                is_gen = _walk_for_yield(node) or _annotated_yieldable(node)
                defs.append(
                    _GeneratorDef(mod.name, qualname, is_gen, node.lineno)
                )
        self._gen_defs = defs
        by_name: Dict[str, List[_GeneratorDef]] = {}
        for d in defs:
            by_name.setdefault(d.qualname.rsplit(".", 1)[-1], []).append(d)
        self._gen_by_name = by_name

    @property
    def generator_defs(self) -> List[_GeneratorDef]:
        if self._gen_defs is None:
            self._build_generator_index()
        return self._gen_defs  # type: ignore[return-value]

    def callable_is_generator(self, name: str) -> bool:
        """True when every project definition of ``name`` (bare function
        or method, any class) is a generator — the only case where a
        name-based call-site resolution is safe."""
        if self._gen_by_name is None:
            self._build_generator_index()
        defs = self._gen_by_name.get(name)  # type: ignore[union-attr]
        if not defs:
            return False
        return all(d.is_generator for d in defs)


def _iter_functions(tree: ast.AST) -> Iterable[Tuple[ast.AST, str]]:
    """Yield ``(funcdef, qualname)`` for every function in ``tree``."""

    def walk(node: ast.AST, prefix: str) -> Iterable[Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield child, qual
                yield from walk(child, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


# ----------------------------------------------------------------------
# Checker registry
# ----------------------------------------------------------------------
class Checker:
    """Base class: subclasses set ``name``/``doc`` and implement
    :meth:`check` over the whole project."""

    name = "abstract"
    doc = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Checker] = {}


def register(cls):
    """Class decorator adding a checker to the global registry."""
    instance = cls()
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate checker name: {instance.name}")
    _REGISTRY[instance.name] = instance
    return cls


def all_checkers() -> Dict[str, Checker]:
    # Importing the package registers the built-in checkers.
    from . import checkers  # noqa: F401  (import-for-side-effect)

    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Project loading
# ----------------------------------------------------------------------
def repo_root() -> Path:
    """The repository root (three levels above this file's package)."""
    return Path(__file__).resolve().parents[3]


def load_project(
    root: Optional[Path] = None,
    paths: Optional[Sequence[Path]] = None,
) -> Project:
    """Parse every ``src/**/*.py`` under ``root`` (or just ``paths``)
    into a :class:`Project`."""
    root = root or repo_root()
    if paths is None:
        paths = sorted((root / "src").rglob("*.py"))
    modules = []
    for p in paths:
        if p.is_absolute():
            try:
                rel = p.relative_to(root).as_posix()
            except ValueError:  # explicit path outside the repo root
                rel = p.as_posix()
        else:
            rel = str(p)
        modules.append(Module(rel, p.read_text()))
    return Project(modules)


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def run_checkers(
    project: Project,
    only: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Run (a subset of) the registry; returns ``(findings,
    suppressed_count)`` with inline-suppressed findings removed."""
    checkers = all_checkers()
    names = list(only) if only else sorted(checkers)
    findings: List[Finding] = []
    suppressed = 0
    for name in names:
        if name not in checkers:
            raise KeyError(f"unknown checker: {name}")
        for finding in checkers[name].check(project):
            mod = project.by_path.get(finding.path)
            if mod is not None and mod.allows(finding.rule, finding.line):
                suppressed += 1
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings, suppressed
