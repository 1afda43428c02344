"""Observability conformance: code and catalog must agree.

``docs/OBSERVABILITY.md`` is the contract for the ``repro.obs``
surface: a fixed set of span categories and a metric catalog.  This
checker extracts every emission site from the AST —

* span categories: the second positional argument of
  ``tracer.begin/root/child(name, category, ...)``,
* metric names: the first argument of ``.counter()/.gauge()/
  .histogram()/.meter()`` registry calls,

— and verifies (1) the naming scheme (lowercase dotted segments),
(2) every span category is one the documentation table defines, and
(3) every metric name matches a documented catalog entry, where
``<name>``-style placeholders in the docs and f-string interpolations
in the code both act as single-segment wildcards.

When the documentation file is absent from the project under analysis
(e.g. fixture projects in tests), only the naming-scheme check runs.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Set, Tuple

from ..core import Checker, Finding, Module, Project, register

RULE = "obs-conformance"

OBS_DOC = "docs/OBSERVABILITY.md"
_METRIC_METHODS = ("counter", "gauge", "histogram", "meter")
_SPAN_METHODS = ("begin", "root", "child")
_SEGMENT_RE = re.compile(r"^[a-z0-9_*-]+$")


def _literal_or_pattern(node: ast.AST) -> Optional[str]:
    """A string literal, or an f-string with interpolations replaced
    by ``*``; None for anything dynamic beyond that."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


def doc_metric_patterns(doc: str) -> List[str]:
    """Parse the metric-catalog table: every backticked token in the
    first column, expanding ``/ `.suffix` `` shorthand rows."""
    patterns: List[str] = []
    for line in doc.splitlines():
        if not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        tokens = re.findall(r"`([^`]+)`", first_cell)
        for tok in tokens:
            tok = tok.strip()
            if not tok or " " in tok:
                continue
            if tok.startswith("."):
                if not patterns:
                    continue
                # `ring.<name>.copy.dma` / `.memcpy` — replace the
                # previous pattern's tail with this suffix.
                prev = patterns[-1].split(".")
                suffix = tok[1:].split(".")
                patterns.append(
                    ".".join(prev[: len(prev) - len(suffix)] + suffix)
                )
            elif "." in tok:
                patterns.append(tok)
    return patterns


def doc_span_categories(doc: str) -> Set[str]:
    """Parse the span-category table: backticked single-word tokens in
    the first column of rows whose token has no dot."""
    cats: Set[str] = set()
    for line in doc.splitlines():
        if not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        tokens = re.findall(r"`([a-z]+)`", first_cell)
        for tok in tokens:
            if "." not in tok and first_cell.strip().startswith("`"):
                cats.add(tok)
    return cats


def _normalize_doc_segment(seg: str) -> str:
    """``<name>`` and ``c{0,1,2}``-style placeholders -> wildcards."""
    seg = re.sub(r"<[^>]+>", "*", seg)
    seg = re.sub(r"\{[^}]+\}", "*", seg)
    return seg


def _segments_match(code_seg: str, doc_seg: str) -> bool:
    """Two-sided wildcard match of one dotted segment."""
    doc_seg = _normalize_doc_segment(doc_seg)
    code_re = re.escape(code_seg).replace(r"\*", ".*")
    doc_re = re.escape(doc_seg).replace(r"\*", ".*")
    return bool(
        re.fullmatch(doc_re, code_seg)
        or re.fullmatch(code_re, doc_seg)
    )


def metric_matches(code_name: str, doc_pattern: str) -> bool:
    code_parts = code_name.split(".")
    doc_parts = doc_pattern.split(".")
    if len(code_parts) != len(doc_parts):
        return False
    return all(
        _segments_match(c, d) for c, d in zip(code_parts, doc_parts)
    )


def _metric_sites(mod: Module) -> Iterable[Tuple[str, int, int]]:
    """``(name_pattern, line, col)`` of registry metric creations."""
    for node in ast.walk(mod.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_METHODS
            and node.args
        ):
            continue
        receiver = node.func.value
        # Only registry-shaped receivers: ``metrics.counter`` or
        # ``self.metrics.counter`` — not e.g. collections.Counter.
        rname = None
        if isinstance(receiver, ast.Name):
            rname = receiver.id
        elif isinstance(receiver, ast.Attribute):
            rname = receiver.attr
        if rname not in ("metrics", "registry"):
            continue
        pattern = _literal_or_pattern(node.args[0])
        if pattern is not None:
            yield pattern, node.lineno, node.col_offset


def _span_sites(mod: Module) -> Iterable[Tuple[str, int, int]]:
    """``(category, line, col)`` of ``tracer.begin/root/child`` calls."""
    for node in ast.walk(mod.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SPAN_METHODS
            and len(node.args) >= 2
        ):
            continue
        receiver = node.func.value
        rname = None
        if isinstance(receiver, ast.Name):
            rname = receiver.id
        elif isinstance(receiver, ast.Attribute):
            rname = receiver.attr
        if rname != "tracer":
            continue
        cat = node.args[1]
        if isinstance(cat, ast.Constant) and isinstance(cat.value, str):
            yield cat.value, node.lineno, node.col_offset


@register
class ObsConformance(Checker):
    name = RULE
    doc = (
        "metric names and span categories follow the naming scheme "
        "and appear in docs/OBSERVABILITY.md"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        doc = project.docs.get(OBS_DOC)
        patterns = doc_metric_patterns(doc) if doc else None
        categories = doc_span_categories(doc) if doc else None
        for mod in project.modules:
            if mod.name.startswith("repro.lint"):
                continue
            for name, line, col in _metric_sites(mod):
                bad_seg = next(
                    (
                        seg
                        for seg in name.split(".")
                        if not _SEGMENT_RE.match(seg)
                    ),
                    None,
                )
                if bad_seg is not None or name != name.lower():
                    yield Finding(
                        RULE, mod.path, line, col,
                        f"metric {name!r} violates the naming scheme "
                        f"(lowercase dotted segments)",
                    )
                    continue
                if patterns is not None and not any(
                    metric_matches(name, p) for p in patterns
                ):
                    yield Finding(
                        RULE, mod.path, line, col,
                        f"metric {name!r} is not documented in "
                        f"{OBS_DOC}'s metric catalog",
                    )
            for cat, line, col in _span_sites(mod):
                if categories is not None and cat not in categories:
                    yield Finding(
                        RULE, mod.path, line, col,
                        f"span category {cat!r} is not one of the "
                        f"documented categories {sorted(categories)}",
                    )
