"""ML012 — no hidden entropy or wall-clock reads in library code.

The repo's bitwise-replay guarantees (serial-vs-parallel equality,
kernel-vs-oracle equality, fault no-op invariants) hold only while every
source of nondeterminism is an explicit input: RNG draws flow from
seeded ``numpy.random.Generator`` streams (ML001 polices the numpy
side), and simulated time comes from the protocol's own clock.  One
stray ``random.random()``, ``time.time()``, ``datetime.now()`` or
``os.urandom()`` in library code silently breaks all three guarantees.

Names are resolved through the module's import table, so aliased
spellings (``from random import choice``, ``import time as clock``,
``from datetime import datetime``) are seen for what they are, while
``rng.random()`` on a passed-in ``Generator`` — a *method*, not the
stdlib module — is naturally allowed.

Scope: files under ``repro/`` except ``repro/utils/rng.py`` (the one
place fresh entropy is deliberately allowed) and anything under a
``tests``/``benchmarks``/``examples`` directory.  Monotonic timing
(``time.perf_counter``, ``time.monotonic``) is fine — it never feeds
physics, only observability.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register
from repro.lint.imports import ImportTable

__all__ = ["DeterminismRule", "FORBIDDEN_CALLS", "STDLIB_RANDOM_MODULE"]  # milback: disable=ML014 — documented rule knobs

#: Absolute dotted names whose use is nondeterministic by construction.
FORBIDDEN_CALLS: dict[str, str] = {
    "time.time": "wall-clock read; use the protocol's simulated clock or time.perf_counter for observability",
    "time.time_ns": "wall-clock read; use the protocol's simulated clock or time.perf_counter for observability",
    "os.urandom": "OS entropy; draw from a seeded numpy Generator via repro.utils.rng",
    "datetime.datetime.now": "wall-clock read; pass timestamps in explicitly",
    "datetime.datetime.utcnow": "wall-clock read; pass timestamps in explicitly",
    "datetime.datetime.today": "wall-clock read; pass timestamps in explicitly",
    "datetime.date.today": "wall-clock read; pass timestamps in explicitly",
}

#: The stdlib global-state RNG module: every attribute is off-limits.
STDLIB_RANDOM_MODULE = "random"

#: Paths exempt from the rule (relative suffix under the repro tree).
_EXEMPT_SUFFIXES = (("repro", "utils", "rng.py"),)
_EXEMPT_DIRS = frozenset({"tests", "benchmarks", "examples"})


def _is_library_path(path: str) -> bool:
    parts = PurePath(path).parts
    if "repro" not in parts:
        return False
    if _EXEMPT_DIRS.intersection(parts):
        return False
    for suffix in _EXEMPT_SUFFIXES:
        if parts[-len(suffix):] == suffix:
            return False
    return True


def _violation(resolved: str) -> str | None:
    """The reason ``resolved`` is forbidden, or None when it is fine."""
    reason = FORBIDDEN_CALLS.get(resolved)
    if reason is not None:
        return reason
    head, _, rest = resolved.partition(".")
    if head == STDLIB_RANDOM_MODULE and rest:
        return (
            "stdlib random global state; draw from a seeded numpy "
            "Generator via repro.utils.rng"
        )
    return None


class _ReferenceVisitor(ast.NodeVisitor):
    """Collect resolved name references without double-counting chains."""

    def __init__(self, table: ImportTable) -> None:
        self.table = table
        self.hits: list[tuple[str, ast.expr]] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self.table.resolve(node)
        if resolved is not None:
            if _violation(resolved) is not None:
                self.hits.append((resolved, node))
            return  # the full chain subsumes its sub-chains
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        resolved = self.table.resolve_dotted(node.id)
        if resolved is not None and resolved != node.id and _violation(resolved) is not None:
            self.hits.append((resolved, node))


@register
class DeterminismRule(Rule):
    rule_id = "ML012"
    name = "deterministic-library-code"
    description = (
        "Library code must not read hidden entropy or the wall clock: no "
        "stdlib random.*, time.time(), datetime.now()/today(), or "
        "os.urandom() outside repro/utils/rng.py and benchmarks."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not _is_library_path(module.path):
            return
        table = ImportTable.from_tree(module.tree)
        visitor = _ReferenceVisitor(table)
        visitor.visit(module.tree)
        for resolved, node in visitor.hits:
            yield module.finding(
                self,
                node,
                f"nondeterministic reference {resolved}: {_violation(resolved)}",
            )
