"""Module-local import/name resolution shared by lint rules.

Several rules care about *what a name actually refers to* rather than
what the attribute chain literally spells: ``import numpy.random as
npr; npr.rand()`` and ``from numpy import random; random.rand()`` are
the same legacy global-state call as ``np.random.rand()``.  The
:class:`ImportTable` built here maps every locally bound name to the
absolute dotted path it was imported as — including simple module
aliases created by assignment (``nr = np.random``) — so rules resolve
chains through the table instead of pattern-matching source text.

The resolution is deliberately module-local and flow-insensitive: a
name rebound to something other than an import simply disappears from
the table (conservative, no false positives from shadowing).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

__all__ = ["ImportTable", "dotted_chain", "resolve_relative_module"]


def dotted_chain(node: ast.expr) -> str | None:
    """``np.random.rand`` → ``"np.random.rand"`` (None when not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_relative_module(module: str | None, level: int, package: str | None) -> str | None:
    """Absolutise a possibly-relative ``from``-import target.

    ``package`` is the dotted package the importing module lives in
    (``repro.sim`` for ``repro/sim/engine.py``); unknown packages leave
    relative imports unresolved (None).
    """
    if level == 0:
        return module
    if package is None:
        return None
    parts = package.split(".")
    if level - 1 >= len(parts):
        return None
    base = parts[: len(parts) - (level - 1)]
    if module:
        base.append(module)
    return ".".join(base)


class ImportTable:
    """Local name → absolute dotted import path for one module."""

    def __init__(self) -> None:
        self._bindings: dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.Module, package: str | None = None) -> "ImportTable":
        """Collect import bindings (and simple module aliases) from ``tree``."""
        table = cls()
        rebound: set[str] = set()
        assignments: list[ast.Assign | ast.AnnAssign] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                assignments.append(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table._bindings[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the top name only;
                        # the rest of the chain resolves naturally.
                        top = alias.name.split(".", 1)[0]
                        table._bindings[top] = top
            elif isinstance(node, ast.ImportFrom):
                module = resolve_relative_module(node.module, node.level, package)
                if module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table._bindings[alias.asname or alias.name] = f"{module}.{alias.name}"
        # Then straight aliases of an import chain (``nr = np.random``)
        # extend the table; any other assignment to a tracked name marks
        # it rebound.
        aliases: dict[str, str] = {}
        for node in assignments:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                resolved = table.resolve(value) if value is not None else None
                if resolved is not None:
                    aliases.setdefault(target.id, resolved)
                else:
                    rebound.add(target.id)
        for name, resolved in aliases.items():
            if name not in rebound:
                table._bindings.setdefault(name, resolved)
        # A name that is imported *and* rebound to something that is not
        # an import chain is ambiguous; drop it rather than guess.
        for name in rebound:
            table._bindings.pop(name, None)
        return table

    def resolve(self, node: ast.expr | None) -> str | None:
        """Absolute dotted path for an attribute/name chain, if importable."""
        if node is None:
            return None
        chain = dotted_chain(node)
        if chain is None:
            return None
        return self.resolve_dotted(chain)

    def resolve_dotted(self, chain: str) -> str | None:
        """Resolve a pre-stringified chain through the binding table."""
        head, _, rest = chain.partition(".")
        base = self._bindings.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    def references(self, nodes: Iterable[ast.AST]) -> Iterator[tuple[str, ast.expr]]:
        """``(absolute path, node)`` for each outermost chain that resolves.

        ``nodes`` must list parents before children, as ``ast.walk``
        does: a resolved ``np.random.rand`` then hides its sub-chains
        ``np.random`` and ``np``.  Loaded bare names resolve too.
        """
        covered: set[int] = set()
        for node in nodes:
            if id(node) in covered:
                continue
            if isinstance(node, ast.Attribute):
                resolved = self.resolve(node)
                if resolved is None:
                    continue
                inner: ast.expr = node.value
                while isinstance(inner, ast.Attribute):
                    covered.add(id(inner))
                    inner = inner.value
                covered.add(id(inner))
                yield resolved, node
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                resolved = self.resolve_dotted(node.id)
                if resolved is not None:
                    yield resolved, node
