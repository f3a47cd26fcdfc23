"""ML007 — no bare ``print()`` in library code.

The repo's runtime signal is :mod:`repro.obs`: metrics, spans, and the
exporters. A stray ``print()`` deep in the simulator bypasses all of it
— it cannot be redirected, filtered, or captured in a trace artifact,
and it corrupts the stdout of every consumer that parses experiment
output. Library code should return strings (the ``main() -> str``
experiment convention), record events via ``repro.obs``, or raise.

Deliberate CLI/report surfaces (the ``repro``/``repro.lint``/``obs.check``
command-line front ends, ``if __name__ == "__main__":`` script blocks)
suppress the rule explicitly with ``# milback: disable=ML007`` plus a
justification — the pragma *is* the declaration that stdout is that
line's intended interface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register

__all__ = ["BarePrintRule"]


@register
class BarePrintRule(Rule):
    rule_id = "ML007"
    name = "no-bare-print"
    description = (
        "Library code must not call print(); return strings, use repro.obs, "
        "or mark a deliberate CLI surface with '# milback: disable=ML007'."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        shadowed = _module_level_rebindings(module.tree)
        for node in module.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and "print" not in shadowed
            ):
                yield module.finding(
                    self,
                    node,
                    "bare print() in library code; return a string, record via "
                    "repro.obs, or suppress on a deliberate CLI surface",
                )


def _module_level_rebindings(tree: ast.Module) -> frozenset[str]:
    """Names assigned/imported at module top level (a rebound ``print`` is
    no longer the builtin, so calling it is not ML007's business)."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
    return frozenset(bound)
