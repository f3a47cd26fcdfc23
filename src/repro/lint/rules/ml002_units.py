"""ML002 — physical quantities must carry unit suffixes.

GHz-vs-Hz chirp-slope mixups are the classic silent killer in FMCW
code: every term in the beat-frequency equation is "just a float".  The
codebase convention is that any name bound to a unit-bearing value ends
in its unit (``_hz``, ``_m``, ``_s``, ``_db``, ``_dbm``, ``_rad``,
``_deg``, ...).  This rule flags assignments where the right-hand side
provably carries a unit (see :mod:`repro.lint.units` for the inference
rules) but the target name does not.

Renaming to *any* recognised unit suffix satisfies the rule — the rule
checks that units are declared, not that conversions are correct (that
is what :mod:`repro.utils.units` helpers are for).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register
from repro.lint.units import infer_unit, unit_of_name

__all__ = ["UnitSuffixRule"]


@register
class UnitSuffixRule(Rule):
    rule_id = "ML002"
    name = "unit-suffix-required"
    description = (
        "Names assigned from unit-bearing expressions must end in a unit "
        "suffix (_hz, _m, _s, _db, _dbm, _rad, _deg, ...)."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            unit = infer_unit(value)
            if unit is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue  # tuple unpacking / attributes: out of scope
                name = target.id
                if name.startswith("_"):
                    continue  # throwaway / private accumulator names
                if unit_of_name(name) is None:
                    yield module.finding(
                        self,
                        target,
                        f"'{name}' is assigned a value in {unit.replace('_', ' ')} "
                        f"but carries no unit suffix (e.g. '{name}_{unit}')",
                    )
