"""repro.lint — domain-aware static analysis for the MilBack codebase.

The generic linters in the Python ecosystem cannot see MilBack's physics
conventions: that random draws must flow through seeded Generators, that
a name holding 26.5 GHz had better say so, or that comparing two noisy
signal floats with ``==`` is a reproducibility bug waiting to happen.
This package is an AST-based rule engine for exactly those conventions.

Run it with ``python -m repro.lint src`` or the ``milback-lint`` console
script.  Rules live in :mod:`repro.lint.rules` and register themselves
with the registry in :mod:`repro.lint.core`; suppress a finding on one
line with ``# milback: disable=ML00X`` or for a whole file with
``# milback: disable-file=ML00X`` near the top of the module.
"""

from __future__ import annotations

from repro.lint.core import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    Severity,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    register,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register",
]

# Importing the rules package registers every built-in ML rule.
from repro.lint import rules as _rules  # noqa: E402  (registration side effect)

del _rules
