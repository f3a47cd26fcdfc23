"""ML004 — raise the MilBack error hierarchy; never catch blindly.

``src/repro/errors.py`` defines a subsystem-keyed exception hierarchy
under :class:`~repro.errors.MilBackError` precisely so callers can
discriminate failures (a ``DecodingError`` at 9 m is expected physics; a
``ConfigurationError`` is a bug in the caller).  Raising builtin
exceptions bypasses that contract, and ``except Exception`` /
bare ``except`` swallows everything including the bugs.

Allowed: re-raise (``raise`` with no operand), raising a name that is
not a Python builtin exception (assumed to be a domain error), and
``NotImplementedError`` (the structural marker for abstract methods,
not a runtime failure).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register

__all__ = ["ErrorHierarchyRule", "FORBIDDEN_RAISES", "BROAD_HANDLERS"]  # milback: disable=ML014 — documented rule knobs

#: Builtin exceptions that must not be raised directly in src/repro.
FORBIDDEN_RAISES: frozenset[str] = frozenset(
    {
        "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
        "IndexError", "LookupError", "RuntimeError", "ArithmeticError",
        "ZeroDivisionError", "OverflowError", "FloatingPointError",
        "AttributeError", "NameError", "OSError", "IOError", "EOFError",
        "BufferError", "StopIteration", "StopAsyncIteration",
        "AssertionError", "SystemError", "ReferenceError", "MemoryError",
        "UnicodeError", "UnicodeDecodeError", "UnicodeEncodeError",
    }
)

#: Exception types too broad for an ``except`` clause.
BROAD_HANDLERS: frozenset[str] = frozenset({"Exception", "BaseException"})


def _exception_name(node: ast.expr) -> str | None:
    """The class name in ``raise X(...)`` / ``raise X`` / ``except X``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class ErrorHierarchyRule(Rule):
    rule_id = "ML004"
    name = "milback-error-hierarchy"
    description = (
        "Raises must use the MilBackError hierarchy from repro.errors; "
        "no bare except or except Exception."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Raise):
                if node.exc is None:
                    continue  # bare re-raise inside a handler
                name = _exception_name(node.exc)
                if name in FORBIDDEN_RAISES:
                    yield module.finding(
                        self,
                        node,
                        f"raise {name}: use a MilBackError subclass from "
                        "repro.errors so callers can discriminate failures",
                    )
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield module.finding(
                        self,
                        node,
                        "bare 'except:' swallows every failure including "
                        "bugs; catch specific MilBackError subclasses",
                    )
                    continue
                caught = (
                    node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                )
                for exc in caught:
                    name = _exception_name(exc)
                    if name in BROAD_HANDLERS:
                        yield module.finding(
                            self,
                            exc,
                            f"'except {name}' is too broad; catch specific "
                            "MilBackError subclasses",
                        )
