"""ML003 — no ``==`` / ``!=`` on float or complex signal values.

Exact equality on floats that came out of a signal chain (FFT bins,
BERs, beat frequencies) is either vacuously false or true only by
accident of rounding; both ways it makes experiments irreproducible
across BLAS builds.  Use ``np.isclose`` / ``math.isclose`` or an
explicit tolerance; for genuine sentinels (a count-derived 0.0) either
compare the underlying integer count or suppress with a justification.

The rule fires when one side of an ``==`` / ``!=`` is a float/complex
literal, or when either side carries a physical-unit suffix (those
names are floats by convention in this codebase).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register
from repro.lint.units import infer_unit

__all__ = ["FloatEqualityRule"]


def _is_floatlike(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatlike(node.operand)
    return infer_unit(node) is not None


@register
class FloatEqualityRule(Rule):
    rule_id = "ML003"
    name = "no-float-equality"
    description = (
        "Float/complex signal values must not be compared with == / !=; "
        "use np.isclose or an explicit tolerance."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            comparators = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, comparators, comparators[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floatlike(left) or _is_floatlike(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield module.finding(
                        self,
                        left,
                        f"'{symbol}' on a float/complex quantity; use "
                        "np.isclose/math.isclose or compare an integer count",
                    )
