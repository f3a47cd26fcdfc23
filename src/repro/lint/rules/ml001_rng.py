"""ML001 — no legacy ``np.random`` draws.

A Monte-Carlo link simulation is only reproducible when every random
draw flows from a seed the caller controls.  The legacy
``np.random.<fn>`` functions (and ``RandomState``) share hidden global
state, so one stray call silently decorrelates every experiment in the
process.  The fix is the pattern ``src/repro/experiments/`` already
uses: build generators with ``np.random.default_rng(seed)`` (or
``repro.utils.rng.spawn_rngs``) and pass them down.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register

__all__ = ["LegacyNumpyRandomRule", "LEGACY_FUNCTIONS"]  # milback: disable=ML014 — documented rule knob

#: Module-level functions of the legacy global-state RandomState API.
LEGACY_FUNCTIONS: frozenset[str] = frozenset(
    {
        "seed", "get_state", "set_state", "rand", "randn", "randint",
        "random_integers", "random_sample", "random", "ranf", "sample",
        "choice", "bytes", "shuffle", "permutation", "beta", "binomial",
        "chisquare", "dirichlet", "exponential", "f", "gamma", "geometric",
        "gumbel", "hypergeometric", "laplace", "logistic", "lognormal",
        "logseries", "multinomial", "multivariate_normal",
        "negative_binomial", "noncentral_chisquare", "noncentral_f",
        "normal", "pareto", "poisson", "power", "rayleigh",
        "standard_cauchy", "standard_exponential", "standard_gamma",
        "standard_normal", "standard_t", "triangular", "uniform",
        "vonmises", "wald", "weibull", "zipf", "RandomState",
    }
)


def _is_legacy(resolved: str) -> bool:
    """True when an absolute chain lands on a legacy global-state name.

    Matches ``numpy.random.<fn>`` and deeper spellings such as
    ``numpy.random.mtrand.<fn>`` — the resolver has already absolutised
    aliases (``import numpy.random as npr``, ``from numpy import
    random``, ``nr = np.random``), so only the canonical prefix matters.
    """
    parts = resolved.split(".")
    return (
        len(parts) >= 3
        and parts[0] == "numpy"
        and parts[1] == "random"
        and parts[-1] in LEGACY_FUNCTIONS
    )


@register
class LegacyNumpyRandomRule(Rule):
    rule_id = "ML001"
    name = "no-legacy-numpy-random"
    description = (
        "Random draws must use a seeded np.random.default_rng() / passed-in "
        "Generator, never the global-state legacy np.random functions."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name in LEGACY_FUNCTIONS:
                        yield module.finding(
                            self,
                            node,
                            f"import of legacy numpy.random.{alias.name}; "
                            "use np.random.default_rng() or a passed-in Generator",
                        )
            elif isinstance(node, ast.Attribute):
                # Chains resolve through the import table, so any aliased
                # spelling of numpy.random is seen for what it is.
                resolved = module.imports.resolve(node)
                if resolved is not None and _is_legacy(resolved):
                    yield module.finding(
                        self,
                        node,
                        f"legacy global-state call {resolved}; use a seeded "
                        "np.random.default_rng() / passed-in Generator instead",
                    )
