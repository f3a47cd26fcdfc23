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

from pathlib import PurePath
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register

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
        for resolved, node in module.imports.references(module.nodes):
            reason = _violation(resolved)
            if reason is not None:
                yield module.finding(
                    self, node, f"nondeterministic reference {resolved}: {reason}"
                )
