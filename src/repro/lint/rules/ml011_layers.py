"""ML011 — architecture layering, import confinement and import cycles.

The codebase is layered so the physics stays importable without the
protocol stack, and the protocol without the experiment harness:

    constants/errors/utils                      (0, foundations)
      -> phy/dsp                                (1, signal mathematics)
        -> hardware/antennas                    (2, device models)
          -> channel/sim/kernels                (3, propagation + engine)
            -> node/ap/protocol                 (4, endpoints + MAC)
              -> netsim                         (5, fleet-scale network sim)
                -> experiments/analysis/...     (6, harnesses)

A module may import its own layer and anything below; importing *up*
couples a foundation to its consumers and is reported unless the edge
is listed in ``repro/lint/layering_allowlist.txt`` with a justification.
Infrastructure packages (``obs``, ``parallel``, ``lint``, the CLI) are
deliberately outside the order — everything may use them.

Import cycles are always errors, allowlist or not: a cycle means there
is no order in which the modules can initialise without relying on
partially-populated namespaces.  Deferred (function-level) imports and
``TYPE_CHECKING`` guards do not create import-time edges and are
excluded from cycle detection; deferred imports still count for
layering, ``TYPE_CHECKING`` imports do not.

Some imports belong to one package alone (:data:`CONFINED_IMPORTS`):
process pools (``multiprocessing``, ``concurrent.futures``) to
``repro/parallel/``, whose executor owns fork-inherited closures,
pre-spawned RNG streams and the merge of worker obs deltas; and the
fault internals (``repro.faults.spec``/``plan``/``injectors``) to
``repro/faults/``, whose public API keeps the clean pipeline untouched,
draws every corruption from the plan's RNG stream and tallies it in
``faults.injected``.  The check reads every linted file's resolved
import records — inside ``repro`` or not, relative, deferred and
``TYPE_CHECKING`` imports included — and exempts files under the
owning package by path.
"""

from __future__ import annotations

import re
from pathlib import Path, PurePath
from typing import Iterator

from repro.lint.core import Finding, ProjectRule, Severity, register
from repro.lint.project import ModuleSummary, ProjectContext, repro_component

__all__ = [
    "ArchitectureLayerRule",
    "CONFINED_IMPORTS",  # milback: disable=ML014 — documented rule knob
    "LAYERS",
    "UNCONSTRAINED",
    "load_allowlist",
]

#: Declared layer order, bottom (0) to top.  A package may import its
#: own layer and below.
LAYERS: tuple[frozenset[str], ...] = (
    frozenset({"constants", "errors", "utils"}),
    frozenset({"phy", "dsp"}),
    frozenset({"hardware", "antennas"}),
    frozenset({"channel", "sim", "kernels"}),
    frozenset({"node", "ap", "protocol"}),
    frozenset({"netsim"}),
    frozenset(
        {
            "experiments",
            "analysis",
            "baselines",
            "tracking",
            "faults",
            "serialization",
            "datasets",
        }
    ),
)

#: Cross-cutting infrastructure outside the layer order (still subject
#: to cycle detection).
UNCONSTRAINED: frozenset[str] = frozenset({"obs", "parallel", "lint", "cli", "__main__"})

_LAYER_OF: dict[str, int] = {
    package: level for level, packages in enumerate(LAYERS) for package in packages
}

#: Imports confined to one package: dotted module prefix -> owning package.
#: ``repro.faults.campaign`` is deliberately absent: it is orchestration,
#: not corruption machinery, and the CLI drives it directly.
CONFINED_IMPORTS: dict[str, str] = {
    "multiprocessing": "repro.parallel",
    "concurrent": "repro.parallel",
    "repro.faults.spec": "repro.faults",
    "repro.faults.plan": "repro.faults",
    "repro.faults.injectors": "repro.faults",
}

#: What code outside the owning package should do instead.
_CONFINEMENT_HINTS: dict[str, str] = {
    "repro.parallel": "use repro.parallel.parallel_map (or move the code under repro/parallel/)",
    "repro.faults": "inject faults through the repro.faults public API",
}

_ALLOWLIST_PATH = Path(__file__).resolve().parent.parent / "layering_allowlist.txt"

_ENTRY_RE = re.compile(r"^(?P<module>[\w.]+)\s*->\s*(?P<package>\w+)\s*(?:#.*)?$")


def load_allowlist(path: Path | None = None) -> dict[tuple[str, str], int]:
    """Parse the allowlist file into ``{(module, package): line}``."""
    target = path if path is not None else _ALLOWLIST_PATH
    entries: dict[tuple[str, str], int] = {}
    if not target.is_file():
        return entries
    for lineno, raw in enumerate(target.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _ENTRY_RE.match(line)
        if match is not None:
            entries[(match.group("module"), match.group("package"))] = lineno
    return entries


def _confining_owner(module: str) -> str | None:
    """The package ``module`` is confined to, if any prefix of it is."""
    parts = module.split(".")
    for end in range(1, len(parts) + 1):
        owner = CONFINED_IMPORTS.get(".".join(parts[:end]))
        if owner is not None:
            return owner
    return None


def _inside(path: str, package: str) -> bool:
    """True when ``path`` lies in the directory of dotted ``package``."""
    parts, want = PurePath(path).parts, tuple(package.split("."))
    return any(parts[i : i + len(want)] == want for i in range(len(parts)))


@register
class ArchitectureLayerRule(ProjectRule):
    rule_id = "ML011"
    name = "architecture-layering"
    description = (
        "Modules may only import their own layer or below "
        "(constants/errors/utils -> phy/dsp -> hardware/antennas -> "
        "channel/sim/kernels -> node/ap/protocol -> netsim -> "
        "experiments/...); "
        "upward edges need a layering_allowlist.txt entry, cycles are "
        "always errors; process pools and fault internals are imported "
        "only inside repro/parallel/ and repro/faults/."
    )

    def _confinement(self, summary: ModuleSummary) -> Iterator[Finding]:
        reported: set[tuple[int, int, str]] = set()
        for record in summary.imports:
            targets = [record.module]
            if record.name is not None:
                targets.append(f"{record.module}.{record.name}")
            for target in targets:
                owner = _confining_owner(target)
                if owner is None or _inside(summary.path, owner):
                    continue
                key = (record.lineno, record.col, target)
                if key not in reported:
                    reported.add(key)
                    yield Finding(
                        path=summary.path,
                        line=record.lineno,
                        col=record.col + 1,
                        rule_id=self.rule_id,
                        message=(
                            f"confined import: {target} belongs to {owner}; "
                            f"{_CONFINEMENT_HINTS[owner]}"
                        ),
                        severity=self.severity,
                    )
                break

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        allowlist = load_allowlist()
        used_entries: set[tuple[str, str]] = set()

        for summary in project.summaries:
            yield from self._confinement(summary)
            if summary.module is None:
                continue
            src_component = repro_component(summary.module)
            src_layer = _LAYER_OF.get(src_component) if src_component else None
            if src_layer is None:
                continue  # unconstrained or outside repro
            for record in summary.imports:
                if record.type_checking:
                    continue
                target = project.resolve_import_target(record)
                dst_component = repro_component(target)
                if dst_component is None:
                    continue
                dst_layer = _LAYER_OF.get(dst_component)
                if dst_layer is None or dst_layer <= src_layer:
                    continue
                key = (summary.module, dst_component)
                if key in allowlist:
                    used_entries.add(key)
                    continue
                yield Finding(
                    path=summary.path,
                    line=record.lineno,
                    col=record.col + 1,
                    rule_id=self.rule_id,
                    message=(
                        f"layering violation: {summary.module} (layer {src_layer}, "
                        f"{src_component}) imports {target} (layer {dst_layer}, "
                        f"{dst_component}); import down the stack or add a "
                        "justified layering_allowlist.txt entry"
                    ),
                    severity=self.severity,
                )

        # Stale allowlist entries rot the exception list; report them as
        # warnings, but only when this run lints the tree the allowlist
        # belongs to (fixture trees may reuse real module names) and the
        # named module is part of the run.
        owns_allowlist = "repro.lint.rules.ml011_layers" in project.by_module
        for (module, package), lineno in sorted(allowlist.items()):
            if not owns_allowlist:
                break
            if module in project.by_module and (module, package) not in used_entries:
                yield Finding(
                    path=str(_ALLOWLIST_PATH),
                    line=lineno,
                    col=1,
                    rule_id=self.rule_id,
                    message=(
                        f"stale allowlist entry: {module} no longer imports "
                        f"upward into {package}; remove the exception"
                    ),
                    severity=Severity.WARNING,
                )

        for cycle in project.cycles():
            anchor = project.by_module[cycle[0]]
            line, col = 1, 1
            for record in anchor.imports:
                if record.deferred or record.type_checking:
                    continue
                if project.resolve_import_target(record) in cycle:
                    line, col = record.lineno, record.col + 1
                    break
            chain = " -> ".join(cycle + [cycle[0]])
            yield Finding(
                path=anchor.path,
                line=line,
                col=col,
                rule_id=self.rule_id,
                message=(
                    f"import cycle: {chain}; break the cycle with a deferred "
                    "import or by moving the shared piece down the stack"
                ),
                severity=self.severity,
            )
