"""Whole-program index for cross-file lint rules.

Per-file rules see one :class:`~repro.lint.core.ModuleContext`; the
project rules (ML011 layering and import confinement, ML013
obs-catalogue drift, ML014 dead exports) need the *relationships
between* modules.  Every parsed file is distilled into a
:class:`ModuleSummary` — its dotted module name, import records (with
deferred / ``TYPE_CHECKING`` flags), ``__all__`` exports, resolved
attribute chains, and every metric/span name handed to the
:mod:`repro.obs` registries — and a :class:`ProjectContext` stitches the
summaries into an import graph with cycle detection and a symbol-use
index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.lint.imports import dotted_chain, resolve_relative_module

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.core import ModuleContext

__all__ = [
    "ImportRecord",  # milback: disable=ML014 — public index datatypes for rule authors
    "MetricCall",  # milback: disable=ML014 — public index datatypes for rule authors
    "ModuleSummary",
    "ProjectContext",
    "build_summary",
    "find_catalogue_path",
    "find_usage_roots",
    "module_name_for_path",
    "repro_component",
    "OBS_EMIT_FUNCTIONS",  # milback: disable=ML014 — documented emitter list for rule authors
]

#: Callable names whose first string argument is a metric/span name.
OBS_EMIT_FUNCTIONS: frozenset[str] = frozenset(
    {"counter", "gauge", "histogram", "span", "event", "traced", "add_event"}
)


def module_name_for_path(path: str) -> str | None:
    """Dotted module name for a source path, if it lives under ``repro``.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``;
    ``repro/sim/__init__.py`` → ``repro.sim``.  Paths outside a
    ``repro`` tree (test fixtures, benchmarks) have no project module
    name and return None — their summaries still contribute *uses* to
    the index, just not importable modules.
    """
    parts = PurePath(path).parts
    try:
        start = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    mod_parts = list(parts[start:])
    mod_parts[-1] = PurePath(mod_parts[-1]).stem
    if mod_parts[-1] == "__init__":
        mod_parts.pop()
    return ".".join(mod_parts) if mod_parts else None


def repro_component(module: str) -> str | None:
    """Top-level component under ``repro`` (``repro.sim.engine`` → ``sim``).

    The root package itself and non-``repro`` modules return None;
    top-level modules (``repro.cli``) return their own name (``cli``).
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


@dataclass(frozen=True)
class ImportRecord:
    """One import statement target inside a module."""

    module: str  #: absolute dotted module the import names
    name: str | None  #: symbol for ``from module import name``, else None
    lineno: int
    col: int
    deferred: bool  #: inside a function/method body (lazy import)
    type_checking: bool  #: under an ``if TYPE_CHECKING:`` guard
    star: bool = False  #: ``from module import *``
    asname: str | None = None  #: local rebinding via ``as``

    @property
    def bound_name(self) -> str | None:
        """The name the import binds locally (None for star imports)."""
        return self.asname if self.asname is not None else self.name


@dataclass(frozen=True)
class MetricCall:
    """One metric/span name handed to an obs-registry callable."""

    pattern: str  #: literal name, or glob with ``*`` for f-string holes
    literal: bool
    lineno: int
    col: int


@dataclass
class ModuleSummary:
    """Everything the project rules need to know about one file."""

    path: str
    module: str | None
    imports: list[ImportRecord] = field(default_factory=list)
    exports: list[tuple[str, int]] = field(default_factory=list)
    chains: list[str] = field(default_factory=list)
    metric_calls: list[MetricCall] = field(default_factory=list)
    line_suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    file_suppressions: frozenset[str] = frozenset()

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if "all" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(line, frozenset())
        return "all" in on_line or rule_id in on_line


def _collect_imports(
    summary: ModuleSummary,
    body: Iterable[ast.AST],
    package: str | None,
    deferred: bool = False,
    type_checking: bool = False,
) -> None:
    """Append an :class:`ImportRecord` per import target, in source order.

    Only statements can import, so the recursion follows statement
    bodies and skips expressions; function bodies mark their imports
    deferred, and ``if TYPE_CHECKING:`` bodies mark theirs typing-only.
    """
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports.append(
                    ImportRecord(
                        module=alias.name,
                        name=None,
                        lineno=node.lineno,
                        col=node.col_offset,
                        deferred=deferred,
                        type_checking=type_checking,
                        asname=alias.asname,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            module = resolve_relative_module(node.module, node.level, package)
            if module is None:
                continue
            for alias in node.names:
                star = alias.name == "*"
                summary.imports.append(
                    ImportRecord(
                        module=module,
                        name=None if star else alias.name,
                        lineno=node.lineno,
                        col=node.col_offset,
                        deferred=deferred,
                        type_checking=type_checking,
                        star=star,
                        asname=alias.asname,
                    )
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _collect_imports(summary, node.body, package, deferred=True,
                             type_checking=type_checking)
        elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
            _collect_imports(summary, node.body, package, deferred, type_checking=True)
            _collect_imports(summary, node.orelse, package, deferred, type_checking)
        elif isinstance(node, (ast.stmt, ast.ExceptHandler, ast.match_case)):
            children = [
                child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.stmt, ast.ExceptHandler, ast.match_case))
            ]
            _collect_imports(summary, children, package, deferred, type_checking)


def _metric_call(arg: ast.expr | None) -> MetricCall | None:
    """The name an obs call emits: a literal, or an f-string as a glob.

    An f-string whose constant skeleton is only separators
    (``f"{prefix}.{kind}"`` → ``*.*``) would match every dotted name, so
    it is treated as built entirely at runtime and skipped."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        if arg.value:
            return MetricCall(arg.value, True, arg.lineno, arg.col_offset)
    elif isinstance(arg, ast.JoinedStr):
        pattern = "".join(
            part.value if isinstance(part, ast.Constant) else "*" for part in arg.values
        )
        pattern = _collapse_stars(pattern)
        if pattern.strip("*."):
            return MetricCall(pattern, False, arg.lineno, arg.col_offset)
    return None


def _metric_calls(node: ast.Call) -> Iterator[MetricCall]:
    """The names one call emits, when it calls an obs registry function."""
    callee = node.func
    name = None
    if isinstance(callee, ast.Attribute):
        name = callee.attr
    elif isinstance(callee, ast.Name):
        name = callee.id
    if name not in OBS_EMIT_FUNCTIONS:
        return
    arg = node.args[0] if node.args else None
    if arg is None:
        for kw in node.keywords:
            if kw.arg == "name":
                arg = kw.value
    names = [arg]
    if name == "traced":
        names.extend(kw.value for kw in node.keywords if kw.arg == "count")
    for expr in names:
        call = _metric_call(expr)
        if call is not None:
            yield call


def _collapse_stars(pattern: str) -> str:
    while "**" in pattern:
        pattern = pattern.replace("**", "*")
    return pattern


def _is_type_checking_test(test: ast.expr) -> bool:
    chain = dotted_chain(test)
    return chain in ("TYPE_CHECKING", "typing.TYPE_CHECKING", "t.TYPE_CHECKING")


def build_summary(context: ModuleContext) -> ModuleSummary:
    """Distil one parsed module into its :class:`ModuleSummary`."""
    summary = ModuleSummary(
        path=context.path,
        module=context.module,
        line_suppressions=context.line_suppressions,
        file_suppressions=context.file_suppressions,
    )
    _collect_imports(summary, context.tree.body, context.package)
    chains: set[str] = set()
    for resolved, node in context.imports.references(context.nodes):
        if isinstance(node, ast.Attribute):
            chains.add(resolved)
    summary.chains = sorted(chains)
    for node in context.nodes:
        if isinstance(node, ast.Call):
            summary.metric_calls.extend(_metric_calls(node))
    # __all__ exports.
    for node in context.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        value = node.value
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    summary.exports.append((element.value, element.lineno))
    return summary


class ProjectContext:
    """The stitched whole-program view the project rules run against.

    ``modules`` are the linted files; ``aux`` summaries come from the
    usage roots (tests/, benchmarks/, examples/) and extend the
    symbol-use and metric-emission indexes without being lint targets
    themselves.
    """

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        aux: Sequence[ModuleSummary] = (),
        catalogue_path: str | None = None,
    ) -> None:
        self.summaries = list(summaries)
        self.aux = list(aux)
        self.catalogue_path = catalogue_path
        self.by_module: dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries if s.module is not None
        }
        self.by_path: dict[str, ModuleSummary] = {s.path: s for s in self.summaries}
        self._use_paths: dict[tuple[str, str], set[str]] | None = None
        self._star_paths: dict[str, set[str]] | None = None

    # -- import graph ------------------------------------------------
    def resolve_import_target(self, record: ImportRecord) -> str:
        """The module an import record actually lands on.

        ``from repro.sim import cache`` targets module ``repro.sim.cache``
        when that is a project module, otherwise the named package.
        """
        if record.name is not None:
            candidate = f"{record.module}.{record.name}"
            if candidate in self.by_module:
                return candidate
        return record.module

    def import_graph(self) -> dict[str, set[str]]:
        """Top-level, runtime (non-``TYPE_CHECKING``) project-module edges."""
        graph: dict[str, set[str]] = {m: set() for m in self.by_module}
        for summary in self.summaries:
            if summary.module is None:
                continue
            for record in summary.imports:
                if record.deferred or record.type_checking:
                    continue
                target = self.resolve_import_target(record)
                if target in self.by_module and target != summary.module:
                    graph[summary.module].add(target)
        return graph

    def cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1, deterministic order."""
        graph = self.import_graph()
        order = sorted(graph)
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        sccs: list[list[str]] = []

        for root in order:
            if root in index:
                continue
            # Iterative Tarjan: (node, iterator over sorted successors).
            work: list[tuple[str, Iterator[str]]] = []
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(sorted(graph[root]))))
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(graph[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1:
                        sccs.append(sorted(scc))
        return sorted(sccs)

    # -- symbol uses -------------------------------------------------
    def _build_uses(self) -> None:
        """Index (module, name) → referencing paths over all summaries.

        A chain ``repro.sim.engine.run`` contributes every split —
        ``(repro, sim)``, ``(repro.sim, engine)``, ``(repro.sim.engine,
        run)`` — so prefix matching reduces to exact pair lookup.
        """
        use_paths: dict[tuple[str, str], set[str]] = {}
        star_paths: dict[str, set[str]] = {}
        for summary in list(self.summaries) + list(self.aux):
            for record in summary.imports:
                if record.star:
                    star_paths.setdefault(record.module, set()).add(summary.path)
                elif record.name is not None:
                    use_paths.setdefault((record.module, record.name), set()).add(
                        summary.path
                    )
            for chain in summary.chains:
                parts = chain.split(".")
                for split in range(1, len(parts)):
                    key = (".".join(parts[:split]), parts[split])
                    use_paths.setdefault(key, set()).add(summary.path)
        self._use_paths = use_paths
        self._star_paths = star_paths

    def symbol_used(
        self, module: str, name: str, *, exclude_paths: Iterable[str] = ()
    ) -> bool:
        """True when ``module.name`` is referenced outside ``exclude_paths``."""
        if self._use_paths is None or self._star_paths is None:
            self._build_uses()
        assert self._use_paths is not None and self._star_paths is not None
        paths = set(self._use_paths.get((module, name), ()))
        paths |= self._star_paths.get(module, set())
        paths.difference_update(exclude_paths)
        return bool(paths)

    # -- metric emissions --------------------------------------------
    def metric_calls(
        self, *, aux_roots: Sequence[str] = ("benchmarks",)
    ) -> list[tuple[ModuleSummary, MetricCall]]:
        """Every obs-registry name emission of the linted files, and of
        the usage-root summaries under the named top-level directories
        (next to ``docs/``)."""
        out: list[tuple[ModuleSummary, MetricCall]] = []
        for summary in self.summaries:
            for call in summary.metric_calls:
                out.append((summary, call))
        for summary in self.aux:
            if self._usage_root(summary.path) in aux_roots:
                for call in summary.metric_calls:
                    out.append((summary, call))
        return out

    def _usage_root(self, path: str) -> str | None:
        """The top-level directory of ``path`` next to the catalogue's
        ``docs/``, or None outside that tree."""
        if self.catalogue_path is None:
            return None
        try:
            relative = Path(path).resolve().relative_to(Path(self.catalogue_path).parents[1])
        except ValueError:
            return None
        return relative.parts[0] if len(relative.parts) > 1 else None

    def is_suppressed(self, rule_id: str, path: str, line: int) -> bool:
        summary = self.by_path.get(path)
        if summary is None:
            return False
        return summary.is_suppressed(rule_id, line)


def find_catalogue_path(paths: Iterable[str | Path]) -> str | None:
    """Locate ``docs/OBSERVABILITY.md`` upward from the lint roots."""
    for raw in paths:
        probe = Path(raw).resolve()
        for candidate in [probe, *probe.parents]:
            doc = candidate / "docs" / "OBSERVABILITY.md"
            if doc.is_file():
                return str(doc)
    return None


def find_usage_roots(paths: Iterable[str | Path]) -> list[Path]:
    """Auxiliary usage/emission roots (src, tests, benchmarks, examples)
    of the tree whose ``docs/OBSERVABILITY.md`` sits above ``paths``.

    ``src`` is among them so that a lint of tests, benchmarks or one
    source file still sees every emission the catalogue is judged by."""
    roots: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        probe = Path(raw).resolve()
        for candidate in [probe, *probe.parents]:
            if not (candidate / "docs" / "OBSERVABILITY.md").is_file():
                continue
            for name in ("src", "tests", "benchmarks", "examples"):
                root = candidate / name
                if root.is_dir() and root not in seen:
                    seen.add(root)
                    roots.append(root)
            break
    return roots
