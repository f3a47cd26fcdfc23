"""Rule engine for :mod:`repro.lint`.

The engine is deliberately small: a :class:`Rule` walks one parsed
module (:class:`ModuleContext`) and yields :class:`Finding` objects; a
registry maps rule ids to rule classes; :func:`lint_paths` discovers
``.py`` files, applies every selected rule, filters suppressed findings,
and returns the rest sorted by location.

Suppression syntax (mirrors the classic linter idiom, but namespaced so
it can never collide with ``noqa``/``pylint`` pragmas):

* ``# milback: disable=ML001`` — suppress ML001 on this physical line.
* ``# milback: disable=ML001,ML003`` — several rules, comma separated.
* ``# milback: disable-file=ML006`` — suppress for the whole module;
  by convention this lives in the module's first comment block.
* ``all`` is accepted in place of a rule id and mutes every rule.

A suppression comment should always carry a human justification after
the pragma, e.g. ``# milback: disable=ML003 — exact sentinel compare``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path, PurePath
from typing import Iterable, Iterator, Sequence

from repro import obs
from repro.errors import StaticAnalysisError
from repro.lint.imports import ImportTable
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    build_summary,
    find_catalogue_path,
    find_usage_roots,
    module_name_for_path,
)

__all__ = [
    "Severity",
    "Finding",
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "get_rule",
    "lint_source",
    "lint_paths",
]

#: Rule id for files the engine itself cannot parse.
PARSE_ERROR_RULE = "ML000"

_PRAGMA_RE = re.compile(
    r"#\s*milback:\s*(?P<kind>disable|disable-file)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


class Severity(Enum):
    """How seriously a finding should be taken by CI."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = field(default=Severity.ERROR, compare=False)

    def render(self) -> str:
        """``path:line:col: ML00X message`` — the classic text format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} [{self.severity}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """One parsed module plus everything rules commonly need.

    Built once per file: ``nodes`` is the tree flattened by a single
    ``ast.walk`` (parents before children), and ``imports`` resolves
    local names through the module's import bindings, relative imports
    included when the module lives in a ``repro`` package.
    """

    path: str
    source: str
    tree: ast.Module
    nodes: list[ast.AST]
    imports: ImportTable
    module: str | None  #: dotted module name, None outside a ``repro`` tree
    package: str | None  #: package relative imports resolve against
    line_suppressions: dict[int, frozenset[str]]
    file_suppressions: frozenset[str]

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "ModuleContext":
        """Parse ``source``; raises :class:`SyntaxError` on bad input."""
        tree = ast.parse(source, filename=path)
        module = module_name_for_path(path)
        package = module
        if module is not None and PurePath(path).name != "__init__.py":
            package = module.rpartition(".")[0] or None
        per_line, whole_file = _parse_suppressions(source)
        return cls(
            path=path,
            source=source,
            tree=tree,
            nodes=list(ast.walk(tree)),
            imports=ImportTable.from_tree(tree, package),
            module=module,
            package=package,
            line_suppressions=per_line,
            file_suppressions=whole_file,
        )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is muted at ``line`` (or file-wide)."""
        if "all" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(line, frozenset())
        return "all" in on_line or rule_id in on_line

    def finding(
        self,
        rule: "Rule",
        node: ast.AST | None,
        message: str,
        *,
        line: int | None = None,
        col: int | None = None,
    ) -> Finding:
        """Build a :class:`Finding` for ``rule`` anchored at ``node``."""
        at_line = line if line is not None else getattr(node, "lineno", 1)
        at_col = col if col is not None else getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=at_line,
            col=at_col + 1,
            rule_id=rule.rule_id,
            message=message,
            severity=rule.severity,
        )


def _parse_suppressions(source: str) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Extract ``# milback: disable`` pragmas via the tokenizer.

    Tokenizing (rather than regexing raw lines) keeps pragmas inside
    string literals from being honoured by accident.
    """
    per_line: dict[int, frozenset[str]] = {}
    whole_file: set[str] = set()
    if "milback:" not in source:
        return per_line, frozenset()  # no pragma can exist; skip the tokenizer
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            rules = frozenset(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            if match.group("kind") == "disable-file":
                whole_file |= rules
            else:
                per_line[tok.start[0]] = per_line.get(tok.start[0], frozenset()) | rules
    except tokenize.TokenError:
        # Unparseable token stream: the engine reports the SyntaxError
        # elsewhere; there is nothing to suppress.
        pass
    return per_line, frozenset(whole_file)


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    Register with the :func:`register` decorator so the CLI and test
    suite can discover them.
    """

    rule_id: str = "ML999"
    name: str = "unnamed-rule"
    description: str = ""
    severity: Severity = Severity.ERROR

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for ``module``.  Subclasses must override."""
        raise StaticAnalysisError(
            f"rule {type(self).__name__} does not implement check()"
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    A project rule never sees files one at a time: the engine hands it a
    :class:`repro.lint.project.ProjectContext` — the index of every
    module's imports, exports and emitted obs names — and the rule
    yields findings anchored anywhere in the project.  Per-module
    suppression pragmas still apply; the engine filters with the
    suppression tables embedded in the module summaries.
    """

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise StaticAnalysisError(
            f"project rule {type(self).__name__} must be run via check_project()"
        )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Yield findings for the whole project.  Subclasses override."""
        raise StaticAnalysisError(
            f"rule {type(self).__name__} does not implement check_project()"
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry."""
    rule_id = rule_cls.rule_id
    if not re.fullmatch(r"ML\d{3}", rule_id):
        raise StaticAnalysisError(f"bad rule id {rule_id!r}: expected MLnnn")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise StaticAnalysisError(
            f"duplicate rule id {rule_id}: {existing.__name__} vs {rule_cls.__name__}"
        )
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, sorted by rule id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> type[Rule]:
    """Look up one rule class; raises for unknown ids."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise StaticAnalysisError(
            f"unknown rule id {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _select_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> tuple[list[Rule], list[ProjectRule]]:
    """Instantiate the selected rules, split into (per-file, project)."""
    chosen = [get_rule(rid) for rid in select] if select else all_rules()
    ignored = set(ignore or ())
    for rid in ignored:
        get_rule(rid)  # validate the id even when ignoring it
    rules = [cls() for cls in chosen if cls.rule_id not in ignored]
    per_file = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project = [rule for rule in rules if isinstance(rule, ProjectRule)]
    return per_file, project


def _parse(source: str, path: str) -> ModuleContext | Finding:
    """The module's context, or an ML000 finding when it does not parse."""
    try:
        return ModuleContext.from_source(source, path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule_id=PARSE_ERROR_RULE,
            message=f"could not parse module: {exc.msg}",
        )


def _check_module(module: ModuleContext, rules: Sequence[Rule]) -> Iterator[Finding]:
    for rule in rules:
        for finding in rule.check(module):
            if not module.is_suppressed(finding.rule_id, finding.line):
                yield finding


def _check_project(
    project: ProjectContext, rules: Sequence[ProjectRule]
) -> Iterator[Finding]:
    for rule in rules:
        for finding in rule.check_project(project):
            if not project.is_suppressed(finding.rule_id, finding.path, finding.line):
                yield finding


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one in-memory module and return unsuppressed findings.

    Project rules run against a single-module project here: layering,
    import confinement and determinism checks work file-locally, while
    genuinely cross-file analyses (cycles, catalogue drift, dead
    exports) need :func:`lint_paths` over the real tree to see anything.
    """
    per_file, project_rules = _select_rules(select, ignore)
    module = _parse(source, path)
    if isinstance(module, Finding):
        return [module]
    findings = list(_check_module(module, per_file))
    if project_rules:
        project = ProjectContext([build_summary(module)])
        findings.extend(_check_project(project, project_rules))
    return sorted(findings)


#: Directory names never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", ".mypy_cache", ".ruff_cache"}


def _discover(paths: Iterable[str | Path], seen: set[Path]) -> list[Path]:
    """``.py`` files under ``paths`` whose resolved location is not in ``seen``.

    Files pass through as given; directories are searched recursively.
    Deduplicating by resolved path keeps one file reached by two
    spellings (a relative target inside an absolute usage root) from
    being analysed twice; the first spelling is the one reported.
    """
    found: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = [
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not _SKIP_DIRS.intersection(candidate.parts)
            ]
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise StaticAnalysisError(f"no such file or directory: {path}")
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                found.append(candidate)
    return found


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StaticAnalysisError(f"cannot read {path}: {exc}") from exc


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint every Python file under ``paths`` in one pass.

    Each file is read and parsed once.  Lint targets run the per-file
    rules and contribute a module summary; when project rules are
    selected, the usage roots next to the catalogue (``tests/``,
    ``benchmarks/``, ``examples/``) are summarised too, so they can
    witness uses and emissions without being linted themselves.  The
    run records a ``lint.run`` span and the ``lint.files`` /
    ``lint.findings`` gauges.
    """
    paths = list(paths)
    per_file, project_rules = _select_rules(select, ignore)
    with obs.span("lint.run"):
        seen: set[Path] = set()
        targets = _discover(paths, seen)
        aux = _discover(find_usage_roots(paths), seen) if project_rules else []
        findings: list[Finding] = []
        summaries: list[ModuleSummary] = []
        for path in targets:
            module = _parse(_read(path), str(path))
            if isinstance(module, Finding):
                findings.append(module)
                continue
            findings.extend(_check_module(module, per_file))
            if project_rules:
                summaries.append(build_summary(module))
        aux_summaries: list[ModuleSummary] = []
        for path in aux:
            module = _parse(_read(path), str(path))
            if isinstance(module, ModuleContext):
                aux_summaries.append(build_summary(module))
        if project_rules:
            project = ProjectContext(
                summaries, aux=aux_summaries, catalogue_path=find_catalogue_path(paths)
            )
            findings.extend(_check_project(project, project_rules))
        obs.gauge("lint.files").set(len(targets) + len(aux))
        obs.gauge("lint.findings").set(len(findings))
    return sorted(findings)
