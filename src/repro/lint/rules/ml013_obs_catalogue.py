"""ML013 — the obs catalogue in ``docs/OBSERVABILITY.md`` must not rot.

``docs/OBSERVABILITY.md`` carries the authoritative table of every
metric and span name the system emits.  This rule makes the table a
checked contract in both directions:

* every literal name handed to a :mod:`repro.obs` registry call in the
  project (and in ``benchmarks/``, which feeds ``BENCH_obs.json``) must
  match a catalogue row;
* every catalogue row must still be emitted somewhere — by a literal
  name or by an f-string whose constant skeleton matches the row.

Catalogue rows may use ``<placeholder>`` segments (``engine.<burst>.trials``)
which match any single value, ``{a,b}`` alternation
(``…synthesis_{reference,batched}_s``), leading-dot continuations of the
previous name in the same cell (``cache.hits`` / ``.misses``), and label
annotations (``{experiment=…}``) which are ignored.  F-string emissions
in code are reduced to the same wildcard form, so a dynamic name like
``f"span.{name}.duration_s"`` satisfies the ``span.<name>.duration_s``
row.  Names built entirely at runtime (pure variables, or variables
joined only by separators) cannot be checked and are skipped.

Rows are judged against every emission of ``src`` and ``benchmarks``
whichever paths are linted: ``src`` is always summarised as a usage
root, so linting ``tests`` or one source file does not report the rows
other files emit as dead.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.lint.core import Finding, ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectContext

__all__ = ["ObsCatalogueRule", "parse_catalogue"]

_CODE_SPAN_RE = re.compile(r"`([^`]+)`")
_LABEL_RE = re.compile(r"\{[^{}]*=[^{}]*\}")
_ALTERNATION_RE = re.compile(r"\{([^{}=]+,[^{}=]+)\}")
_PLACEHOLDER_RE = re.compile(r"<[^<>]*>")
_SEPARATOR_ROW_RE = re.compile(r"^[\s|:-]+$")


def _expand_alternation(name: str) -> list[str]:
    match = _ALTERNATION_RE.search(name)
    if match is None:
        return [name]
    head, tail = name[: match.start()], name[match.end():]
    out: list[str] = []
    for option in match.group(1).split(","):
        out.extend(_expand_alternation(head + option.strip() + tail))
    return out


def _first_cell(row: str) -> str:
    """The first cell of a markdown table row, honouring ``\\|`` escapes."""
    cells = re.split(r"(?<!\\)\|", row)
    for cell in cells:
        if cell.strip():
            return cell
    return ""


def parse_catalogue(text: str) -> list[tuple[str, int]]:
    """Extract ``(name-pattern, line)`` rows from catalogue tables.

    Patterns use shell-style ``*`` wildcards for ``<placeholder>``
    segments; label annotations are stripped; alternations expand into
    one pattern each.
    """
    patterns: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped.startswith("|") or _SEPARATOR_ROW_RE.match(stripped):
            continue
        cell = _first_cell(stripped.strip("|"))
        previous: str | None = None
        for span in _CODE_SPAN_RE.findall(cell):
            raw = _LABEL_RE.sub("", span.replace("\\|", "|")).strip()
            if not raw:
                continue
            for candidate in _expand_alternation(raw):
                name = _PLACEHOLDER_RE.sub("*", candidate).strip()
                if name.startswith(".") and previous is not None:
                    tail = name.lstrip(".").split(".")
                    base = previous.split(".")
                    name = ".".join(base[: max(len(base) - len(tail), 0)] + tail)
                if not name.strip("*."):
                    continue
                patterns.append((name, lineno))
                previous = name
    return patterns


def _overlaps(emitted: str, catalogued: str) -> bool:
    """Can the emitted (possibly wildcarded) name satisfy the row?"""
    if "*" not in emitted:
        return fnmatchcase(emitted, catalogued)
    if "*" not in catalogued:
        return fnmatchcase(catalogued, emitted)
    return emitted == catalogued


@register
class ObsCatalogueRule(ProjectRule):
    rule_id = "ML013"
    name = "obs-catalogue-drift"
    description = (
        "Every metric/span name passed to repro.obs must appear in the "
        "docs/OBSERVABILITY.md catalogue, and every catalogue row must "
        "still be emitted somewhere."
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        if project.catalogue_path is None:
            return
        catalogue_file = Path(project.catalogue_path)
        if not catalogue_file.is_file():
            return
        catalogue = parse_catalogue(catalogue_file.read_text(encoding="utf-8"))
        catalogue_patterns = [pattern for pattern, _ in catalogue]
        emissions = project.metric_calls()

        for summary, call in emissions:
            if not call.literal:
                continue
            if not any(fnmatchcase(call.pattern, pattern) for pattern in catalogue_patterns):
                yield Finding(
                    path=summary.path,
                    line=call.lineno,
                    col=call.col + 1,
                    rule_id=self.rule_id,
                    message=(
                        f"obs name {call.pattern!r} is not in the "
                        "docs/OBSERVABILITY.md catalogue; add a row (or fix "
                        "the name)"
                    ),
                    severity=self.severity,
                )

        emitted = [
            call.pattern
            for _, call in project.metric_calls(aux_roots=("benchmarks", "src"))
        ]
        for pattern, lineno in catalogue:
            if not any(_overlaps(name, pattern) for name in emitted):
                yield Finding(
                    path=str(catalogue_file),
                    line=lineno,
                    col=1,
                    rule_id=self.rule_id,
                    message=(
                        f"catalogue row {pattern!r} is no longer emitted "
                        "anywhere; delete the row or restore the metric"
                    ),
                    severity=self.severity,
                )
