"""Command-line front end: ``python -m repro.lint`` / ``milback-lint``.

Exit status: 0 when no findings, 1 when any finding is reported, 2 on
usage errors (unknown rule id, missing path).
"""
# milback: disable-file=ML007 — this module IS the CLI; stdout/stderr are its interface

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro import obs
from repro.errors import StaticAnalysisError
from repro.lint.core import Finding, all_rules, lint_paths

__all__ = ["build_parser", "main"]  # milback: disable=ML014 — public CLI surface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milback-lint",
        description="Domain-aware static analysis for the MilBack codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts, the file count and wall time to text output",
    )
    return parser


def _split(spec: str | None) -> list[str] | None:
    if spec is None:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def _render_text(findings: list[Finding], statistics: bool, wall_s: float) -> str:
    lines = [finding.render() for finding in findings]
    if statistics:
        counts: dict[str, int] = {}
        for finding in findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        if counts:
            lines.append("")
        for rule_id in sorted(counts):
            lines.append(f"{rule_id}: {counts[rule_id]}")
        lines.append("")
        files = int(obs.gauge("lint.files").value)
        lines.append(f"files: {files}  wall: {wall_s:.3f}s")
    if findings:
        lines.append(f"Found {len(findings)} finding(s).")
    else:
        lines.append("All checks passed.")
    return "\n".join(lines)


def _render_json(findings: list[Finding]) -> str:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload = {
        "tool": "milback-lint",
        "findings": [finding.to_dict() for finding in findings],
        "summary": {"total": len(findings), "by_rule": counts},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.rule_id}  {rule_cls.name}")
            print(f"       {rule_cls.description}")
        return 0

    started = time.perf_counter()
    try:
        findings = lint_paths(
            options.paths,
            select=_split(options.select),
            ignore=_split(options.ignore),
        )
    except StaticAnalysisError as exc:
        print(f"milback-lint: error: {exc}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - started

    if options.format == "json":
        rendered = _render_json(findings)
    else:
        rendered = _render_text(findings, options.statistics, wall_s)

    try:
        print(rendered)
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed early; the findings still determine
        # status, and redirecting stdout keeps the interpreter's shutdown
        # flush from printing a spurious traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
