"""Span-tree aggregation over trace JSONL: ``repro obs report``.

The trace a run writes with ``--trace`` is a flat list of span/event
records. This module turns it back into the tree it describes and
answers the questions a perf investigation starts with:

* **inclusive vs exclusive time** per span name — a span's duration
  versus the part of it *not* spent in child spans, so a fat
  ``experiment.fig12`` with skinny children points at uninstrumented
  code, not at the children;
* **call counts and error counts** per name;
* the **critical path**: the chain of longest children from the longest
  root span, which is where wall-clock time actually went;
* a **flamegraph of the span tree** (exclusive time as self weight).

Three output formats behind ``repro obs report``: a text table (top-N by
exclusive time), a JSON document, and a self-contained HTML page (the
table above the flamegraph, stdlib only, no external assets). Spans
attribute time by stage; for time by Python function run the command
under ``python -m cProfile`` (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigurationError

__all__ = [
    "SpanAggregate",  # milback: disable=ML014 — public aggregate record type
    "iter_trace_records",
    "load_trace_spans",
    "aggregate_spans",
    "critical_path",
    "span_flame_tree",
    "report_document",
    "render_report_text",
    "render_report_html",
]

#: Fields a span record must carry to enter the aggregation.
_REQUIRED_SPAN_FIELDS = ("name", "span_id", "duration_s")


def iter_trace_records(
    path: str | Path,
) -> Iterator[tuple[int, dict[str, Any] | None, str | None]]:
    """Yield ``(lineno, record, problem)`` per non-blank trace line.

    Exactly one of ``record``/``problem`` is non-None: corrupt lines
    (invalid JSON, truncated tail writes, non-object payloads) yield a
    human-readable problem string instead of raising mid-file, so both
    the validator (:mod:`repro.obs.check`) and this reporter degrade
    per-line rather than losing the whole artifact.
    """
    target = Path(path)
    text = target.read_text(encoding="utf-8")
    truncated_tail = bool(text) and not text.endswith("\n")
    lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            detail = exc.msg
            if truncated_tail and lineno == len(lines):
                detail = f"truncated line (file ends mid-record: {exc.msg})"
            yield lineno, None, f"not valid JSON ({detail})"
            continue
        if not isinstance(record, dict):
            yield lineno, None, (
                f"record must be a JSON object, got {type(record).__name__}"
            )
            continue
        yield lineno, record, None


def load_trace_spans(
    path: str | Path,
) -> tuple[list[dict[str, Any]], list[str]]:
    """Span records from a trace, plus the problems of rejected lines."""
    target = Path(path)
    if not target.is_file():
        raise ConfigurationError(f"trace file missing: {target}")
    spans: list[dict[str, Any]] = []
    problems: list[str] = []
    for lineno, record, problem in iter_trace_records(target):
        if problem is not None:
            problems.append(f"{target}:{lineno}: {problem}")
            continue
        if record is None or record.get("type") != "span":
            continue
        missing = [f for f in _REQUIRED_SPAN_FIELDS if f not in record]
        if missing:
            problems.append(f"{target}:{lineno}: span fields malformed ({missing})")
            continue
        try:
            record = dict(record)
            record["name"] = str(record["name"])
            record["span_id"] = int(record["span_id"])
            record["duration_s"] = float(record["duration_s"])
            parent = record.get("parent_id")
            record["parent_id"] = None if parent is None else int(parent)
        except (TypeError, ValueError) as exc:
            problems.append(f"{target}:{lineno}: span fields malformed ({exc!r})")
            continue
        spans.append(record)
    return spans, problems


@dataclass(frozen=True)
class SpanAggregate:
    """Roll-up of every span sharing one name."""

    name: str
    count: int
    total_s: float  # inclusive: sum of durations
    self_s: float  # exclusive: inclusive minus time in child spans
    min_s: float
    max_s: float
    errors: int

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "errors": self.errors,
        }


def _child_time(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Summed child durations per parent ``span_id``."""
    totals: dict[int, float] = {}
    for record in spans:
        parent = record["parent_id"]
        if parent is not None:
            totals[parent] = totals.get(parent, 0.0) + record["duration_s"]
    return totals


def aggregate_spans(spans: list[dict[str, Any]]) -> list[SpanAggregate]:
    """Per-name aggregates, sorted by exclusive time (descending).

    Exclusive time is clamped at zero per span: worker spans absorbed
    from another timeline can overlap their re-parented host, and a
    negative self time would be noise, not signal.
    """
    child_time = _child_time(spans)
    buckets: dict[str, list[dict[str, Any]]] = {}
    for record in spans:
        buckets.setdefault(record["name"], []).append(record)
    aggregates = []
    for name, records in buckets.items():
        durations = [r["duration_s"] for r in records]
        self_s = sum(
            max(r["duration_s"] - child_time.get(r["span_id"], 0.0), 0.0)
            for r in records
        )
        aggregates.append(
            SpanAggregate(
                name=name,
                count=len(records),
                total_s=sum(durations),
                self_s=self_s,
                min_s=min(durations),
                max_s=max(durations),
                errors=sum(1 for r in records if r.get("error")),
            )
        )
    aggregates.sort(key=lambda a: (-a.self_s, a.name))
    return aggregates


def critical_path(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The longest root span and, recursively, its longest child.

    Returns ``[{name, duration_s, self_s}, ...]`` from the root down —
    the single chain that bounded the run's wall clock.
    """
    if not spans:
        return []
    children: dict[int | None, list[dict[str, Any]]] = {}
    ids = {record["span_id"] for record in spans}
    for record in spans:
        parent = record["parent_id"]
        # Orphan parents (trace truncation) promote the span to a root.
        key = parent if parent in ids else None
        children.setdefault(key, []).append(record)
    path: list[dict[str, Any]] = []
    node = max(children.get(None, []), key=lambda r: r["duration_s"], default=None)
    child_time = _child_time(spans)
    while node is not None:
        path.append(
            {
                "name": node["name"],
                "duration_s": node["duration_s"],
                "self_s": max(
                    node["duration_s"] - child_time.get(node["span_id"], 0.0), 0.0
                ),
            }
        )
        node = max(
            children.get(node["span_id"], []),
            key=lambda r: r["duration_s"],
            default=None,
        )
    return path


def span_flame_tree(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """The span tree as a flamegraph trie (values = whole microseconds).

    Sibling spans with the same name merge (a sweep's thousand
    ``engine.localization`` spans become one fat frame), which is what
    makes the flamegraph readable at fleet scale.
    """
    ids = {record["span_id"] for record in spans}
    by_parent: dict[int | None, list[dict[str, Any]]] = {}
    for record in spans:
        parent = record["parent_id"]
        by_parent.setdefault(parent if parent in ids else None, []).append(record)

    def build(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
        merged: dict[str, dict[str, Any]] = {}
        for record in records:
            node = merged.setdefault(
                record["name"], {"name": record["name"], "value": 0, "records": []}
            )
            node["value"] += int(round(record["duration_s"] * 1e6))
            node["records"].append(record)
        out = []
        for name in sorted(merged):
            node = merged[name]
            child_records = [
                child
                for record in node["records"]
                for child in by_parent.get(record["span_id"], [])
            ]
            entry: dict[str, Any] = {"name": name, "value": node["value"]}
            if child_records:
                entry["children"] = build(child_records)
            out.append(entry)
        return out

    roots = build(by_parent.get(None, []))
    return {
        "name": "trace",
        "value": sum(root["value"] for root in roots),
        "children": roots,
    }


def report_document(
    spans: list[dict[str, Any]], problems: list[str] | None = None
) -> dict[str, Any]:
    """The JSON payload behind ``repro obs report --format json``."""
    return {
        "generator": "repro.obs.report",
        "version": 1,
        "n_spans": len(spans),
        "aggregates": [a.to_dict() for a in aggregate_spans(spans)],
        "critical_path": critical_path(spans),
        "problems": list(problems or []),
    }


def render_report_text(
    spans: list[dict[str, Any]],
    top: int = 20,
    problems: list[str] | None = None,
) -> str:
    """The human table: top-N by exclusive time plus the critical path."""
    aggregates = aggregate_spans(spans)
    lines = [f"== span report ({len(spans)} spans, top {min(top, len(aggregates))} by self time) =="]
    if not aggregates:
        lines.append("(no spans in trace)")
    else:
        name_width = max(len(a.name) for a in aggregates[:top])
        lines.append(
            f"{'name'.ljust(name_width)}  {'count':>6}  {'self[s]':>9}  "
            f"{'total[s]':>9}  {'mean[s]':>9}  {'max[s]':>9}  {'err':>4}"
        )
        for aggregate in aggregates[:top]:
            lines.append(
                f"{aggregate.name.ljust(name_width)}  {aggregate.count:>6d}  "
                f"{aggregate.self_s:>9.4f}  {aggregate.total_s:>9.4f}  "
                f"{aggregate.mean_s:>9.4f}  {aggregate.max_s:>9.4f}  "
                f"{aggregate.errors:>4d}"
            )
    path = critical_path(spans)
    if path:
        lines.append("")
        lines.append("== critical path ==")
        for depth, step in enumerate(path):
            lines.append(
                f"{'  ' * depth}{step['name']}  "
                f"{step['duration_s']:.4f}s (self {step['self_s']:.4f}s)"
            )
    if problems:
        lines.append("")
        lines.append(f"== {len(problems)} rejected trace line(s) ==")
        lines.extend(problems)
    return "\n".join(lines)


def render_report_html(
    spans: list[dict[str, Any]],
    top: int = 50,
    title: str = "repro span report",
    problems: list[str] | None = None,
) -> str:
    """Self-contained HTML: aggregate table + span-tree flamegraph."""
    flame = _render_flamegraph_html(
        span_flame_tree(spans), title=title, unit="us"
    )
    rows = []
    for aggregate in aggregate_spans(spans)[:top]:
        rows.append(
            "<tr><td>{}</td><td>{}</td><td>{:.4f}</td><td>{:.4f}</td>"
            "<td>{:.4f}</td><td>{}</td></tr>".format(
                html.escape(aggregate.name),
                aggregate.count,
                aggregate.self_s,
                aggregate.total_s,
                aggregate.max_s,
                aggregate.errors,
            )
        )
    table = (
        "<h1>span aggregates</h1>"
        "<table border='1' cellspacing='0' cellpadding='3'>"
        "<tr><th>name</th><th>count</th><th>self [s]</th>"
        "<th>total [s]</th><th>max [s]</th><th>errors</th></tr>"
        + "".join(rows)
        + "</table>"
    )
    # Inject the table above the flamegraph's own heading.
    return flame.replace("<body>", "<body>\n" + table + "\n<hr>", 1)


_FLAMEGRAPH_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  body { font: 13px/1.4 system-ui, sans-serif; margin: 16px; background: #fdfdfd; }
  h1 { font-size: 16px; }
  #meta { color: #555; margin-bottom: 12px; }
  #flame { position: relative; width: 100%; }
  .frame {
    position: absolute; height: 17px; box-sizing: border-box;
    overflow: hidden; white-space: nowrap; text-overflow: ellipsis;
    font-size: 11px; padding: 1px 3px; border: 1px solid #fdfdfd;
    border-radius: 2px; cursor: pointer;
  }
  .frame.span { font-weight: 600; }
  #detail { margin-top: 10px; color: #333; min-height: 1.4em; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div id="meta">__META__</div>
<div id="flame"></div>
<div id="detail">click a frame to zoom; click the root to reset</div>
<script>
const ROOT = __DATA__;
const UNIT = "__UNIT__";
const SPAN_COLOR = "#7a9e7e";
let zoom = ROOT;
function depthOf(node) {
  let d = 1;
  for (const c of node.children || []) d = Math.max(d, 1 + depthOf(c));
  return d;
}
function render() {
  const flame = document.getElementById("flame");
  flame.innerHTML = "";
  flame.style.height = (depthOf(zoom) * 18 + 4) + "px";
  const width = flame.clientWidth || 960;
  (function place(node, x, depth, scale) {
    const w = node.value * scale;
    if (w < 0.5) return;
    const div = document.createElement("div");
    div.className = "frame span";
    div.style.left = x + "px";
    div.style.top = (depth * 18) + "px";
    div.style.width = Math.max(w - 1, 1) + "px";
    div.style.background = SPAN_COLOR;
    div.textContent = node.name;
    div.title = node.name + " — " + node.value + " " + UNIT +
      " (" + (100 * node.value / ROOT.value).toFixed(1) + "%)";
    div.onclick = function (ev) {
      ev.stopPropagation();
      zoom = (zoom === node) ? ROOT : node;
      document.getElementById("detail").textContent = div.title;
      render();
    };
    flame.appendChild(div);
    let cx = x;
    for (const c of node.children || []) {
      place(c, cx, depth + 1, scale);
      cx += c.value * scale;
    }
  })(zoom, 0, 0, width / Math.max(zoom.value, 1));
}
window.addEventListener("resize", render);
render();
</script>
</body>
</html>
"""


def _render_flamegraph_html(tree: dict[str, Any], title: str, unit: str) -> str:
    """A self-contained HTML flamegraph for one ``{name, value, children}``
    trie, such as :func:`span_flame_tree`'s."""
    meta = f"{tree.get('value', 0)} {unit} total"
    return (
        _FLAMEGRAPH_TEMPLATE
        .replace("__TITLE__", html.escape(title))
        .replace("__META__", html.escape(meta))
        .replace("__UNIT__", html.escape(unit))
        .replace("__DATA__", json.dumps(tree, sort_keys=True))
    )
