"""Tests for :mod:`repro.obs.report` — span-tree aggregation + CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.obs.report import (
    aggregate_spans,
    critical_path,
    load_trace_spans,
    render_report_html,
    render_report_text,
    report_document,
    span_flame_tree,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _span(name, span_id, parent_id, depth, start_s, duration_s, error=None):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "depth": depth,
        "start_s": start_s,
        "end_s": start_s + duration_s,
        "duration_s": duration_s,
        "error": error,
    }


@pytest.fixture
def trace_path(tmp_path):
    """A hand-built trace: a(1.0s) -> [b(0.6s) -> c(0.2s), b(0.1s)]."""
    records = [
        _span("a", 0, None, 0, 0.0, 1.0),
        _span("b", 1, 0, 1, 0.1, 0.6),
        _span("c", 2, 1, 2, 0.2, 0.2, error="ValueError"),
        _span("b", 3, 0, 1, 0.7, 0.1),
        {"type": "event", "name": "field1", "wall_s": 0.3, "index": 0},
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


class TestAggregation:
    def test_inclusive_exclusive_math(self, trace_path):
        spans, problems = load_trace_spans(trace_path)
        assert problems == []
        assert len(spans) == 4  # the event line is not a span
        by_name = {a.name: a for a in aggregate_spans(spans)}
        a, b, c = by_name["a"], by_name["b"], by_name["c"]
        assert a.count == 1 and a.total_s == pytest.approx(1.0)
        assert a.self_s == pytest.approx(1.0 - 0.6 - 0.1)
        assert b.count == 2 and b.total_s == pytest.approx(0.7)
        assert b.self_s == pytest.approx(0.7 - 0.2)
        assert c.self_s == pytest.approx(0.2)
        assert c.errors == 1 and b.errors == 0
        assert b.mean_s == pytest.approx(0.35)
        assert b.max_s == pytest.approx(0.6)
        # Sorted by exclusive time, descending.
        assert [x.name for x in aggregate_spans(spans)] == ["b", "a", "c"]

    def test_negative_self_time_clamped(self):
        # Absorbed worker spans can overlap their host: child longer
        # than parent must clamp to zero, not go negative.
        records = [
            _span("host", 0, None, 0, 0.0, 0.1),
            _span("worker", 1, 0, 1, 0.0, 0.5),
        ]
        by_name = {a.name: a for a in aggregate_spans(records)}
        assert by_name["host"].self_s == 0.0

    def test_critical_path_follows_longest_children(self, trace_path):
        spans, _ = load_trace_spans(trace_path)
        path = critical_path(spans)
        assert [step["name"] for step in path] == ["a", "b", "c"]
        assert path[0]["duration_s"] == pytest.approx(1.0)
        assert path[1]["self_s"] == pytest.approx(0.4)

    def test_orphan_parents_promote_to_roots(self):
        records = [_span("lost", 7, 99, 3, 0.0, 0.5)]
        path = critical_path(records)
        assert [step["name"] for step in path] == ["lost"]

    def test_flame_tree_merges_same_name_siblings(self, trace_path):
        spans, _ = load_trace_spans(trace_path)
        tree = span_flame_tree(spans)
        assert tree["name"] == "trace"
        (root,) = tree["children"]
        assert root["name"] == "a"
        (b,) = root["children"]
        assert b["name"] == "b"
        assert b["value"] == 700_000  # 0.6s + 0.1s in microseconds
        (c,) = b["children"]
        assert c["value"] == 200_000


class TestMalformedTraces:
    def test_corrupt_lines_reported_not_fatal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(_span("ok", 0, None, 0, 0.0, 1.0)) + "\n"
            + "not json\n"
            + "[1, 2]\n"
            + json.dumps({"type": "span", "name": "bad", "span_id": "x",
                          "duration_s": "y"}) + "\n",
            encoding="utf-8",
        )
        spans, problems = load_trace_spans(path)
        assert [s["name"] for s in spans] == ["ok"]
        assert len(problems) == 3
        assert any("not valid JSON" in p for p in problems)
        assert any("JSON object" in p for p in problems)
        assert any("malformed" in p for p in problems)

    def test_truncated_tail_flagged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(_span("ok", 0, None, 0, 0.0, 1.0)) + "\n"
            + '{"type": "span", "na',  # no trailing newline: cut mid-write
            encoding="utf-8",
        )
        spans, problems = load_trace_spans(path)
        assert len(spans) == 1
        assert any("truncated" in p for p in problems)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_trace_spans(tmp_path / "nope.jsonl")


class TestRendering:
    def test_text_report(self, trace_path):
        spans, problems = load_trace_spans(trace_path)
        text = render_report_text(spans, top=2, problems=problems)
        assert "== span report (4 spans, top 2 by self time) ==" in text
        assert "critical path" in text
        assert "rejected" not in text  # no problems in this trace

    def test_empty_trace_text(self):
        assert "(no spans in trace)" in render_report_text([])

    def test_html_report_contains_table_and_flame(self, trace_path):
        spans, _ = load_trace_spans(trace_path)
        html = render_report_html(spans)
        assert "span aggregates" in html
        assert "const ROOT" in html
        assert "<td>b</td>" in html

    def test_html_report_escapes_title(self):
        html = render_report_html([_span("f", 0, None, 0, 0.0, 1e-6)], title="<script>")
        assert "<title>&lt;script&gt;</title>" in html
        assert "<h1>&lt;script&gt;</h1>" in html
        assert '"value": 1' in html

    def test_document_schema(self, trace_path):
        spans, problems = load_trace_spans(trace_path)
        document = report_document(spans, problems)
        assert document["version"] == 1
        assert document["n_spans"] == 4
        assert document["aggregates"][0]["name"] == "b"
        assert [s["name"] for s in document["critical_path"]] == ["a", "b", "c"]


class TestCli:
    def test_report_text_to_stdout(self, trace_path, capsys):
        assert cli_main(["obs", "report", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "span report" in out
        assert "critical path" in out

    def test_report_json_to_file(self, trace_path, tmp_path):
        out = tmp_path / "report.json"
        assert cli_main([
            "obs", "report", "--trace", str(trace_path),
            "--format", "json", "--out", str(out),
        ]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["generator"] == "repro.obs.report"

    def test_report_html_to_file(self, trace_path, tmp_path):
        out = tmp_path / "report.html"
        assert cli_main([
            "obs", "report", "--trace", str(trace_path),
            "--format", "html", "--out", str(out), "--top", "3",
        ]) == 0
        assert "const ROOT" in out.read_text(encoding="utf-8")

    def test_run_trace_roundtrips_through_report(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert cli_main([
            "run", "fig10", "--trace", str(trace),
        ]) == 0
        assert cli_main(["obs", "report", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cli.run" in out
        assert "experiment.fig10" in out
