"""Tests for the repro.obs metrics + tracing subsystem.

Covers the metric primitives, the span tracer, the exporters and their
schemas, the EventLog bridge, the RNG instantiation counters, the
artifact validator, and the CLI ``--trace`` / ``--metrics-out`` flags.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.netsim import run_scenario
from repro.obs import metrics
from repro.obs.check import check_metrics_json, check_trace_jsonl
from repro.obs.check import main as check_main
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry, metric_key
from repro.obs.tracing import Tracer
from repro.protocol.events import EventLog
from repro.protocol.link import MilBackLink
from repro.sim.engine import MilBackSimulator
from repro.utils.rng import make_rng, spawn_rngs


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test observes only its own activity."""
    obs.reset()
    yield
    obs.reset()


# --- metrics ------------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("a.b") is counter
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_labels_address_distinct_metrics(self):
        registry = MetricsRegistry()
        registry.counter("runs", experiment="fig12").inc()
        registry.counter("runs", experiment="fig13").inc(2)
        assert registry.counter("runs", experiment="fig12").value == 1
        assert registry.counter("runs", experiment="fig13").value == 2
        assert metric_key("runs", {"experiment": "fig12"}) == "runs{experiment=fig12}"
        # Distinct *names* collapse labels.
        assert registry.names() == ["runs"]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_histogram_statistics_exact(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (0.001, 0.002, 0.004, 0.5):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.507)
        assert histogram.mean == pytest.approx(0.507 / 4)

    def test_histogram_percentiles_bracket_data(self):
        histogram = MetricsRegistry().histogram("h")
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.001, 0.1, size=500)
        for value in samples:
            histogram.observe(float(value))
        for q in (10.0, 50.0, 90.0, 99.0):
            estimate = histogram.percentile(q)
            exact = float(np.percentile(samples, q))
            assert samples.min() <= estimate <= samples.max()
            # Fixed log buckets: the estimate lands within a bucket of truth.
            assert estimate == pytest.approx(exact, rel=0.8)

    def test_histogram_empty_and_bad_quantile(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.percentile(50.0) == 0.0
        with pytest.raises(ConfigurationError):
            histogram.percentile(101.0)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.2)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 1.0}
        assert snapshot["h"]["type"] == "histogram"
        assert snapshot["h"]["count"] == 1
        assert {"le": 0.25, "count": 1} in snapshot["h"]["buckets"]

    def test_reset_empties(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0


class TestMetricHandles:
    """A repeated accessor call finds its metric in the registry's handle
    dict; every answer must be the one the canonical key path gives."""

    def test_label_order_returns_the_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("runs", experiment="fig12", direction="up")
        again = registry.counter("runs", experiment="fig12", direction="up")
        swapped = registry.counter("runs", direction="up", experiment="fig12")
        assert again is first and swapped is first
        swapped.inc(2)
        assert registry.snapshot() == {
            "runs{direction=up,experiment=fig12}": {"type": "counter", "value": 2.0}
        }
        gauge = registry.gauge("depth", b="2", a="1")
        assert registry.gauge("depth", a="1", b="2") is gauge
        histogram = registry.histogram("lat", b="2", a="1")
        assert registry.histogram("lat", a="1", b="2") is histogram
        assert len(registry) == 3

    def test_kind_conflict_raises_after_a_cached_lookup(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", cache="c")
        assert registry.counter("x", cache="c") is counter
        with pytest.raises(ConfigurationError):
            registry.gauge("x", cache="c")
        with pytest.raises(ConfigurationError):
            registry.histogram("x", cache="c")
        registry.gauge("g")
        registry.gauge("g")
        with pytest.raises(ConfigurationError):
            registry.counter("g")
        assert registry.counter("x", cache="c") is counter

    def test_reset_drops_cached_handles(self):
        registry = MetricsRegistry()
        old = registry.counter("x", cache="c")
        old.inc()
        registry.reset()
        fresh = registry.counter("x", cache="c")
        assert fresh is not old
        assert len(registry) == 1
        fresh.inc(2)
        assert registry.snapshot()["x{cache=c}"]["value"] == 2.0

    def test_merge_state_lands_on_cached_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", cache="c")
        gauge = registry.gauge("depth", pool="p")
        histogram = registry.histogram("lat", op="o")
        counter.inc()
        histogram.observe(0.1)
        other = MetricsRegistry()
        other.counter("hits", cache="c").inc(2)
        other.gauge("depth", pool="p").set(7.0)
        other.histogram("lat", op="o").observe(0.2)
        registry.merge_state(other.dump_state())
        assert counter.value == 3.0
        assert gauge.value == 7.0
        assert histogram.count == 2
        assert registry.counter("hits", cache="c") is counter
        assert len(registry) == 3

    def test_histogram_with_another_ladder_raises(self):
        registry = MetricsRegistry()
        default = registry.histogram("h")
        custom = registry.histogram("g", buckets=(0.1, 1.0))
        with pytest.raises(ConfigurationError, match="bucket ladder"):
            registry.histogram("h", buckets=(0.1, 1.0))
        with pytest.raises(ConfigurationError, match="bucket ladder"):
            registry.histogram("g")
        # An equal ladder, in any order or container, is the same histogram.
        assert registry.histogram("h") is default
        assert registry.histogram("h", buckets=list(DEFAULT_TIME_BUCKETS)) is default
        assert registry.histogram("g", buckets=[1.0, 0.1]) is custom
        # merge_state refuses the same mismatch.
        other = MetricsRegistry()
        other.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            registry.merge_state(other.dump_state())
        assert default.count == 0

    def test_histogram_ladder_checked_on_the_flat_key_path(self):
        registry = MetricsRegistry()
        default = registry.histogram("h", op="o", stage="s")
        custom = registry.histogram("g", buckets=(0.1, 1.0), op="o", stage="s")
        # Swapped labels miss the handle dict and take the flat key.
        with pytest.raises(ConfigurationError, match="bucket ladder"):
            registry.histogram("h", buckets=(0.1, 1.0), stage="s", op="o")
        with pytest.raises(ConfigurationError, match="bucket ladder"):
            registry.histogram("g", stage="s", op="o")
        assert registry.histogram("h", stage="s", op="o") is default
        assert registry.histogram("g", buckets=(0.1, 1.0), stage="s", op="o") is custom

    def test_merged_default_ladder_stays_the_default(self):
        source = MetricsRegistry()
        source.histogram("lat").observe(0.2)
        registry = MetricsRegistry()
        registry.merge_state(source.dump_state())
        merged = registry.histogram("lat")
        assert merged.count == 1
        assert merged.dump()["bounds"] == list(DEFAULT_TIME_BUCKETS)

    def test_non_string_labels_keep_their_own_metrics(self):
        # 1, 1.0 and True are one dict key but three flat keys.
        registry = MetricsRegistry()
        for value in (1, True, 1.0, 1, True):
            registry.counter("x", a=value).inc()
        assert {key: m.value for key, m in registry.items()} == {
            "x{a=1}": 2.0, "x{a=True}": 2.0, "x{a=1.0}": 1.0
        }

    def test_scenario_run_builds_each_key_once(self, monkeypatch):
        calls: dict[str, int] = {}

        def counting_metric_key(name, labels):
            key = metric_key(name, labels)
            calls[key] = calls.get(key, 0) + 1
            return key

        monkeypatch.setattr(metrics, "metric_key", counting_metric_key)
        run_scenario("single-ap-100", seed=0)
        assert "cache.hits{cache=netsim_link}" in calls
        assert "netsim.transfers{delivered=true}" in calls
        assert max(calls.values()) == 1
        assert obs.get_registry().counter("cache.hits", cache="netsim_link").value > 100


# --- tracing ------------------------------------------------------------------------


class TestTracing:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("cli.run"):
            with tracer.span("engine.burst"):
                pass
        outer = next(s for s in tracer.finished_spans() if s.name == "cli.run")
        inner = next(s for s in tracer.finished_spans() if s.name == "engine.burst")
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)
        assert inner.duration_s >= 0.0
        assert tracer.subsystems() == {"cli", "engine"}

    def test_span_meta_and_current_span(self):
        tracer = Tracer()
        with tracer.span("engine.x", bits=64) as span:
            assert tracer.current_span() is span
        assert tracer.current_span() is None
        assert tracer.finished_spans()[0].meta == {"bits": 64}

    def test_error_tagged_and_counted(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with pytest.raises(ValueError):
            with tracer.span("engine.boom"):
                raise ValueError("x")
        assert tracer.finished_spans()[0].error == "ValueError"
        assert registry.counter("span.engine.boom.errors").value == 1

    def test_registry_gets_duration_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("engine.x"):
            pass
        histogram = registry.histogram("span.engine.x.duration_s")
        assert histogram.count == 1
        assert registry.counter("span.engine.x.errors").value == 0

    def test_events_ordered_and_attached_to_open_span(self):
        tracer = Tracer()
        with tracer.span("protocol.session") as span:
            first = tracer.add_event("protocol.field1", sim_time_s=0.0)
            second = tracer.add_event("protocol.field2", sim_time_s=1e-4)
        assert first.index < second.index
        assert first.span_id == span.span_id
        assert second.sim_time_s == pytest.approx(1e-4)


class TestCrossProcessAbsorption:
    def _worker_batch(self):
        """Finished span dicts as a forked worker would return them."""
        worker = Tracer()
        with worker.span("sweep.trial", parameter=1.0):
            with worker.span("engine.burst"):
                pass
        with worker.span("sweep.trial", parameter=2.0):
            pass
        return [s.to_dict() for s in worker.finished_spans()]

    def test_absorb_spans_preserves_tree_and_order(self):
        batch = self._worker_batch()
        parent = Tracer()
        with parent.span("parallel.map") as host:
            # Deliver out of id order: absorption must restore the tree.
            parent.absorb_spans(list(reversed(batch)), offset_s=100.0)
        spans = parent.finished_spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        trials = by_name["sweep.trial"]
        burst = by_name["engine.burst"][0]
        # Batch-internal parent links are remapped onto the fresh ids...
        assert burst.parent_id in {t.span_id for t in trials}
        # ...and batch roots hang off the absorbing span: no orphans.
        assert all(t.parent_id == host.span_id for t in trials)
        assert all(t.depth == host.depth + 1 for t in trials)
        assert burst.depth == host.depth + 2
        # Ids are fresh (no collision with the parent's own spans) and
        # the worker's id order — which is its start order — survives.
        assert len({s.span_id for s in spans}) == len(spans)
        assert trials[0].start_s < trials[1].start_s
        # The foreign timeline was rebased, durations untouched.
        assert burst.start_s >= 100.0
        assert burst.duration_s >= 0.0

    def test_absorb_events_reindexes_locally(self):
        worker = Tracer()
        with worker.span("sweep.trial"):
            worker.add_event("protocol.field1", sim_time_s=0.0)
            worker.add_event("protocol.field2", sim_time_s=1e-4)
        batch = [e.to_dict() for e in worker.events()]
        parent = Tracer()
        parent.add_event("protocol.boot")  # occupies index 0 locally
        with parent.span("parallel.map") as host:
            parent.absorb_events(batch, offset_s=50.0)
        events = parent.events()
        assert [e.name for e in events] == [
            "protocol.boot", "protocol.field1", "protocol.field2",
        ]
        # Worker indices (0, 1) would collide with the parent's; the
        # absorbed events get fresh local indices in arrival order.
        assert [e.index for e in events] == [0, 1, 2]
        assert events[1].span_id == host.span_id
        assert events[1].wall_s >= 50.0
        assert events[2].sim_time_s == pytest.approx(1e-4)

    def test_detach_open_spans_round_trip(self):
        tracer = Tracer()
        with tracer.span("cli.run") as root:
            with tracer.span("experiment.fig12") as inherited:
                # A forked worker inherits this open stack...
                assert tracer.current_span() is inherited
                assert (inherited.parent_id, inherited.depth) == (root.span_id, 1)
                tracer.detach_open_spans()
                # ...and after detaching, new spans are roots, not
                # children of the stale inherited ids.
                assert tracer.current_span() is None
                with tracer.span("sweep.trial") as fresh:
                    assert fresh.parent_id is None
                    assert fresh.depth == 0
                    assert fresh.span_id > inherited.span_id
        # The inherited spans were detached mid-flight, so closing their
        # context managers must not re-register them as finished twice.
        finished = [s.name for s in tracer.finished_spans()]
        assert finished.count("sweep.trial") == 1


# --- exporters ----------------------------------------------------------------------


class TestExporters:
    def test_trace_jsonl_roundtrip(self, tmp_path):
        with obs.span("cli.run"):
            with obs.span("engine.x"):
                obs.event("protocol.field1", sim_time_s=0.0)
        path = obs.write_trace_jsonl(tmp_path / "trace.jsonl", obs.get_tracer())
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert {s["name"] for s in spans} == {"cli.run", "engine.x"}
        assert events[0]["name"] == "protocol.field1"
        assert check_trace_jsonl(path, min_subsystems=2, require_nesting=True) == []

    def test_metrics_json_schema(self, tmp_path):
        obs.counter("a.b").inc()
        obs.histogram("c.d").observe(0.1)
        path = obs.write_metrics_json(tmp_path / "metrics.json", obs.get_registry())
        document = json.loads(path.read_text())
        assert document["version"] == 1
        assert document["generator"] == "repro.obs"
        assert set(document["metric_names"]) == {"a.b", "c.d"}
        assert check_metrics_json(path, min_metrics=2) == []

    def test_text_summary_mentions_every_metric(self):
        obs.counter("a.count").inc(3)
        obs.gauge("b.depth").set(2)
        with obs.span("engine.x"):
            pass
        summary = obs.render_text_summary(obs.get_registry(), obs.get_tracer())
        for needle in ("a.count", "b.depth", "engine.x", "== spans =="):
            assert needle in summary

    def test_check_flags_malformed_artifacts(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"type": "span", "name": "x"}\nnot json\n')
        problems = check_trace_jsonl(trace)
        assert any("missing" in p for p in problems)
        assert any("not valid JSON" in p for p in problems)
        metrics = tmp_path / "metrics.json"
        metrics.write_text("[]")
        assert check_metrics_json(metrics) == [f"{metrics}: top level must be an object"]
        assert check_main(["--trace", str(trace), "--metrics", str(metrics)]) == 1

    def test_check_rejects_corrupt_lines_without_raising(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        good = (
            '{"type": "span", "name": "engine.x", "span_id": 0, '
            '"parent_id": null, "depth": 0, "start_s": 0.0, "duration_s": 0.5}'
        )
        bad_types = (
            '{"type": "span", "name": "engine.y", "span_id": "seven", '
            '"parent_id": null, "depth": 0, "start_s": 0.0, "duration_s": "z"}'
        )
        trace.write_text(
            good + "\n"
            + "[1, 2, 3]\n"  # valid JSON, not an object
            + bad_types + "\n"
            + '{"type": "spam"}\n'  # unknown record type
            + '{"type": "span", "na',  # truncated tail write
            encoding="utf-8",
        )
        problems = check_trace_jsonl(trace)
        assert any("JSON object" in p for p in problems)
        assert any("malformed types" in p for p in problems)
        assert any("unknown record type" in p for p in problems)
        assert any("truncated" in p for p in problems)
        assert any("4 malformed line(s) rejected" in p for p in problems)
        assert obs.counter("obs.check.bad_lines").value == 4.0
        # The good line still validated: the file is not "no spans".
        assert not any("contains no spans" in p for p in problems)

    def test_check_missing_files(self, tmp_path):
        assert check_trace_jsonl(tmp_path / "nope.jsonl") == [
            f"{tmp_path / 'nope.jsonl'}: trace file missing"
        ]
        assert check_main(["--metrics", str(tmp_path / "nope.json")]) == 1


# --- the EventLog bridge ------------------------------------------------------------


class TestEventLogBridge:
    def test_events_carry_ordering_index(self):
        log = EventLog()
        log.record("field1")
        log.advance(1e-4)
        log.record("field2")
        log.record("payload")
        assert [e.index for e in log] == [0, 1, 2]
        # Same simulated timestamp, still a stable order.
        field2, payload = log.events("field2")[0], log.events("payload")[0]
        assert field2.time_s == payload.time_s
        assert field2.index < payload.index

    def test_sink_sees_every_record(self):
        seen = []
        log = EventLog(sink=seen.append)
        log.record("a", x=1)
        log.record("b")
        assert [e.kind for e in seen] == ["a", "b"]
        log.attach_sink(None)
        log.record("c")
        assert len(seen) == 2

    def test_attach_event_log_mirrors_into_tracer(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        log = EventLog()
        obs.attach_event_log(log, tracer)
        log.record("field2", distance_m=3.0)
        events = tracer.events()
        assert len(events) == 1
        assert events[0].name == "protocol.field2"
        assert events[0].sim_time_s == 0.0
        assert events[0].meta["log_index"] == 0
        assert events[0].meta["distance_m"] == 3.0

    def test_link_bridges_by_default_but_respects_custom_sink(self, clean_scene):
        link = MilBackLink(MilBackSimulator(clean_scene, seed=3))
        assert link.log.has_sink
        custom: list = []
        log = EventLog(sink=custom.append)
        link2 = MilBackLink(MilBackSimulator(clean_scene, seed=3), log=log)
        link2.log.record("x")
        assert len(custom) == 1 and not obs.get_tracer().events()


# --- instrumentation of the simulator / protocol / rng ------------------------------


class TestInstrumentation:
    def test_localization_produces_spans_and_counters(self, clean_scene):
        sim = MilBackSimulator(clean_scene, seed=7)
        sim.simulate_localization()
        registry = obs.get_registry()
        assert registry.counter("engine.localization.trials").value == 1
        assert registry.histogram("span.engine.localization.duration_s").count == 1
        names = {s.name for s in obs.get_tracer().finished_spans()}
        assert {"engine.localization", "engine.beat_records"} <= names
        # beat_records nests under the localization span.
        inner = next(
            s for s in obs.get_tracer().finished_spans()
            if s.name == "engine.beat_records"
        )
        assert inner.depth == 1

    def test_session_covers_protocol_and_engine(self, clean_scene):
        link = MilBackLink(MilBackSimulator(clean_scene, seed=11))
        link.receive_from_node(b"ok")
        tracer = obs.get_tracer()
        assert {"protocol", "engine"} <= tracer.subsystems()
        names = {s.name for s in tracer.finished_spans()}
        assert {"protocol.session", "protocol.field1", "protocol.field2",
                "protocol.payload", "engine.uplink"} <= names
        assert obs.counter("protocol.sessions", direction="uplink").value == 1
        # Bridged events line up with the simulated clock.
        kinds = [e.name for e in tracer.events()]
        assert kinds == ["protocol.field1", "protocol.field2", "protocol.payload"]
        sim_times = [e.sim_time_s for e in tracer.events()]
        assert sim_times == sorted(sim_times)

    def test_sweep_points_are_spanned(self):
        from repro.analysis.sweeps import run_sweep

        def trial(parameter, rng):
            return float(parameter)

        run_sweep([1.0, 2.0], trial, n_trials=3, seed=5)
        registry = obs.get_registry()
        assert registry.counter("sweep.points").value == 2
        assert registry.counter("sweep.trials").value == 6
        points = [s for s in obs.get_tracer().finished_spans() if s.name == "sweep.point"]
        assert [s.meta["parameter"] for s in points] == [1.0, 2.0]

    def test_rng_instantiation_counters(self):
        make_rng(3)
        generator = make_rng(np.random.default_rng(1))
        spawn_rngs(5, 4)
        registry = obs.get_registry()
        assert registry.counter("rng.generators.created").value == 1 + 4
        assert registry.counter("rng.generators.passed_through").value == 1
        assert registry.counter("rng.spawn_rngs.calls").value == 1
        assert isinstance(generator, np.random.Generator)


# --- the CLI flags ------------------------------------------------------------------


class TestCliObsFlags:
    """`python -m repro run <exp> --trace/--metrics-out/--obs-summary`."""

    def test_run_writes_both_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        status = cli_main(
            ["run", "fig10", "--trace", str(trace), "--metrics-out", str(metrics)]
        )
        assert status == 0
        assert capsys.readouterr().out.strip()  # the experiment report itself
        # Trace: valid JSONL, cli span at the root wrapping the experiment.
        assert check_trace_jsonl(trace, min_subsystems=2, require_nesting=True) == []
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        roots = [r for r in records if r["type"] == "span" and r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["cli.run"]
        assert roots[0]["meta"] == {"experiment": "fig10"}
        # Metrics: versioned document with the run counters inside.
        assert check_metrics_json(metrics, min_metrics=3) == []
        document = json.loads(metrics.read_text())
        assert document["metrics"]["cli.runs"] == {"type": "counter", "value": 1.0}
        assert "experiment.runs{experiment=fig10}" in document["metrics"]

    def test_trace_only_and_metrics_only(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert cli_main(["run", "fig10", "--trace", str(trace)]) == 0
        assert trace.exists()
        assert not (tmp_path / "metrics.json").exists()
        metrics = tmp_path / "metrics.json"
        assert cli_main(["run", "fig10", "--metrics-out", str(metrics)]) == 0
        assert metrics.exists()
        capsys.readouterr()

    def test_unknown_experiment_exits_2_without_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        status = cli_main(
            ["run", "nope", "--trace", str(trace), "--metrics-out", str(metrics)]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "unknown experiment" in captured.err
        assert not trace.exists() and not metrics.exists()

    def test_obs_summary_prints_rollup(self, capsys):
        assert cli_main(["run", "fig10", "--obs-summary"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "== spans ==" in out
        assert "cli.runs" in out

    def test_fig12_trace_spans_four_subsystems(self, tmp_path, capsys):
        """The PR's acceptance criterion, as a regression test."""
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        status = cli_main(
            ["run", "fig12", "--trials", "1",
             "--trace", str(trace), "--metrics-out", str(metrics)]
        )
        capsys.readouterr()
        assert status == 0
        assert check_trace_jsonl(trace, min_subsystems=4, require_nesting=True) == []
        assert check_metrics_json(metrics, min_metrics=15) == []
        # The protocol's simulated-time events made it into the trace.
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        bridged = [r for r in records if r["type"] == "event"]
        assert bridged and all(r["sim_time_s"] is not None for r in bridged)

    def test_heartbeat_flag_streams_progress(self, tmp_path, capsys):
        beats = tmp_path / "beats.jsonl"
        status = cli_main(
            ["run", "fig12", "--trials", "2",
             "--heartbeat", "0.0001", "--heartbeat-out", str(beats)]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "repro: " in captured.err  # one-liners went to stderr
        assert "sweep.point" in captured.err
        records = [
            json.loads(line)
            for line in beats.read_text(encoding="utf-8").splitlines()
        ]
        assert records
        assert records[-1]["done"] == records[-1]["total"] > 0
        # The emitter is torn down with the run: nothing leaks into the
        # next invocation.
        from repro.obs import stream as obs_stream

        assert obs_stream.get_emitter() is None

    def test_artifacts_written_even_when_experiment_crashes(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        def boom(args):
            raise RuntimeError("mid-sweep crash")

        monkeypatch.setattr(cli_module, "_run_experiments", boom)
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        with pytest.raises(RuntimeError):
            cli_main(["run", "fig10", "--trace", str(trace), "--metrics-out", str(metrics)])
        # The partial trace of the crashed run is still on disk, and the
        # root span carries the error tag.
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        root = next(r for r in records if r["type"] == "span" and r["name"] == "cli.run")
        assert root["error"] == "RuntimeError"
        assert check_metrics_json(metrics) == []
