"""repro.obs — metrics and tracing for the MilBack reproduction.

A dependency-free observability layer with three pieces:

* a **metrics registry** (:mod:`repro.obs.metrics`): counters, gauges
  and fixed-bucket histograms addressed by dotted names plus label tags;
* **tracing spans** (:mod:`repro.obs.tracing`): nested wall-time spans
  over ``time.perf_counter`` with per-span metadata, feeding latency
  histograms and error counters into the registry automatically;
* **exporters** (:mod:`repro.obs.export`): human-readable text summary,
  JSONL trace dump, and a versioned ``metrics.json`` snapshot.

Runtime telemetry extends the post-hoc core with three pieces:

* **span-tree aggregation** (:mod:`repro.obs.report`) over trace JSONL:
  inclusive/exclusive time, call counts, critical path and an HTML
  span flamegraph (``repro obs report``) — the one in-process answer
  to "where did the time go";
* **live heartbeats** (:mod:`repro.obs.stream`): rate-limited progress
  snapshots from long sweeps and campaigns (``--heartbeat``);
* a **bench-regression gate** (:mod:`repro.obs.regress`) diffing fresh
  ``BENCH_obs.json``/``metrics.json`` gauges against a recorded
  baseline with tolerance bands (``repro obs regress``).

The simulator engine, the protocol layer, every experiment entry point
and the CLI are instrumented against the process-wide defaults in
:mod:`repro.obs.runtime`; the protocol's simulated-time
:class:`~repro.protocol.events.EventLog` is mirrored into the wall-time
trace by :mod:`repro.obs.bridge`. See ``docs/OBSERVABILITY.md`` for the
metric-name catalogue and span naming convention.

Quick use::

    from repro import obs

    with obs.span("experiment.demo", trials=5):
        obs.counter("experiment.runs", experiment="demo").inc()
        ...
    obs.write_metrics_json("metrics.json", obs.get_registry())
"""

from __future__ import annotations

from repro.obs.bridge import attach_event_log
from repro.obs.export import (
    SNAPSHOT_VERSION,
    metrics_document,
    render_text_summary,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.runtime import (
    counter,
    event,
    gauge,
    get_registry,
    get_tracer,
    histogram,
    reset,
    span,
    traced,
)
from repro.obs.stream import HeartbeatEmitter
from repro.obs.tracing import Span, TraceEvent, Tracer

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",  # milback: disable=ML014 — public observability API
    "metric_key",
    # tracing
    "Span",
    "TraceEvent",
    "Tracer",
    # runtime helpers
    "counter",
    "gauge",
    "histogram",
    "span",
    "event",
    "traced",
    "reset",
    "get_registry",
    "get_tracer",
    # bridge + exporters
    "attach_event_log",
    "SNAPSHOT_VERSION",  # milback: disable=ML014 — public observability API
    "metrics_document",  # milback: disable=ML014 — public observability API
    "render_text_summary",
    "write_metrics_json",
    "write_trace_jsonl",
    # runtime telemetry
    "HeartbeatEmitter",
]
