"""Lightweight tracing spans over ``time.perf_counter``.

A :class:`Span` measures the wall time of one stage — a simulator burst,
a protocol phase, an experiment sweep — and knows its parent, so a trace
reads as a tree: ``cli.run`` contains ``experiment.fig12`` contains
``sweep.point`` contains ``engine.localization``. Point-in-time records
(:class:`TraceEvent`) carry the protocol's *simulated* clock next to the
wall clock, so the two time bases can be lined up after the fact.

Every finished span also feeds the metrics registry: a histogram
``span.<name>.duration_s`` and a zero-initialised counter
``span.<name>.errors`` (incremented when the span body raises). That one
convention gives every instrumented stage a latency distribution and an
error count for free.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "TraceEvent", "Tracer"]

#: Spans/events kept per tracer before further ones are dropped (a full
#: evaluation sweep stays well under this; the caps only bound memory in
#: pathological loops, e.g. benchmark calibration re-running a sweep).
MAX_FINISHED_SPANS = 200_000
MAX_EVENTS = 200_000


@dataclass
class Span:
    """One timed stage of a run."""

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    start_s: float
    meta: dict[str, Any] = field(default_factory=dict)
    end_s: float | None = None
    error: str | None = None

    @property
    def duration_s(self) -> float:
        """Wall time; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def subsystem(self) -> str:
        """Leading dotted component: ``engine.localization`` → ``engine``."""
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "error": self.error,
            "meta": self.meta,
        }


@dataclass(frozen=True)
class TraceEvent:
    """A point-in-time record, e.g. one bridged protocol event."""

    name: str
    wall_s: float
    index: int
    span_id: int | None
    sim_time_s: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "wall_s": self.wall_s,
            "index": self.index,
            "span_id": self.span_id,
            "sim_time_s": self.sim_time_s,
            "meta": self.meta,
        }


class _SpanStack(threading.local):
    """Per-thread stack of open spans (nesting is thread-scoped)."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Collects spans and events for one process-wide trace."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry
        self._finished: list[Span] = []
        self._events: list[TraceEvent] = []
        self._open = _SpanStack()
        self._lock = threading.Lock()
        self._next_id = 0
        self._event_index = 0

    # --- span lifecycle -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """Time a block::

            with tracer.span("engine.uplink", bits=1024):
                ...
        """
        record = self._start(name, meta)
        try:
            yield record
        except BaseException as exc:  # milback: disable=ML004 — tag-and-reraise: spans must observe every failure
            record.error = type(exc).__name__
            raise
        finally:
            self._finish(record)

    def _start(self, name: str, meta: dict[str, Any]) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self._open.stack[-1] if self._open.stack else None
        record = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            depth=len(self._open.stack),
            start_s=time.perf_counter(),
            meta=dict(meta),
        )
        self._open.stack.append(record)
        return record

    def _finish(self, record: Span) -> None:
        record.end_s = time.perf_counter()
        if self._open.stack and self._open.stack[-1] is record:
            self._open.stack.pop()
        with self._lock:
            if len(self._finished) < MAX_FINISHED_SPANS:
                self._finished.append(record)
        if self._registry is not None:
            self._registry.histogram(f"span.{record.name}.duration_s").observe(
                record.duration_s
            )
            errors = self._registry.counter(f"span.{record.name}.errors")
            if record.error is not None:
                errors.inc()

    # --- point events ----------------------------------------------------------------

    def add_event(
        self,
        name: str,
        sim_time_s: float | None = None,
        index: int | None = None,
        wall_s: float | None = None,
        **meta: Any,
    ) -> TraceEvent:
        """Record an instantaneous event under the current span (if any).

        ``index`` is the source's own ordering index (e.g. the protocol
        :class:`~repro.protocol.events.EventLog` position); when absent
        the tracer assigns the next global event index so interleaved
        streams still sort stably. ``wall_s`` overrides the timestamp —
        used when absorbing events recorded on another timeline.
        """
        with self._lock:
            if index is None:
                index = self._event_index
            self._event_index = max(self._event_index, index) + 1
            parent = self._open.stack[-1] if self._open.stack else None
            record = TraceEvent(
                name=name,
                wall_s=time.perf_counter() if wall_s is None else wall_s,
                index=index,
                span_id=parent.span_id if parent else None,
                sim_time_s=sim_time_s,
                meta=dict(meta),
            )
            if len(self._events) < MAX_EVENTS:
                self._events.append(record)
        return record

    # --- cross-process absorption ----------------------------------------------------

    def detach_open_spans(self) -> None:
        """Forget the calling thread's inherited open-span stack.

        A forked :mod:`repro.parallel` worker inherits the parent's open
        spans (``cli.run`` → ``experiment.*`` …) by copy-on-write; new
        worker spans must not claim those stale ids as parents, so the
        worker calls this once before running its first chunk.
        """
        self._open.stack.clear()

    def absorb_spans(
        self,
        span_dicts: Sequence[dict[str, Any]],
        offset_s: float = 0.0,
        **meta_extra: Any,
    ) -> None:
        """Append finished spans recorded by another tracer (a worker).

        Spans get fresh ids; parent links *within* the batch are
        preserved, and batch roots are re-parented under the caller's
        current open span so the merged trace stays a single tree (and
        ``repro.obs.check`` finds no orphan parent ids). ``offset_s``
        rebases the foreign ``perf_counter`` timeline onto the local one
        — durations are exact, absolute placement is the dispatch time.

        Deliberately does **not** feed the metrics registry: the worker's
        own registry delta already carries the ``span.*.duration_s``
        histograms, so re-observing here would double-count.
        """
        current = self.current_span()
        base_depth = current.depth + 1 if current is not None else 0
        batch = sorted(span_dicts, key=lambda d: int(d["span_id"]))
        min_depth = min((int(d["depth"]) for d in batch), default=0)
        id_map: dict[int, int] = {}
        with self._lock:
            for d in batch:
                new_id = self._next_id
                self._next_id += 1
                id_map[int(d["span_id"])] = new_id
                old_parent = d.get("parent_id")
                if old_parent is not None and int(old_parent) in id_map:
                    parent_id: int | None = id_map[int(old_parent)]
                else:
                    parent_id = current.span_id if current is not None else None
                record = Span(
                    name=str(d["name"]),
                    span_id=new_id,
                    parent_id=parent_id,
                    depth=base_depth + int(d["depth"]) - min_depth,
                    start_s=float(d["start_s"]) + offset_s,
                    meta={**dict(d.get("meta") or {}), **meta_extra},
                    end_s=(
                        float(d["end_s"]) + offset_s
                        if d.get("end_s") is not None
                        else float(d["start_s"]) + offset_s
                    ),
                    error=d.get("error"),
                )
                if len(self._finished) < MAX_FINISHED_SPANS:
                    self._finished.append(record)

    def absorb_events(
        self,
        event_dicts: Sequence[dict[str, Any]],
        offset_s: float = 0.0,
        **meta_extra: Any,
    ) -> None:
        """Append point events recorded by another tracer (a worker).

        Events are re-indexed locally (the worker's indices would collide
        with the parent's) and attached to the caller's current span.
        """
        for d in event_dicts:
            self.add_event(
                str(d["name"]),
                sim_time_s=d.get("sim_time_s"),
                wall_s=float(d["wall_s"]) + offset_s,
                **{**dict(d.get("meta") or {}), **meta_extra},
            )

    # --- views ---------------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def subsystems(self) -> set[str]:
        """Distinct leading span-name components seen so far."""
        return {s.subsystem for s in self.finished_spans()}

    def current_span(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        return self._open.stack[-1] if self._open.stack else None

    def reset(self) -> None:
        """Drop finished spans and events (open spans keep their ids)."""
        with self._lock:
            self._finished.clear()
            self._events.clear()
            self._event_index = 0
