"""Metrics primitives: counters, gauges, histograms, and their registry.

The registry is the single source of truth for everything the
reproduction measures about itself at runtime: trial counts, error
counts, RNG instantiations, per-stage wall time. Metrics are addressed
by dotted names (``engine.localization.trials``) plus optional label
tags (``experiment="fig12"``), mirroring the Prometheus data model
without taking the dependency — everything here is stdlib only, so the
observability layer can never perturb the physics it observes.

Histograms use fixed buckets (default: a log-spaced ladder from 1 µs to
100 s, sized for wall-time measurements) and report percentiles by
linear interpolation inside the owning bucket. Exact ``count``, ``sum``,
``min`` and ``max`` are tracked alongside, so means are exact even when
percentiles are estimates.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "metric_key",
]

#: Log-spaced bucket upper bounds [s] for wall-time histograms: 1 µs … 100 s.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = tuple(
    round(base * 10.0**exponent, 12)
    for exponent in range(-6, 3)
    for base in (1.0, 2.5, 5.0)
)


def _ladder(buckets: Iterable[float]) -> tuple[float, ...]:
    """Sorted bucket bounds. The default ladder comes back as itself, by
    an identity check before any sort, so a histogram built on an equal
    ladder shares it and later default calls compare by identity."""
    if buckets is DEFAULT_TIME_BUCKETS:
        return DEFAULT_TIME_BUCKETS
    bounds = tuple(sorted(float(b) for b in buckets))
    return DEFAULT_TIME_BUCKETS if bounds == DEFAULT_TIME_BUCKETS else bounds


def metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (trials run, errors seen, ...)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ConfigurationError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, object]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-written value (queue depth, configured trial count, ...)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, object]:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket distribution with interpolated percentile estimates."""

    __slots__ = ("name", "labels", "_bounds", "_bucket_counts", "_count",
                 "_sum", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        bounds = _ladder(buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = dict(labels)
        self._bounds = bounds
        # One overflow bucket past the last bound (observations > bounds[-1]).
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            self._bucket_counts[self._bucket_index(value)] += 1

    def merge_dump(self, dump: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`dump` into this one.

        Both histograms must share the same bucket ladder — merging
        across different ladders would silently misbin, so it raises.
        """
        bounds = tuple(float(b) for b in dump["bounds"])  # type: ignore[arg-type]
        if bounds != self._bounds:
            raise ConfigurationError(
                f"histogram {self.name!r}: cannot merge across different "
                f"bucket ladders ({len(bounds)} vs {len(self._bounds)} bounds)"
            )
        counts = list(dump["bucket_counts"])  # type: ignore[arg-type]
        with self._lock:
            self._count += int(dump["count"])  # type: ignore[arg-type]
            self._sum += float(dump["sum"])  # type: ignore[arg-type]
            if dump["min"] is not None:
                self._min = min(self._min, float(dump["min"]))  # type: ignore[arg-type]
            if dump["max"] is not None:
                self._max = max(self._max, float(dump["max"]))  # type: ignore[arg-type]
            for i, extra in enumerate(counts):
                self._bucket_counts[i] += int(extra)

    def dump(self) -> dict[str, object]:
        """Lossless internal state, suitable for :meth:`merge_dump`.

        Unlike :meth:`to_dict` (a human/JSON view with derived
        percentiles and empty buckets elided), this carries the raw
        bucket counts so a merge is exact.
        """
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "bucket_counts": list(self._bucket_counts),
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
            }

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:  # first bound >= value (bisect_left on upper bounds)
            mid = (lo + hi) // 2
            if self._bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from the buckets.

        Linear interpolation inside the bucket holding the rank, clamped
        to the exact observed min/max so estimates never leave the data's
        range. Returns 0.0 when the histogram is empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self._bounds[i - 1] if i > 0 else min(self._min, self._bounds[0])
                upper = self._bounds[i] if i < len(self._bounds) else self._max
                lower = max(lower, self._min)
                upper = min(upper, self._max)
                if upper <= lower:
                    return lower
                fraction = (rank - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self._max

    def to_dict(self) -> dict[str, object]:
        empty = self._count == 0
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": None if empty else self._min,
            "max": None if empty else self._max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self._bounds, self._bucket_counts)
                if count
            ],
        }


class MetricsRegistry:
    """Get-or-create store for every metric in a run.

    All three accessors are idempotent: the first call with a given
    ``(name, labels)`` creates the instrument, later calls return the
    same object. Mixing kinds under one key is a configuration bug and
    raises immediately, as does asking for an existing histogram with
    another bucket ladder (which :meth:`merge_state` could not merge).

    A call with the kind, name and labels (in the same order) of an
    earlier one finds its metric in one dict lookup, without building
    the flat key; any other call takes the :func:`metric_key` path,
    which then remembers it.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # (kind, name, *labels.items()) -> the metric at its flat key.
        self._handles: dict[tuple, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        shape = (cls, name, *labels.items())
        handle = self._handles.get(shape)
        if handle is not None:
            return handle
        key = metric_key(name, labels)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is None:
                existing = self._metrics[key] = cls(name, labels, **kwargs)
            elif not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {key!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            # Only string labels: 1, 1.0 and True are equal as dict keys
            # but are different metrics.
            if all(type(value) is str for value in labels.values()):
                self._handles[shape] = existing
            return existing

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        bounds = _ladder(buckets)
        histogram = self._get_or_create(Histogram, name, labels, buckets=bounds)
        if histogram._bounds is not bounds and histogram._bounds != bounds:
            raise ConfigurationError(
                f"histogram {metric_key(name, labels)!r} already has another "
                f"bucket ladder ({len(histogram._bounds)} vs {len(bounds)} bounds)"
            )
        return histogram

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Distinct metric names (labels collapsed), sorted."""
        return sorted({m.name for m in self._metrics.values()})

    def items(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """``(flat key, metric)`` pairs, sorted by key."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-ready view of every metric, keyed by flat key."""
        return {key: metric.to_dict() for key, metric in self.items()}

    # --- cross-process state transfer -------------------------------------------

    def dump_state(self) -> dict[str, dict[str, object]]:
        """Lossless, picklable state of every metric.

        This is the wire format :mod:`repro.parallel` workers return to
        the parent: unlike :meth:`snapshot` it keeps histogram bucket
        counts exact, so :meth:`merge_state` reproduces precisely the
        registry a serial run would have built.
        """
        state: dict[str, dict[str, object]] = {}
        for key, metric in self.items():
            entry: dict[str, object] = {"name": metric.name, "labels": dict(metric.labels)}
            if isinstance(metric, Counter):
                entry["kind"] = "counter"
                entry["value"] = metric.value
            elif isinstance(metric, Gauge):
                entry["kind"] = "gauge"
                entry["value"] = metric.value
            else:
                entry["kind"] = "histogram"
                entry["data"] = metric.dump()
            state[key] = entry
        return state

    def merge_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a :meth:`dump_state` delta from another registry into this one.

        Counters add, histograms merge bucket-exactly, gauges take the
        incoming value (last write wins — matching what interleaved
        serial execution would have left behind).
        """
        for entry in state.values():
            name = str(entry["name"])
            labels = {str(k): str(v) for k, v in dict(entry["labels"]).items()}  # type: ignore[arg-type]
            kind = entry["kind"]
            if kind == "counter":
                amount = float(entry["value"])  # type: ignore[arg-type]
                if amount > 0:
                    self.counter(name, **labels).inc(amount)
                else:
                    self.counter(name, **labels)  # materialize zero-valued counters
            elif kind == "gauge":
                self.gauge(name, **labels).set(float(entry["value"]))  # type: ignore[arg-type]
            elif kind == "histogram":
                data = entry["data"]
                bounds = tuple(float(b) for b in data["bounds"])  # type: ignore[index]
                self.histogram(name, buckets=bounds, **labels).merge_dump(data)  # type: ignore[arg-type]
            else:
                raise ConfigurationError(f"unknown metric kind {kind!r} in state dump")

    def reset(self) -> None:
        """Drop every metric (used between CLI runs and in tests)."""
        with self._lock:
            self._metrics.clear()
            self._handles.clear()
