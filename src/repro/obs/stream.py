"""Live progress heartbeats for long-running sweeps and campaigns.

A multi-minute ``repro.parallel`` sweep is silent until it finishes:
the metrics/trace artifacts are post-hoc by design. This module adds a
*runtime* channel — a :class:`HeartbeatEmitter` that call sites tick
from their hot loops and which, at most once per configured interval,
emits a progress snapshot: trials done/total, throughput, ETA, and the
deltas of every counter that moved since the previous beat (which is
how per-worker obs deltas merged by :mod:`repro.parallel` become
visible mid-run).

Heartbeats are observation-only. They go to stderr (human one-liners)
and/or a JSONL file, never to stdout (experiment reports stay clean),
and emitting them cannot perturb results: the scientific outputs of a
sweep are bitwise identical with heartbeats on or off, at any worker
count. A bounded ring buffer keeps the most recent beats readable in
process (tests, future dashboards).

Disabled by default. Enable with ``--heartbeat SECONDS`` on the CLI or
``$REPRO_HEARTBEAT_S``; ``--heartbeat-out`` adds the JSONL sink.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TextIO

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter
from repro.obs.runtime import counter, get_registry, get_tracer

__all__ = [
    "HEARTBEAT_ENV",
    "Heartbeat",  # milback: disable=ML014 — public snapshot record type
    "HeartbeatEmitter",
    "configure",
    "get_emitter",
    "resolve_interval",
    "tick",
]

#: Environment variable giving the default heartbeat interval [s].
HEARTBEAT_ENV = "REPRO_HEARTBEAT_S"

#: Heartbeats retained in the in-process ring buffer.
RING_SIZE = 256


def resolve_interval(interval_s: float | None) -> float:
    """Effective interval: explicit value, else env, else 0 (disabled)."""
    if interval_s is None:
        raw = os.environ.get(HEARTBEAT_ENV, "").strip()
        if not raw:
            return 0.0
        try:
            interval_s = float(raw)
        except ValueError:
            raise ConfigurationError(
                f"${HEARTBEAT_ENV}={raw!r} is not a number"
            ) from None
    if interval_s < 0:
        raise ConfigurationError(
            f"heartbeat interval must be >= 0, got {interval_s}"
        )
    return float(interval_s)


def _health_from_deltas(deltas: dict[str, float]) -> dict[str, str]:
    """Derived warm-path health for the one-liner, from counter deltas.

    Two signals that matter on long dataset/sweep runs: the
    scene-invariant cache hit ratio since the last beat (a cold worker
    shows ~0%, a warm one climbs toward 100%), and how many bytes the
    parallel transport shipped (shm and pipe combined). Both are pure
    functions of counters the run already maintains — nothing new is
    measured, so heartbeats stay observation-only.
    """
    health: dict[str, str] = {}
    hits = sum(v for k, v in deltas.items() if k.startswith("cache.hits"))
    misses = sum(v for k, v in deltas.items() if k.startswith("cache.misses"))
    if hits + misses > 0:
        health["cache"] = f"{100.0 * hits / (hits + misses):.0f}%"
    shipped = sum(
        v for k, v in deltas.items() if k.startswith("parallel.bytes_shipped")
    )
    if shipped > 0:
        if shipped >= 1 << 20:
            health["shipped"] = f"{shipped / (1 << 20):.1f}MiB"
        else:
            health["shipped"] = f"{shipped / 1024.0:.1f}KiB"
    return health


@dataclass(frozen=True)
class Heartbeat:
    """One progress snapshot."""

    seq: int
    label: str
    done: int
    total: int
    elapsed_s: float
    rate_per_s: float
    eta_s: float | None
    counters: dict[str, float] = field(default_factory=dict)
    health: dict[str, str] = field(default_factory=dict)

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "heartbeat",
            "seq": self.seq,
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "elapsed_s": self.elapsed_s,
            "rate_per_s": self.rate_per_s,
            "eta_s": self.eta_s,
            "counters": dict(self.counters),
            "health": dict(self.health),
        }

    def render(self) -> str:
        """The stderr one-liner."""
        eta = f" eta={self.eta_s:.1f}s" if self.eta_s is not None else ""
        vitals = " ".join(
            f"{name}={value}" for name, value in sorted(self.health.items())
        )
        moved = " ".join(
            f"{name}+{delta:g}" for name, delta in sorted(self.counters.items())
        )
        line = (
            f"repro: {self.label} {self.done}/{self.total} "
            f"({100.0 * self.fraction:.0f}%) rate={self.rate_per_s:.2f}/s{eta}"
        )
        if vitals:
            line = f"{line} {vitals}"
        return f"{line} [{moved}]" if moved else line


class HeartbeatEmitter:
    """Rate-limited progress snapshots over a bounded ring buffer.

    ``tick(done, total)`` is cheap when the interval has not elapsed (one
    clock read and a comparison), so hot loops can call it per trial.
    """

    def __init__(
        self,
        interval_s: float,
        stream: TextIO | None = None,
        jsonl_path: str | Path | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(
                f"emitter interval must be positive, got {interval_s}"
            )
        self.interval_s = float(interval_s)
        self._stream = stream if stream is not None else sys.stderr
        self._jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._clock = clock
        self._ring: deque[Heartbeat] = deque(maxlen=RING_SIZE)
        self._seq = 0
        self._started_s = clock()
        self._last_beat_s: float | None = None
        self._last_counters: dict[str, float] = self._counter_values()

    def _counter_values(self) -> dict[str, float]:
        return {
            key: metric.value
            for key, metric in get_registry().items()
            if isinstance(metric, Counter)
        }

    def tick(
        self,
        done: int,
        total: int,
        label: str | None = None,
        force: bool = False,
    ) -> Heartbeat | None:
        """Emit a snapshot when the interval elapsed (or ``force``).

        ``label`` defaults to the name of the caller's innermost open
        span, so a campaign beats as ``faults.campaign`` and a figure
        sweep as ``experiment.fig12`` without threading names around.
        """
        now_s = self._clock()
        last_s = self._last_beat_s
        if not force and last_s is not None and now_s - last_s < self.interval_s:
            return None
        self._last_beat_s = now_s
        if label is None:
            current = get_tracer().current_span()
            label = current.name if current is not None else "run"
        values = self._counter_values()
        deltas = {
            name: value - self._last_counters.get(name, 0.0)
            for name, value in values.items()
            if value != self._last_counters.get(name, 0.0)
        }
        self._last_counters = values
        elapsed_s = now_s - self._started_s
        rate = done / elapsed_s if elapsed_s > 0 else 0.0
        remaining = max(total - done, 0)
        eta = remaining / rate if rate > 0 else None
        beat = Heartbeat(
            seq=self._seq,
            label=label,
            done=int(done),
            total=int(total),
            elapsed_s=elapsed_s,
            rate_per_s=rate,
            eta_s=eta,
            counters=deltas,
            health=_health_from_deltas(deltas),
        )
        self._seq += 1
        self._ring.append(beat)
        counter("stream.heartbeats").inc()
        self._stream.write(beat.render() + "\n")
        self._stream.flush()
        if self._jsonl_path is not None:
            with self._jsonl_path.open("a", encoding="utf-8") as sink:
                sink.write(json.dumps(beat.to_dict(), sort_keys=True) + "\n")
        return beat

    def recent(self) -> list[Heartbeat]:
        """The ring buffer's current contents, oldest first."""
        return list(self._ring)


# --- process-wide wiring --------------------------------------------------------------

_EMITTER: HeartbeatEmitter | None = None


def configure(
    interval_s: float | None = None,
    stream: TextIO | None = None,
    jsonl_path: str | Path | None = None,
) -> HeartbeatEmitter | None:
    """Install (or clear) the process-wide emitter.

    ``interval_s=None`` consults ``$REPRO_HEARTBEAT_S``; a resolved
    interval of 0 disables heartbeats (the default). Returns the active
    emitter, if any.
    """
    global _EMITTER
    interval = resolve_interval(interval_s)
    if interval <= 0:
        _EMITTER = None
        return None
    _EMITTER = HeartbeatEmitter(interval, stream=stream, jsonl_path=jsonl_path)
    return _EMITTER


def get_emitter() -> HeartbeatEmitter | None:
    """The process-wide emitter, or None when heartbeats are disabled."""
    return _EMITTER


def tick(
    done: int, total: int, label: str | None = None, force: bool = False
) -> Heartbeat | None:
    """Tick the process-wide emitter; no-op when heartbeats are disabled."""
    if _EMITTER is None:
        return None
    return _EMITTER.tick(done, total, label=label, force=force)
