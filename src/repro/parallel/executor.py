"""The process-pool sweep executor.

Execution model
---------------

``parallel_map(fn, items)`` splits ``items`` into contiguous chunks and
runs each chunk in a forked worker of a
:class:`~repro.parallel.pool.PersistentPool` — the one installed with
``with PersistentPool(...)`` when ``fn`` is picklable, otherwise a pool
that lives for this one call. Workers are forked, not spawned, for one
load-bearing reason: sweep trial functions are closures over experiment
parameters (scene geometry, bit rates, …) and closures cannot cross a
pickle boundary — but the one-call pool forks after ``fn`` is staged in
the module global :data:`_WORKER_FN`, so its children inherit it by
copy-on-write. Item payloads (parameters and
``numpy.random.Generator`` streams) *are* pickled, which preserves RNG
state exactly.

Each worker chunk opens a fresh observation window (`obs.reset()` plus
:meth:`~repro.obs.tracing.Tracer.detach_open_spans`), runs its tasks,
and returns ``(values, registry state, finished spans, events, t0)``.
The parent merges every chunk's registry delta and absorbs its spans —
rebased onto the parent timeline at the chunk's dispatch instant — so
one ``metrics.json``/trace describes the whole run no matter where the
work happened.

Failure model: exceptions raised by ``fn`` propagate to the caller
exactly as in a serial loop. Pool *infrastructure* failures (fork
unavailable, pool refuses to start, workers die) instead run every item
no consumed chunk covered in-process — deterministic because the
parent's RNG copies were never advanced — and bump
``parallel.fallbacks``.

Transport: ndarrays of at least ``shm.MIN_SHM_BYTES`` in payloads and
results ride shared-memory arenas (see :mod:`repro.parallel.shm`); RNG
streams, scalars, small arrays and the obs delta cross the pipe, and
``parallel.bytes_shipped{path=pickle|shm}`` counts what moved over each
path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.obs import stream

__all__ = [
    "DEFAULT_WORKERS_ENV",
    "ParallelResult",
    "parallel_map",
    "resolve_max_workers",
]

#: Environment variable consulted when ``max_workers`` is not given.
DEFAULT_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: The chunk fan-out per worker: enough chunks that an uneven trial mix
#: load-balances, few enough that per-chunk overhead stays negligible.
_CHUNKS_PER_WORKER = 4

# Fork-inherited worker state. parallel_map stages _WORKER_FN before its
# one-call pool forks; the children see it by copy-on-write.
_WORKER_FN: Callable[[Any], Any] | None = None
_IN_WORKER = False


def resolve_max_workers(max_workers: int | None) -> int:
    """Turn the user-facing knob into an effective worker count.

    ``None`` defers to ``$REPRO_MAX_WORKERS`` (absent/empty → 1, the
    serial default); ``0`` or negative means "all cores". Inside a
    worker process the answer is always 1 — nested pools would
    oversubscribe and gain nothing.
    """
    if _IN_WORKER:
        return 1
    if max_workers is None:
        raw = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            max_workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"${DEFAULT_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
    if max_workers <= 0:
        return os.cpu_count() or 1
    return int(max_workers)


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of one :func:`parallel_map` call."""

    values: list[Any]
    workers: int
    n_chunks: int
    #: None when the pool ran; otherwise why execution fell back to serial.
    fallback_reason: str | None = None

    @property
    def parallel(self) -> bool:
        return self.fallback_reason is None and self.workers > 1


def _chunk_indices(n_items: int, workers: int, chunk_size: int | None) -> list[range]:
    """Contiguous index ranges covering ``range(n_items)`` in order."""
    if chunk_size is None:
        chunk_size = max(1, -(-n_items // (workers * _CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be at least 1")
    return [range(lo, min(lo + chunk_size, n_items)) for lo in range(0, n_items, chunk_size)]


def _serial_loop(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """In-process execution with live heartbeats (no-ops when disabled)."""
    values = []
    for i, item in enumerate(items):
        values.append(fn(item))
        stream.tick(done=i + 1, total=len(items), force=i + 1 == len(items))
    return values


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    max_workers: int | None = None,
    chunk_size: int | None = None,
) -> ParallelResult:
    """Run ``fn`` over ``items`` on a process pool, preserving order.

    Results come back in item order regardless of which worker finished
    first, worker obs metrics/spans are merged into the parent, and any
    infrastructure failure degrades to an in-process serial loop. ``fn``
    may be a closure; ``items`` must be picklable (RNG generators are).
    """
    global _WORKER_FN
    from repro.parallel import pool as _pool  # deferred: pool imports this module

    items = list(items)
    workers = resolve_max_workers(max_workers)
    if workers <= 1 or len(items) <= 1:
        # Intentional serial execution, not a degradation — no fallback
        # counter, so parallel.fallbacks only ever flags real failures.
        return ParallelResult(
            values=_serial_loop(fn, items),
            workers=1,
            n_chunks=0,
            fallback_reason="serial",
        )
    active = _pool.active_pool()
    if active is not None and _pool.is_picklable(fn):
        return active.map(fn, items, chunk_size=chunk_size)
    # No usable pool: run on one that lives for this call and forks
    # after _WORKER_FN is staged, so fn reaches its workers by fork
    # inheritance, closures included. More workers than items would
    # only fork idle processes (and would not change the chunking).
    _WORKER_FN = fn
    one_call = _pool.PersistentPool(min(workers, len(items)))
    try:
        return one_call.map(fn, items, chunk_size=chunk_size)
    finally:
        one_call.shutdown()
        _WORKER_FN = None
