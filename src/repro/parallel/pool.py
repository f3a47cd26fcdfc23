"""The forked worker pool behind every :func:`parallel_map` call.

Execution model
---------------

``parallel_map(fn, items, max_workers)`` runs serially, or splits
``items`` into contiguous chunks and runs each chunk in a forked worker
of a :class:`PersistentPool` that lives for this one call. Workers are
forked, not spawned, for one load-bearing reason: sweep trial functions
are closures over experiment parameters (scene geometry, bit rates, …)
and closures cannot cross a pickle boundary — but the one-call pool
forks after ``fn`` is staged in the module global :data:`_WORKER_FN`,
so its children inherit it by copy-on-write.

Transport: one pipe. The parent pickles each chunk's items once
(parameters and ``numpy.random.Generator`` streams, whose state
survives pickling exactly), the worker pickles the chunk's results
once, and ``ProcessPoolExecutor`` carries those bytes;
``parallel.bytes_shipped`` adds up their lengths in both directions.

Each worker chunk opens a fresh observation window (`obs.reset()` plus
:meth:`~repro.obs.tracing.Tracer.detach_open_spans`), runs its tasks,
and returns ``(values, registry state, finished spans, events, t0)``.
The parent merges every chunk's registry delta and absorbs its spans —
rebased onto the parent timeline at the chunk's dispatch instant — so
one ``metrics.json``/trace describes the whole run no matter where the
work happened.

The pool
--------

Constructed by hand, a :class:`PersistentPool` keeps its workers alive
across calls, which sustained workloads need: a caller that generates
corpus after corpus (:func:`repro.datasets.generate_dataset` takes
``pool=``) would otherwise pay fork + executor spin-up again each time,
then throw away every scene-invariant cache entry
(:mod:`repro.sim.cache`) its workers just warmed.

* **Warm state.** Workers are forked once (inheriting the parent's
  caches copy-on-write) and then *keep* everything they warm up —
  ``repro.sim.cache`` entries and imported modules — across chunks and
  across map calls.
* **How the function gets there.** Workers forked before a function
  existed can only receive it by pickle, so a warm pool takes
  module-level functions or :func:`functools.partial` over picklable
  arguments and runs anything else in-process
  (``parallel.fallbacks{reason=unpicklable}``). A pool built inside
  :func:`parallel_map` forks after the call's function is staged, so
  its workers inherit it — closures included — and its chunks carry
  only the items.
* **Streaming.** :meth:`~PersistentPool.imap_chunks` yields ordered
  per-chunk results as they arrive with a bounded submission window, so
  a consumer (the dataset shard writer) runs with bounded memory no
  matter how large the item list is.
* **Failures.** Exceptions raised by ``fn`` propagate exactly as in a
  serial loop. Pool *infrastructure* failures (fork unavailable, pool
  refuses to start, workers die) run every item no consumed chunk
  covered in-process — bit-identical: the parent's RNG copies never
  advanced, and only the consumed chunks' obs deltas merge — bump
  ``parallel.fallbacks``, and leave the next call to fork a fresh pool.
* **Lifecycle.** ``shutdown()`` is idempotent and also runs from a
  context-manager exit, on ``KeyboardInterrupt`` mid-map and from an
  ``atexit`` hook, so no run ends with zombie workers.

A pool serves only the calls made on it: entering it as a context
manager manages its lifecycle and reroutes no :func:`parallel_map`.
See ``docs/PERFORMANCE.md`` for the measured warm-vs-cold speedup
(``bench.parallel.warm_pool_speedup``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import stream

__all__ = [
    "ParallelResult",
    "PersistentPool",
    "parallel_map",
    "resolve_max_workers",
]

#: The chunk fan-out per worker: enough chunks that an uneven trial mix
#: load-balances, few enough that per-chunk overhead stays negligible.
_CHUNKS_PER_WORKER = 4

#: In-flight chunk futures per map call: enough to keep every worker
#: busy through result consumption, bounded so a streaming consumer
#: never buffers an unbounded backlog of finished chunks.
_WINDOW_PER_WORKER = 3

# Fork-inherited worker state. parallel_map stages _WORKER_FN before its
# one-call pool forks; the children see it by copy-on-write.
_WORKER_FN: Callable[[Any], Any] | None = None
_IN_WORKER = False


def resolve_max_workers(max_workers: int | None) -> int:
    """Turn the user-facing knob into an effective worker count.

    ``None`` means 1, the serial default; ``0`` or negative means "all
    cores". Inside a worker process the answer is always 1 — nested
    pools would oversubscribe and gain nothing.
    """
    if _IN_WORKER or max_workers is None:
        return 1
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


def _serial_loop(
    fn: Callable[[Any], Any], items: Sequence[Any], start: int = 0
) -> Iterator[Any]:
    """In-process execution of ``items[start:]`` with live heartbeats."""
    for i in range(start, len(items)):
        yield fn(items[i])
        stream.tick(done=i + 1, total=len(items), force=i + 1 == len(items))


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
    The pool is forked for this call and shut down after it; a caller
    that wants warm workers calls :meth:`PersistentPool.map` instead.
    """
    global _WORKER_FN
    items = list(items)
    workers = resolve_max_workers(max_workers)
    if workers <= 1 or len(items) <= 1:
        # Intentional serial execution, not a degradation — no fallback
        # counter, so parallel.fallbacks only ever flags real failures.
        return ParallelResult(
            values=list(_serial_loop(fn, items)),
            workers=1,
            n_chunks=0,
            fallback_reason="serial",
        )
    # Run on a pool that lives for this call and forks after _WORKER_FN
    # is staged, so fn reaches its workers by fork inheritance, closures
    # included. More workers than items would only fork idle processes
    # (and would not change the chunking).
    _WORKER_FN = fn
    one_call = PersistentPool(min(workers, len(items)))
    try:
        return one_call.map(fn, items, chunk_size=chunk_size)
    finally:
        one_call.shutdown()
        _WORKER_FN = None


class _PoolBroken(Exception):
    """Internal: the executor died; the caller should degrade to serial."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _is_picklable(fn: Callable[[Any], Any]) -> bool:
    """Can ``fn`` cross the pipe to an already-forked worker?"""
    try:
        pickle.dumps(fn)
        return True
    except Exception:  # noqa: BLE001  # milback: disable=ML004 — arbitrary __reduce__ failures all mean "no"
        return False


def _run_chunk(
    fn: Callable[[Any], Any] | None, payload: bytes
) -> tuple[bytes, dict, list[dict], list[dict], float]:
    """Worker side: run one chunk and package results + obs delta.

    ``fn`` is ``None`` when this worker inherited the trial function at
    fork time (:data:`_WORKER_FN`); otherwise it arrived by pickle.
    ``payload`` is the chunk's pickled item list; the values go back
    pickled the same way, with the obs delta beside them.
    """
    global _IN_WORKER
    _IN_WORKER = True
    if fn is None:
        fn = _WORKER_FN
    if fn is None:  # pragma: no cover - indicates a pool forked outside parallel_map
        raise ConfigurationError("worker has no inherited trial function")
    items = pickle.loads(payload)
    # Fresh observation window: drop everything inherited from the
    # parent (at fork time or from earlier chunks) so the returned delta
    # covers exactly this chunk.
    obs.reset()
    obs.get_tracer().detach_open_spans()
    t0 = time.perf_counter()
    packed = pickle.dumps([fn(item) for item in items])
    obs.counter("parallel.bytes_shipped").inc(len(packed))
    state = obs.get_registry().dump_state()
    spans = [s.to_dict() for s in obs.get_tracer().finished_spans()]
    events = [e.to_dict() for e in obs.get_tracer().events()]
    return packed, state, spans, events, t0


def _noop(_: Any) -> None:
    """Warm-up task: forks the workers without doing any work."""
    return None


class PersistentPool:
    """A reusable forked worker pool with explicit lifecycle.

    Construct once, issue any number of :meth:`map` /
    :meth:`imap_chunks` calls, then :meth:`shutdown` (or use ``with``).
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = resolve_max_workers(max_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        # The function parallel_map staged for fork inheritance when it
        # built this pool (None for a pool built anywhere else): its
        # workers already hold it, so its chunks ship no pickled copy.
        self._inherited_fn = _WORKER_FN
        atexit.register(self.shutdown)

    # --- lifecycle -------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        """PIDs of the live forked workers (empty before the first map)."""
        if self._pool is None:
            return []
        return list(self._pool._processes)  # noqa: SLF001 — stdlib keeps no public view

    def warm(self) -> "PersistentPool":
        """Fork the workers now so later maps pay no spin-up cost."""
        if self.max_workers > 1:
            self.map(_noop, list(range(self.max_workers)), chunk_size=1)
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers and release every pool resource (idempotent)."""
        pool, self._pool = self._pool, None
        already_closed, self._closed = self._closed, True
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
            obs.counter("parallel.pool.shutdowns").inc()
        if not already_closed:
            atexit.unregister(self.shutdown)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("PersistentPool is shut down")
        if self._pool is None:
            if "fork" not in multiprocessing.get_all_start_methods():
                raise _PoolBroken("no-fork")
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            except (OSError, ValueError) as exc:
                raise _PoolBroken(type(exc).__name__) from exc
            obs.counter("parallel.pool.spawns").inc()
        else:
            obs.counter("parallel.pool.reuses").inc()
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken executor; the next map call forks a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        obs.counter("parallel.pool.breaks").inc()

    # --- execution -------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> ParallelResult:
        """Run ``fn`` over ``items`` on the warm pool, preserving order.

        Same contract as :func:`parallel_map` — ordered values, worker
        obs deltas merged, serial fallback on infrastructure failure —
        but reusing this pool's live workers. ``fn`` must be picklable
        unless the workers inherited it (a pool :func:`parallel_map`
        built for the call).
        """
        outcome: dict[str, Any] = {}
        chunks = self._chunks(fn, list(items), chunk_size, outcome)
        values = [value for chunk_values in chunks for value in chunk_values]
        return ParallelResult(values=values, **outcome)

    def imap_chunks(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> Iterator[list[Any]]:
        """Yield ordered per-chunk value lists as chunks complete.

        The streaming interface behind :mod:`repro.datasets`: the
        consumer sees chunk results in item order while later chunks
        are still in flight, with at most ``3 × max_workers`` chunks
        in flight at once. On a broken pool the not-yet-yielded chunks
        rerun in-process — results stay bit-identical because their
        RNG streams (inside ``items``) were never advanced.
        """
        yield from self._chunks(fn, list(items), chunk_size, {})

    def _chunks(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        chunk_size: int | None,
        outcome: dict[str, Any],
    ) -> Iterator[list[Any]]:
        """Pool chunks in order, then in-process whatever the pool left.

        The one broken-pool continuation: items no consumed chunk
        covered run serially, one item per yielded list, after the
        ``parallel.fallbacks`` count. On exhaustion ``outcome`` holds the
        :class:`ParallelResult` fields other than ``values``.
        """
        outcome.update(workers=1, n_chunks=0, fallback_reason="serial")
        done = 0
        if self.max_workers > 1 and len(items) > 1:
            reason = "unpicklable"
            if fn is self._inherited_fn or _is_picklable(fn):
                chunks = _chunk_indices(len(items), self.max_workers, chunk_size)
                try:
                    for chunk_values in self._run_chunks(fn, items, chunks):
                        done += len(chunk_values)
                        yield chunk_values
                    outcome.update(
                        workers=min(self.max_workers, len(chunks)),
                        n_chunks=len(chunks),
                        fallback_reason=None,
                    )
                    return
                except _PoolBroken as exc:
                    reason = exc.reason
            obs.counter("parallel.fallbacks", reason=reason).inc()
            outcome["fallback_reason"] = reason
        for value in _serial_loop(fn, items, done):
            yield [value]

    def _run_chunks(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunks: list[range],
    ) -> Iterator[list[Any]]:
        """Submit chunks through a bounded window; yield results in order.

        Raises :class:`_PoolBroken` (after cleaning up) when the pool
        infrastructure dies; trial exceptions propagate unchanged.
        """
        pool = self._ensure_pool()
        shipped_fn = None if fn is self._inherited_fn else fn
        workers = min(self.max_workers, len(chunks))
        obs.gauge("parallel.workers").set(workers)
        obs.counter("parallel.maps").inc()
        obs.counter("parallel.tasks").inc(len(items))
        obs.counter("parallel.chunks").inc(len(chunks))
        window = _WINDOW_PER_WORKER * self.max_workers
        pending: dict[int, tuple[Any, float]] = {}
        emitter = stream.get_emitter()
        next_submit = 0
        done_items = 0

        def _submit_next() -> None:
            nonlocal next_submit
            payload = pickle.dumps([items[i] for i in chunks[next_submit]])
            obs.counter("parallel.bytes_shipped").inc(len(payload))
            future = pool.submit(_run_chunk, shipped_fn, payload)
            pending[next_submit] = (future, time.perf_counter())
            next_submit += 1

        try:
            with obs.span("parallel.pool.map", tasks=len(items), workers=workers):
                for chunk_index in range(len(chunks)):
                    while next_submit < len(chunks) and len(pending) < window:
                        _submit_next()
                    future, dispatched = pending[chunk_index]
                    while True:
                        try:
                            packed, state, spans, events, t0 = future.result(
                                timeout=emitter.interval_s if emitter else None
                            )
                            break
                        except FutureTimeoutError:
                            stream.tick(done=done_items, total=len(items))
                    del pending[chunk_index]
                    chunk_values = pickle.loads(packed)
                    offset = dispatched - t0
                    obs.get_registry().merge_state(state)
                    obs.get_tracer().absorb_spans(spans, offset_s=offset)
                    obs.get_tracer().absorb_events(events, offset_s=offset)
                    done_items += len(chunk_values)
                    stream.tick(
                        done=done_items,
                        total=len(items),
                        force=done_items == len(items),
                    )
                    yield chunk_values
        except (BrokenProcessPool, OSError) as exc:
            # Workers died underneath us; this pool is unusable, but the
            # PersistentPool object survives — the next call re-forks.
            self._discard_pool()
            raise _PoolBroken(type(exc).__name__) from exc
        except (KeyboardInterrupt, SystemExit):
            # The user is bailing out: reap the workers *now* so nothing
            # outlives the interrupt, then let it propagate.
            self.shutdown(wait=True)
            raise
        finally:
            for future, _ in pending.values():
                future.cancel()
