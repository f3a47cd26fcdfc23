"""The forked worker pool behind every :func:`parallel_map` call.

:class:`PersistentPool` is the repo's one process pool. Constructed by
hand it keeps its workers alive across calls, which sustained workloads
need: corpus generation (:mod:`repro.datasets`) issues *many* map calls,
and a pool per call would pay fork + executor spin-up again each time,
then throw away every scene-invariant cache entry
(:mod:`repro.sim.cache`) its workers just warmed. :func:`parallel_map`
builds one that lives for a single call whenever no warm pool can take
its function.

* **Warm state.** Workers are forked once (inheriting the parent's
  caches copy-on-write) and then *keep* everything they warm up —
  ``repro.sim.cache`` entries, imported modules, the shm resource
  tracker — across chunks and across map calls.
* **How the function gets there.** Workers forked before a function
  existed can only receive it by pickle, so a warm pool takes
  module-level functions or :func:`functools.partial` over picklable
  arguments and runs anything else in-process
  (``parallel.fallbacks{reason=unpicklable}``). A pool built inside
  :func:`parallel_map` forks after the call's function is staged, so
  its workers inherit it — closures included — and its chunks carry
  only the items.
* **Streaming.** :meth:`imap_chunks` yields ordered per-chunk results
  as they arrive with a bounded submission window, so a consumer (the
  dataset shard writer) runs with bounded memory no matter how large
  the item list is.
* **Lifecycle.** ``shutdown()`` is idempotent and also runs from a
  context-manager exit and an ``atexit`` hook, so no run ends with
  zombie workers. Shared-memory arenas are swept on every exit path —
  success, trial exception, ``KeyboardInterrupt``, broken pool — and a
  broken pool runs every item no consumed chunk covered in-process
  (bit-identical: the parent's RNG copies never advanced, and only the
  consumed chunks' obs deltas merge) while the next call forks a fresh
  pool.

Entering the pool as a context manager also installs it process-wide:
every :func:`parallel_map` call issued underneath (sweeps, campaigns,
dataset generation) routes through the warm pool when its function is
picklable. See ``docs/PERFORMANCE.md`` for the measured warm-vs-cold
speedup (``bench.parallel.warm_pool_speedup``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import stream
from repro.parallel import executor as _executor
from repro.parallel import shm
from repro.parallel.executor import ParallelResult, resolve_max_workers

__all__ = ["PersistentPool", "active_pool", "is_picklable"]

#: In-flight chunk futures per map call: enough to keep every worker
#: busy through result consumption, bounded so a streaming consumer
#: never buffers an unbounded backlog of finished chunks.
_WINDOW_PER_WORKER = 3


class _PoolBroken(Exception):
    """Internal: the executor died; the caller should degrade to serial."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def is_picklable(fn: Callable[[Any], Any]) -> bool:
    """Can ``fn`` cross the pipe to an already-forked worker?"""
    try:
        pickle.dumps(fn)
        return True
    except Exception:  # noqa: BLE001  # milback: disable=ML004 — arbitrary __reduce__ failures all mean "no"
        return False


def _run_chunk(
    fn: Callable[[Any], Any] | None, packed: shm.Packed
) -> tuple[Any, dict, list[dict], list[dict], float]:
    """Worker side: run one chunk and package results + obs delta.

    ``fn`` is ``None`` when this worker inherited the trial function at
    fork time (:data:`repro.parallel.executor._WORKER_FN`); otherwise it
    arrived by pickle.
    """
    _executor._IN_WORKER = True
    if fn is None:
        fn = _executor._WORKER_FN
    if fn is None:  # pragma: no cover - indicates a pool forked outside parallel_map
        raise ConfigurationError("worker has no inherited trial function")
    # Mappings left over from earlier chunks on this worker can be
    # closed now that their trial views are dead; the parent already
    # unlinked those segments when it consumed the chunk results.
    shm.purge_attached()
    payloads = shm.unpack_views(packed)
    # Fresh observation window: drop everything inherited from the
    # parent (at fork time or from earlier chunks) so the returned delta
    # covers exactly this chunk.
    obs.reset()
    obs.get_tracer().detach_open_spans()
    t0 = time.perf_counter()
    result, result_arena = shm.pack([fn(payload) for payload in payloads])
    obs.counter("parallel.bytes_shipped", path="shm").inc(result.nbytes)
    if result_arena is not None:
        # Close only the mapping; the parent unlinks the segment after
        # copying the results out (shm.unpack_copies).
        result_arena.close()
    state = obs.get_registry().dump_state()
    spans = [s.to_dict() for s in obs.get_tracer().finished_spans()]
    events = [e.to_dict() for e in obs.get_tracer().events()]
    return result, state, spans, events, t0


def _noop(_: Any) -> None:
    """Warm-up task: forks the workers without doing any work."""
    return None


class PersistentPool:
    """A reusable forked worker pool with explicit lifecycle.

    Construct once, issue any number of :meth:`map` /
    :meth:`imap_chunks` calls, then :meth:`shutdown` (or use ``with``).
    Entering as a context manager additionally installs the pool as the
    process-wide routing target for :func:`parallel_map`.
    """

    def __init__(self, max_workers: int | None = None, chunk_size: int | None = None) -> None:
        self.max_workers = resolve_max_workers(max_workers)
        self.chunk_size = chunk_size
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._previous_active: PersistentPool | None = None
        # The function parallel_map staged for fork inheritance when it
        # built this pool (None for a pool built anywhere else): its
        # workers already hold it, so its chunks ship no pickled copy.
        self._inherited_fn = _executor._WORKER_FN
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
        global _ACTIVE
        self._previous_active = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = self._previous_active
        self._previous_active = None
        self.shutdown()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("PersistentPool is shut down")
        if self._pool is None:
            if "fork" not in multiprocessing.get_all_start_methods():
                raise _PoolBroken("no-fork")
            # One resource tracker, spawned pre-fork, for every arena
            # either side creates over the pool's whole lifetime.
            shm.ensure_tracker()
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
            if fn is self._inherited_fn or is_picklable(fn):
                if chunk_size is None:
                    chunk_size = self.chunk_size
                chunks = _executor._chunk_indices(len(items), self.max_workers, chunk_size)
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
        for i in range(done, len(items)):
            yield [fn(items[i])]
            stream.tick(done=i + 1, total=len(items), force=i + 1 == len(items))

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
        obs.counter("parallel.pool.chunks").inc(len(chunks))
        window = _WINDOW_PER_WORKER * self.max_workers
        item_arenas: dict[int, Any] = {}
        pending: dict[int, tuple[Any, float]] = {}
        emitter = stream.get_emitter()
        next_submit = 0
        done_items = 0

        def _submit_next() -> None:
            nonlocal next_submit
            chunk_index = next_submit
            payload, arena = shm.pack([items[i] for i in chunks[chunk_index]])
            if arena is not None:
                item_arenas[chunk_index] = arena
            # What crosses the pipe is the slotted remainder (RNG
            # streams, scalars); the lifted arrays ride the arena.
            obs.counter("parallel.bytes_shipped", path="shm").inc(payload.nbytes)
            obs.counter("parallel.bytes_shipped", path="pickle").inc(
                len(pickle.dumps(payload))
            )
            future = pool.submit(_run_chunk, shipped_fn, payload)
            pending[chunk_index] = (future, time.perf_counter())
            next_submit += 1

        def _sweep() -> None:
            for future, _ in pending.values():
                future.cancel()
            pending.clear()
            while item_arenas:
                _, leftover = item_arenas.popitem()
                shm.destroy(leftover)

        try:
            with obs.span("parallel.pool.map", tasks=len(items), workers=workers):
                for chunk_index in range(len(chunks)):
                    while next_submit < len(chunks) and len(pending) < window:
                        _submit_next()
                    future, dispatched = pending[chunk_index]
                    while True:
                        try:
                            chunk_values, state, spans, events, t0 = future.result(
                                timeout=emitter.interval_s if emitter else None
                            )
                            break
                        except FutureTimeoutError:
                            stream.tick(done=done_items, total=len(items))
                    del pending[chunk_index]
                    chunk_values = shm.unpack_copies(chunk_values)
                    arena = item_arenas.pop(chunk_index, None)
                    if arena is not None:
                        shm.destroy(arena)
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
            _sweep()


# --- process-wide routing ----------------------------------------------------------

_ACTIVE: PersistentPool | None = None


def active_pool() -> PersistentPool | None:
    """The pool installed by ``with PersistentPool(...)``, if any."""
    if _ACTIVE is not None and _ACTIVE.closed:
        return None
    return _ACTIVE
