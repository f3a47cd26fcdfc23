"""Tests for :mod:`repro.parallel` — the process-pool sweep executor.

The executor makes three promises (see ``docs/PERFORMANCE.md``):

1. **Bitwise determinism** — a parallel sweep returns exactly the
   floats a serial sweep returns, because every task carries the same
   pre-spawned RNG stream either way.
2. **Observability transparency** — worker metric/span deltas merge
   into the parent registry, so ``metrics.json`` totals do not depend
   on where the work ran.
3. **Graceful degradation** — infrastructure failures fall back to an
   in-process serial loop with identical results.

Every map runs on :class:`~repro.parallel.PersistentPool`: the installed
warm pool, or one ``parallel_map`` forks for a single call.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.analysis.sweeps import SweepPoint, run_error_sweep, run_sweep
from repro.channel.scene import Scene2D
from repro.errors import ConfigurationError
from repro.experiments import fig12_localization
from repro.experiments.coverage_map import run_coverage_map
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.parallel import (
    DEFAULT_WORKERS_ENV,
    ParallelResult,
    PersistentPool,
    active_pool,
    parallel_map,
    resolve_max_workers,
)
from repro.parallel import pool as pool_module
from repro.parallel import shm
from repro.parallel.executor import _chunk_indices
from repro.sim.engine import MilBackSimulator
from repro.utils.rng import spawn_rngs
from tests.kernel_reference import kernels_for


@pytest.fixture(autouse=True)
def _fresh_obs():
    """Each test gets (and leaves behind) a clean observation window."""
    obs.reset()
    yield
    obs.reset()


def _toy_trial(parameter: float, rng: np.random.Generator) -> float:
    """Cheap deterministic-per-stream trial with its own obs footprint."""
    with obs.span("toy.trial", parameter=parameter):
        obs.counter("toy.trials").inc()
        draw = float(rng.normal(loc=parameter, scale=1.0))
        obs.histogram("toy.draw", buckets=(-10.0, 0.0, 10.0)).observe(draw)
    return draw


class TestResolveMaxWorkers:
    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_WORKERS_ENV, raising=False)
        assert resolve_max_workers(None) == 1

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "3")
        assert resolve_max_workers(None) == 3

    def test_zero_means_all_cores(self):
        assert resolve_max_workers(0) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_max_workers(5) == 5

    def test_garbage_environment_raises(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_max_workers(None)


class TestChunking:
    def test_chunks_cover_all_indices_in_order(self):
        chunks = _chunk_indices(17, workers=4, chunk_size=None)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(17))

    def test_explicit_chunk_size(self):
        chunks = _chunk_indices(10, workers=2, chunk_size=4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_bad_chunk_size_raises(self):
        with pytest.raises(ConfigurationError):
            _chunk_indices(10, workers=2, chunk_size=0)


class TestParallelMap:
    def test_preserves_item_order(self):
        rngs = spawn_rngs(7, 12)
        tasks = [(float(i), rngs[i]) for i in range(12)]
        serial = [_toy_trial(p, rng) for p, rng in [(t[0], t[1]) for t in tasks]]
        obs.reset()
        rngs = spawn_rngs(7, 12)
        tasks = [(float(i), rngs[i]) for i in range(12)]
        result = parallel_map(lambda t: _toy_trial(t[0], t[1]), tasks, max_workers=3)
        assert result.values == serial

    def test_intentional_serial_has_no_fallback_counter(self):
        result = parallel_map(lambda x: x * 2, [1, 2, 3], max_workers=1)
        assert result.values == [2, 4, 6]
        assert result.fallback_reason == "serial"
        assert not result.parallel
        snapshot = obs.get_registry().snapshot()
        assert not any(key.startswith("parallel.fallbacks") for key in snapshot)

    def test_single_item_runs_serial(self):
        result = parallel_map(lambda x: x + 1, [41], max_workers=4)
        assert result.values == [42]
        assert not result.parallel

    def test_exceptions_propagate_like_serial(self):
        def boom(x):
            raise ValueError(f"task {x}")  # milback: disable=ML004 — test payload

        with pytest.raises(ValueError, match="task"):
            parallel_map(boom, [1, 2, 3, 4], max_workers=2)

    def test_parallel_result_flag(self):
        result = parallel_map(lambda x: x, list(range(8)), max_workers=2)
        assert isinstance(result, ParallelResult)
        assert result.parallel
        assert result.workers == 2
        assert result.n_chunks >= 2

    def test_broken_pool_counts_every_trial_once(self):
        """Counter parity when a worker dies mid-map.

        Only the consumed chunks' obs deltas merge, and only the items
        they did not cover rerun in-process, so the trial counter reads
        exactly one per item — as a serial run would.
        """
        parent = os.getpid()

        def trial(i):
            obs.counter("toy.trials").inc()
            if i == 15 and os.getpid() != parent:
                os._exit(1)
            return i * i

        result = parallel_map(trial, list(range(16)), max_workers=2)
        assert result.values == [i * i for i in range(16)]
        assert result.fallback_reason == "BrokenProcessPool"
        assert obs.counter("toy.trials").value == 16


_ZERO_CHUNK_CALLS = {
    "parallel_map": lambda pool, items: parallel_map(
        _pid_task, items, max_workers=2, chunk_size=0
    ),
    "map": lambda pool, items: pool.map(_pid_task, items, chunk_size=0),
    "imap_chunks": lambda pool, items: list(
        pool.imap_chunks(_pid_task, items, chunk_size=0)
    ),
    "pool-default": lambda pool, items: pool.map(_pid_task, items),
}


@pytest.mark.parametrize("entry", sorted(_ZERO_CHUNK_CALLS))
def test_zero_chunk_size_is_rejected(entry):
    """An explicit 0 is an error on every entry point, never "auto"."""
    pool = PersistentPool(2, chunk_size=0 if entry == "pool-default" else None)
    try:
        with pytest.raises(ConfigurationError, match="chunk_size"):
            _ZERO_CHUNK_CALLS[entry](pool, list(range(8)))
    finally:
        pool.shutdown()


class TestObsMerge:
    def test_worker_deltas_reach_parent_registry(self):
        n = 10
        rngs = spawn_rngs(3, n)
        tasks = [(float(i), rngs[i]) for i in range(n)]
        parallel_map(lambda t: _toy_trial(t[0], t[1]), tasks, max_workers=3)
        snapshot = obs.get_registry().snapshot()
        assert snapshot["toy.trials"]["value"] == n
        assert snapshot["toy.draw"]["count"] == n

    def test_worker_spans_absorbed_without_orphans(self):
        n = 6
        rngs = spawn_rngs(4, n)
        tasks = [(float(i), rngs[i]) for i in range(n)]
        with obs.span("test.root"):
            parallel_map(lambda t: _toy_trial(t[0], t[1]), tasks, max_workers=2)
        spans = obs.get_tracer().finished_spans()
        toy = [s for s in spans if s.name == "toy.trial"]
        assert len(toy) == n
        known_ids = {s.span_id for s in spans}
        for span in toy:
            assert span.parent_id in known_ids  # re-parented, never orphaned

    def test_metrics_json_identical_across_modes(self, tmp_path):
        """The satellite contract: one ``metrics.json``, any worker count.

        Mode-specific bookkeeping (``parallel.*`` scheduling metrics and
        the pool's own span family) is excluded; every metric produced
        by the *workload* must agree exactly.
        """

        def run(workers, path):
            obs.reset()
            run_sweep((1.0, 2.0, 3.0), _toy_trial, 4, seed=11, max_workers=workers)
            obs.write_metrics_json(path, obs.get_registry())
            document = json.loads(path.read_text(encoding="utf-8"))
            reduced = {}
            for key, value in document["metrics"].items():
                if key.startswith(("parallel.", "span.parallel.")):
                    continue
                if value["type"] == "histogram" and key.endswith(".duration_s"):
                    # Durations are wall-clock valued; the invariant is
                    # that every observation happened exactly once.
                    reduced[key] = {"type": "histogram", "count": value["count"]}
                else:
                    # Value histograms (e.g. toy.draw) must match
                    # bucket-for-bucket: the merge is lossless.
                    reduced[key] = value
            return reduced

        serial = run(1, tmp_path / "serial.json")
        parallel = run(4, tmp_path / "parallel.json")
        assert serial == parallel
        assert serial["sweep.trials"]["value"] == 12
        assert serial["toy.trials"]["value"] == 12
        assert serial["toy.draw"]["count"] == 12


class TestSweepDeterminism:
    def test_run_sweep_bitwise_identical(self):
        parameters = (0.5, 1.5, 2.5)
        serial = run_sweep(parameters, _toy_trial, 5, seed=21, max_workers=1)
        parallel = run_sweep(parameters, _toy_trial, 5, seed=21, max_workers=4)
        assert [p.values for p in serial] == [p.values for p in parallel]

    def test_run_error_sweep_bitwise_identical_and_absolute(self):
        parameters = (-2.0, 0.0, 2.0)
        serial = run_error_sweep(parameters, _toy_trial, 6, seed=22, max_workers=1)
        parallel = run_error_sweep(parameters, _toy_trial, 6, seed=22, max_workers=3)
        assert [p.values for p in serial] == [p.values for p in parallel]
        for point in serial:
            assert all(v >= 0.0 for v in point.values)

    def test_fig12_ranging_bitwise_identical(self):
        kwargs = dict(distances_m=(2.0, 5.0), n_trials=2, seed=12)
        serial = fig12_localization.run_fig12_ranging(**kwargs, max_workers=1)
        parallel = fig12_localization.run_fig12_ranging(**kwargs, max_workers=4)
        assert [p.values for p in serial] == [p.values for p in parallel]

    def test_coverage_map_bitwise_identical(self):
        kwargs = dict(
            x_range_m=(2.0, 5.0), y_range_m=(-1.0, 1.0),
            n_x=2, n_y=2, n_trials=1, seed=77,
        )
        serial = run_coverage_map(**kwargs, max_workers=1)
        parallel = run_coverage_map(**kwargs, max_workers=4)
        np.testing.assert_array_equal(serial.delivery, parallel.delivery)


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently alive."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return set()


def _array_trial(item):
    """Trial with a large ndarray in *and* out, touching the AoA kernels."""
    weights, azimuth, rng = item
    sim = MilBackSimulator(
        Scene2D.single_node(3.0, azimuth_deg=azimuth, orientation_deg=10.0),
        seed=rng,
    )
    error = sim.simulate_localization_array(4, "music").angle_error_deg
    return error, float(weights.sum()), weights * error


def _array_items(n):
    rngs = spawn_rngs(9, n)
    return [
        (np.random.default_rng(i).normal(size=1024), float(3 * i - n), rngs[i])
        for i in range(n)
    ]


class TestShmTransport:
    def test_pack_roundtrip_preserves_structure_and_dtypes(self):
        rng = np.random.default_rng(3)
        payload = [
            {
                "f": rng.normal(size=2048),
                "c": rng.normal(size=1024) + 1j * rng.normal(size=1024),
                "i": rng.integers(0, 99, size=1024),
                "scalar": 2.5,
            },
            ("tag", rng.normal(size=700)),
        ]
        before = _shm_segments()
        packed, arena = shm.pack(payload)
        assert arena is not None
        out = shm.unpack_copies(packed)
        for key in ("f", "c", "i"):
            assert out[0][key].dtype == payload[0][key].dtype
            assert np.array_equal(out[0][key], payload[0][key])
        assert out[0]["scalar"] == 2.5
        assert out[1][0] == "tag"
        # 700 float64s = 5600 bytes >= the 4096 threshold: lifted too.
        assert np.array_equal(out[1][1], payload[1][1])
        assert _shm_segments() == before

    def test_small_payloads_skip_the_arena(self):
        packed, arena = shm.pack([(1.0, np.arange(4)), "x"])
        assert arena is None
        assert packed.nbytes == 0
        assert shm.unpack_copies(packed) == packed.payload

    @pytest.mark.parametrize("mode", ["batched", "reference"])
    def test_bitwise_across_worker_counts_and_transports(self, mode):
        """Large arrays cross by arena, RNG streams and scalars by pipe.

        The ``reference`` leg patches in the loop-form oracle kernels
        before the pools fork, so its workers run the oracle too.
        """
        with kernels_for(mode):
            serial = [_array_trial(item) for item in _array_items(8)]
            for workers in (2, 4):
                out = parallel_map(_array_trial, _array_items(8), max_workers=workers)
                for got, want in zip(out.values, serial):
                    assert got[0] == want[0] and got[1] == want[1], workers
                    assert np.array_equal(got[2], want[2]), workers

    def test_bytes_shipped_counters(self):
        parallel_map(_array_trial, _array_items(6), max_workers=2)
        shipped_shm = obs.counter("parallel.bytes_shipped", path="shm").value
        shipped_pickle = obs.counter("parallel.bytes_shipped", path="pickle").value
        # Item arrays (6 x 8 KiB) travel both directions (weights in,
        # weights*error out) through arenas; the pipe carries only RNG
        # streams, scalars, and slot markers.
        assert shipped_shm >= 6 * 2 * 8192
        assert 0 < shipped_pickle < shipped_shm

    def test_no_segment_leak_on_success(self):
        before = _shm_segments()
        parallel_map(_array_trial, _array_items(8), max_workers=2)
        assert _shm_segments() == before

    def test_no_segment_leak_when_trial_raises(self):
        def boom(item):
            raise ValueError("mid-chunk")  # milback: disable=ML004 — test payload

        before = _shm_segments()
        items = [(np.random.default_rng(i).normal(size=1024),) for i in range(8)]
        with pytest.raises(ValueError, match="mid-chunk"):
            parallel_map(boom, items, max_workers=2)
        assert _shm_segments() == before

    def test_no_segment_leak_on_fallback(self, monkeypatch):
        monkeypatch.setattr(
            pool_module.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        before = _shm_segments()
        serial = [_array_trial(item) for item in _array_items(4)]
        result = parallel_map(_array_trial, _array_items(4), max_workers=2)
        assert result.fallback_reason == "no-fork"
        for got, want in zip(result.values, serial):
            assert got[0] == want[0] and np.array_equal(got[2], want[2])
        assert _shm_segments() == before

    def test_faults_campaign_bitwise_at_any_worker_count(self):
        config = CampaignConfig(rates=(0.0, 0.3), n_trials=2)
        before = _shm_segments()
        points = {
            workers: run_campaign(config, seed=0, max_workers=workers).points
            for workers in (1, 2, 4)
        }
        assert points[1] == points[2] == points[4]
        assert _shm_segments() == before


def _toy_pool_task(task):
    """Picklable (module-level) wrapper so tasks can ride a warm pool."""
    return _toy_trial(task[0], task[1])


def _pid_task(_):
    return os.getpid()


def _interrupt_task(_):
    raise KeyboardInterrupt


class TestPersistentPool:
    def _toy_tasks(self, n, seed=7):
        rngs = spawn_rngs(seed, n)
        return [(float(i), rngs[i]) for i in range(n)]

    def test_bitwise_identical_to_serial(self):
        serial = [_toy_pool_task(t) for t in self._toy_tasks(10)]
        obs.reset()
        pool = PersistentPool(max_workers=3)
        try:
            result = pool.map(_toy_pool_task, self._toy_tasks(10))
        finally:
            pool.shutdown()
        assert result.parallel
        assert result.values == serial

    def test_workers_reused_across_maps_then_reaped(self):
        pool = PersistentPool(max_workers=2)
        try:
            first = set(pool.map(_pid_task, list(range(8)), chunk_size=1).values)
            pids = pool.worker_pids()
            second = set(pool.map(_pid_task, list(range(8)), chunk_size=1).values)
            assert first and first | second <= set(pids)  # same forked workers
            snapshot = obs.get_registry().snapshot()
            assert snapshot["parallel.pool.spawns"]["value"] == 1
            assert snapshot["parallel.pool.reuses"]["value"] == 1
        finally:
            pool.shutdown()
        assert pool.worker_pids() == []
        for pid in pids:
            with pytest.raises(OSError):  # reaped: no such process
                os.kill(pid, 0)

    def test_map_after_shutdown_raises(self):
        pool = PersistentPool(max_workers=2)
        pool.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            pool.map(_pid_task, [1, 2, 3, 4])

    def test_obs_deltas_merge_into_parent(self):
        n = 9
        with PersistentPool(max_workers=2) as pool:
            pool.map(_toy_pool_task, self._toy_tasks(n))
            snapshot = obs.get_registry().snapshot()
            assert snapshot["toy.trials"]["value"] == n
            assert snapshot["toy.draw"]["count"] == n

    def test_imap_chunks_streams_in_order(self):
        pool = PersistentPool(max_workers=2)
        try:
            streamed = list(
                pool.imap_chunks(_toy_pool_task, self._toy_tasks(10), chunk_size=3)
            )
        finally:
            pool.shutdown()
        assert [len(chunk) for chunk in streamed] == [3, 3, 3, 1]
        flat = [v for chunk in streamed for v in chunk]
        assert flat == [_toy_pool_task(t) for t in self._toy_tasks(10)]

    def test_unpicklable_fn_falls_back_serially(self):
        with PersistentPool(max_workers=2) as pool:
            result = pool.map(lambda x: x + 1, [1, 2, 3, 4])
        assert result.values == [2, 3, 4, 5]
        assert result.fallback_reason == "unpicklable"

    def test_trial_exceptions_propagate_and_pool_survives(self):
        pool = PersistentPool(max_workers=2)
        try:
            with pytest.raises(ValueError, match="task"):
                pool.map(_boom_task, [1, 2, 3, 4])
            # The pool is still usable afterwards.
            assert pool.map(_pid_task, [1, 2, 3, 4]).values
        finally:
            pool.shutdown()

    def test_parallel_map_routes_through_installed_pool(self):
        with PersistentPool(max_workers=2) as pool:
            assert active_pool() is pool
            result = parallel_map(_pid_task, list(range(8)), max_workers=2)
            assert set(result.values) <= set(pool.worker_pids())
            assert obs.counter("parallel.pool.chunks").value > 0
        assert active_pool() is None

    def test_closures_keep_the_cold_fork_path(self):
        offset = 1
        with PersistentPool(max_workers=2) as pool:
            warm_pids = set(pool.warm().worker_pids())
            result = parallel_map(
                lambda x: (x + offset, os.getpid()), list(range(8)), max_workers=2
            )
        assert [value for value, _ in result.values] == [i + 1 for i in range(8)]
        # The warm pool cannot take a closure, so the call ran on a pool
        # forked for it whose workers inherited the closure: parallel,
        # off the warm workers, and no fallback of any kind.
        assert result.parallel
        pids = {pid for _, pid in result.values}
        assert os.getpid() not in pids
        assert not pids & warm_pids
        snapshot = obs.get_registry().snapshot()
        assert not any(key.startswith("parallel.fallbacks") for key in snapshot)

    def test_shutdown_clears_routing(self):
        with PersistentPool(max_workers=2) as pool:
            pool.shutdown()
            assert active_pool() is None
            # parallel_map still works on a pool forked for the call.
            assert parallel_map(_pid_task, [1, 2], max_workers=2).values

    def test_broken_pool_degrades_serially_then_heals(self):
        serial = [_toy_pool_task(t) for t in self._toy_tasks(8)]
        obs.reset()
        pool = PersistentPool(max_workers=2)
        try:
            pool.map(_pid_task, list(range(4)))  # fork the workers
            for pid in pool.worker_pids():
                os.kill(pid, 9)
            result = pool.map(_toy_pool_task, self._toy_tasks(8))
            assert result.values == serial  # bit-identical serial rerun
            assert result.fallback_reason == "BrokenProcessPool"
            assert obs.counter("parallel.pool.breaks").value == 1
            # The next call forks a fresh pool and is parallel again.
            healed = pool.map(_toy_pool_task, self._toy_tasks(8))
            assert healed.parallel
            assert healed.values == serial
        finally:
            pool.shutdown()

    def test_no_shm_leak_on_success(self):
        before = _shm_segments()
        pool = PersistentPool(max_workers=2)
        try:
            pool.map(_array_trial, _array_items(6))
        finally:
            pool.shutdown()
        assert _shm_segments() == before

    def test_keyboard_interrupt_reaps_workers_and_arenas(self):
        before = _shm_segments()
        pool = PersistentPool(max_workers=2)
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.map(_interrupt_task, list(range(8)))
        finally:
            pool.shutdown()
        assert pool.closed
        assert _shm_segments() == before

    def test_no_shm_leak_after_broken_pool(self):
        before = _shm_segments()
        pool = PersistentPool(max_workers=2)
        try:
            pool.map(_array_trial, _array_items(4))
            for pid in pool.worker_pids():
                os.kill(pid, 9)
            pool.map(_array_trial, _array_items(4))
        finally:
            pool.shutdown()
        assert _shm_segments() == before


def _boom_task(x):
    raise ValueError(f"task {x}")  # milback: disable=ML004 — test payload


class TestSweepPointP90:
    def test_p90_is_plain_percentile_of_stored_values(self):
        point = SweepPoint(1.0, (-5.0, -4.0, -3.0, -2.0, -1.0))
        # No magnitude: a sweep of signed quantities keeps its sign.
        assert point.p90 == float(np.percentile(point.values, 90.0))
        assert point.p90 < 0.0

    def test_error_sweep_points_store_magnitudes(self):
        def signed_trial(parameter, rng):
            return float(rng.normal(loc=-3.0))  # almost surely negative

        points = run_error_sweep((0.0,), signed_trial, 8, seed=5)
        assert all(v >= 0.0 for v in points[0].values)
        assert points[0].p90 > 0.0
