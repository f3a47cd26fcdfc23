"""Benchmark: the dataset factory and the persistent warm pool.

Two perf claims from ``docs/PERFORMANCE.md``/``docs/DATASETS.md`` are
measured here and recorded as gauges in ``BENCH_obs.json``:

* ``bench.parallel.warm_pool_speedup`` — a burst of small map calls on
  a prewarmed :class:`~repro.parallel.PersistentPool` vs the same burst
  through :func:`~repro.parallel.parallel_map`, which forks a pool for
  each call. The trials
  are deliberately light (a small FFT per task): the gauge isolates the
  *pool lifecycle* overhead — fork + executor spin-up + teardown per
  call, ~10 ms on this class of box — that the warm pool pays once
  instead of per call. Heavy trials amortize that cost away (which is
  why it went unnoticed until sustained corpus generation made calls
  frequent); ``bench.datasets.rows_per_s`` below covers the end-to-end
  picture. Gated **hard at ≥ 1.3x**. Values are asserted bitwise
  identical between the legs first — the speedup only counts because
  the results do not change.
* ``bench.datasets.rows_per_s`` — end-to-end corpus generation
  throughput (simulation + feature extraction + deterministic shard
  writing) on 2 workers, the unit the ROADMAP's millions-of-rows item
  is budgeted in. Recorded as a trajectory datum; the corresponding
  soft gate lives in the CI ``dataset-smoke`` job's ``repro obs
  regress`` step.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.datasets import DatasetConfig, generate_dataset
from repro.parallel import PersistentPool, parallel_map
from repro.utils.rng import spawn_rngs

#: Map calls per leg × tasks per call: many small calls so per-call
#: pool setup dominates the cold leg — the dataset-factory call shape.
N_CALLS = 6
N_TASKS = 8
POOL_WORKERS = 2


def _pool_trial(rng: np.random.Generator) -> float:
    # Light but real numpy work: the point is to expose the per-call
    # pool lifecycle cost, not to re-time the simulator (rows_per_s
    # below does that end to end).
    samples = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    return float(np.abs(np.fft.fft(samples)).max())


def _leg_tasks(call: int) -> list[np.random.Generator]:
    return spawn_rngs(100 + call, N_TASKS)


def _cold_leg() -> tuple[float, list[list[float]]]:
    start_s = time.perf_counter()
    values = [
        parallel_map(_pool_trial, _leg_tasks(call), max_workers=POOL_WORKERS).values
        for call in range(N_CALLS)
    ]
    return time.perf_counter() - start_s, values


def _warm_leg(pool: PersistentPool) -> tuple[float, list[list[float]]]:
    start_s = time.perf_counter()
    values = [
        pool.map(_pool_trial, _leg_tasks(call)).values for call in range(N_CALLS)
    ]
    return time.perf_counter() - start_s, values


def test_bench_warm_pool_speedup(benchmark):
    # The warm leg maps on the pool; the cold leg's parallel_map calls
    # each fork and shut down a pool of their own.
    pool = PersistentPool(max_workers=POOL_WORKERS)
    try:
        pool.warm()
        # Absorb interpreter/numpy warm-up on both paths before timing.
        _warm_leg(pool)
        _cold_leg()

        def measure() -> tuple[float, float, list, list]:
            # Interleaved best-of-rounds (the repo's standard defence on
            # a shared single-core box): a scheduler stall landing in
            # one single-shot leg would otherwise fabricate a collapse.
            cold_s = warm_s = float("inf")
            for _ in range(3):
                leg_s, cold_values = _cold_leg()
                cold_s = min(cold_s, leg_s)
                leg_s, warm_values = _warm_leg(pool)
                warm_s = min(warm_s, leg_s)
            return cold_s, warm_s, cold_values, warm_values

        cold_s, warm_s, cold_values, warm_values = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
    finally:
        pool.shutdown()
    assert cold_values == warm_values
    speedup = cold_s / warm_s
    obs.gauge("bench.parallel.warm_pool_speedup").set(speedup)
    obs.gauge("bench.parallel.cold_pool_s").set(cold_s)
    obs.gauge("bench.parallel.warm_pool_s").set(warm_s)
    # The issue's acceptance bar: reusing warm workers must beat
    # re-forking a pool per call by at least 1.3x.
    assert speedup >= 1.3
    print(f"\nwarm pool: cold-fork {cold_s:.2f} s, warm {warm_s:.2f} s "
          f"over {N_CALLS} map calls, speedup {speedup:.2f}x")


def test_bench_dataset_rows_per_s(benchmark, tmp_path):
    config = DatasetConfig(
        scenes=("clear", "furnished"),
        distances_m=(2.0, 4.0),
        fault_rates=(0.0, 0.2),
        n_trials=3,
        seed=11,
        n_spectrum_bins=64,
    )

    runs = {"n": 0}

    def generate() -> dict:
        out_dir = tmp_path / f"corpus-{runs['n']}"
        runs["n"] += 1
        return generate_dataset(
            config, out_dir, max_workers=2, rows_per_shard=8, block_rows=4
        )

    generate()  # absorb warm-up (fork, caches, numpy)
    start_s = time.perf_counter()
    manifest = benchmark.pedantic(generate, rounds=1, iterations=1)
    generate_s = time.perf_counter() - start_s
    assert manifest["complete"]
    assert manifest["rows_written"] == config.n_rows
    rows_per_s = config.n_rows / generate_s
    obs.gauge("bench.datasets.rows_per_s").set(rows_per_s)
    obs.gauge("bench.datasets.generate_s").set(generate_s)
    # Functional floor only — throughput trends are tracked by the
    # regress gate against BENCH_obs.json, not a magic constant here.
    assert rows_per_s > 0
    print(f"\ndataset factory: {config.n_rows} rows in {generate_s:.2f} s "
          f"({rows_per_s:.1f} rows/s, 2 workers)")
