"""Benchmark: the parallel executor and the scene-invariant cache.

Two perf claims from ``docs/PERFORMANCE.md`` are measured here and
recorded as gauges in ``BENCH_obs.json``:

* ``bench.parallel.speedup`` — wall-time ratio of a serial vs a
  2-worker ``run_sweep`` over real localization trials. On a
  single-core CI box this hovers near (or below) 1.0 because fork and
  pickle overhead buy nothing, so the assertion only guards against a
  pathological slowdown; the recorded gauge is the datum that matters.
* ``bench.cache.speedup`` — cold-cache vs warm-cache trial time for
  one simulator run. The scene-invariant layer memoizes chirp grids,
  FSA gain sweeps, clutter paths and the static beat field across
  simulator instances, and a scene's ``scene_terms`` entry holds the
  gain bases and static field built from them, so warm trials skip the
  scene-derivation slice of each trial (the very first trial of a
  fresh process additionally pays interpreter/numpy warm-up, which is
  why CLI runs see a much larger first-to-second trial drop than this
  steady-state ratio). Timing on a shared single-core box is noisy, so
  the *hard* check is functional — the warm trial must read its scene's
  terms and chirp grid from cache and miss no family — and the timing
  gauges are the recorded trajectory.

Both modes are also checked for bitwise-identical outputs — the
speedups are only interesting because the results do not change.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.analysis.sweeps import run_error_sweep
from repro.channel.scene import Scene2D
from repro.sim import cache as simcache
from repro.sim.engine import MilBackSimulator

N_TRIALS = 4
DISTANCES_M = (2.0, 4.0, 6.0)


def _localization_trial(distance: float, rng: np.random.Generator) -> float:
    scene = Scene2D.single_node(distance, orientation_deg=10.0)
    return MilBackSimulator(scene, seed=rng).simulate_localization().distance_error_m


def _timed_sweep(max_workers: int) -> tuple[float, list]:
    start_s = time.perf_counter()
    points = run_error_sweep(
        DISTANCES_M, _localization_trial, N_TRIALS, seed=12, max_workers=max_workers
    )
    return time.perf_counter() - start_s, points


def test_bench_parallel_sweep_speedup(benchmark):
    # Absorb interpreter/numpy warm-up and prime the scene-invariant
    # caches, so the serial leg is not charged for first-trial costs
    # (forked workers inherit the warm caches either way).
    _timed_sweep(max_workers=1)
    _timed_sweep(max_workers=2)

    def measure() -> tuple[float, float, list, list]:
        # Interleaved best-of-rounds (the repo's standard defence on a
        # shared single-core box): a scheduler stall landing in one
        # single-shot leg would otherwise fabricate a collapse.
        serial_s = parallel_s = float("inf")
        for _ in range(3):
            leg_s, serial_points = _timed_sweep(max_workers=1)
            serial_s = min(serial_s, leg_s)
            leg_s, parallel_points = _timed_sweep(max_workers=2)
            parallel_s = min(parallel_s, leg_s)
        return serial_s, parallel_s, serial_points, parallel_points

    serial_s, parallel_s, serial_points, parallel_points = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert [p.values for p in serial_points] == [p.values for p in parallel_points]
    speedup = serial_s / parallel_s
    obs.gauge("bench.parallel.speedup").set(speedup)
    obs.gauge("bench.parallel.serial_s").set(serial_s)
    obs.gauge("bench.parallel.parallel_s").set(parallel_s)
    # Single-core boxes cannot go faster; they must not collapse either.
    assert speedup > 0.2
    print(f"\nparallel run_sweep: serial {serial_s:.2f} s, "
          f"2 workers {parallel_s:.2f} s, speedup {speedup:.2f}x")


def _cache_counts(kind: str) -> dict[str, float]:
    snapshot = obs.get_registry().snapshot()
    return {
        key: metric["value"]
        for key, metric in snapshot.items()
        if key.startswith(f"cache.{kind}")
    }


def test_bench_scene_cache_speedup(benchmark):
    scene = Scene2D.single_node(3.0, orientation_deg=10.0)

    def trial(seed: int = 7):
        return MilBackSimulator(scene, seed=seed).simulate_localization()

    trial()  # absorb first-trial interpreter/numpy warm-up
    rounds = 5
    cold_s = warm_s = 0.0
    for _ in range(rounds):
        simcache.clear_caches()
        start_s = time.perf_counter()
        cold = trial()
        cold_s += time.perf_counter() - start_s
        hits, misses = _cache_counts("hits"), _cache_counts("misses")
        start_s = time.perf_counter()
        warm = trial()
        warm_s += time.perf_counter() - start_s
        # Identical seeds through cold and warm caches → identical physics.
        assert warm.distance_error_m == cold.distance_error_m  # milback: disable=ML003
        assert warm.angle_error_deg == cold.angle_error_deg  # milback: disable=ML003
        # The functional claim: the warm trial read its scene's terms
        # (gain bases, static field) and its chirp grid from cache and
        # re-derived nothing.
        after = _cache_counts("hits")
        for family in ("scene_terms", "chirp_grid"):
            key = f"cache.hits{{cache={family}}}"
            assert after.get(key, 0.0) > hits.get(key, 0.0)
        assert _cache_counts("misses") == misses
    benchmark.pedantic(trial, rounds=3, iterations=1)

    speedup = cold_s / warm_s
    obs.gauge("bench.cache.speedup").set(speedup)
    obs.gauge("bench.cache.cold_trial_s").set(cold_s / rounds)
    obs.gauge("bench.cache.warm_trial_s").set(warm_s / rounds)
    # Timing guard only — single-core noise makes the ratio jittery; a
    # warm trial consistently *slower* than rebuilding every cache
    # would mean the layer turned into overhead.
    assert speedup > 0.7
    print(f"\nscene-invariant cache: cold {1e3 * cold_s / rounds:.1f} ms/trial, "
          f"warm {1e3 * warm_s / rounds:.1f} ms/trial, speedup {speedup:.2f}x")
