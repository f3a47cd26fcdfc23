"""Benchmark: regenerate Figure 12 (localization performance).

``bench.fig12.wall_s`` is the fig12 wall-clock anchor that
``BENCH_obs.json`` tracks across changes: after one warm-up sweep, the
best of three ``run_fig12_ranging(n_trials=6, seed=12)`` sweeps.
"""

import time

import numpy as np

from repro import obs
from repro.experiments import fig12_localization

N_TRIALS = 10

#: Trials per point of the wall-clock anchor's sweep.
WALL_TRIALS = 6


def _timed_sweep() -> float:
    start_s = time.perf_counter()
    fig12_localization.run_fig12_ranging(n_trials=WALL_TRIALS, seed=12)
    return time.perf_counter() - start_s


def test_bench_fig12_wall_clock():
    # The warm-up fills the scene and chirp-grid caches, so the timed
    # sweeps all see the same steady state.
    _timed_sweep()
    obs.gauge("bench.fig12.wall_s").set(min(_timed_sweep() for _ in range(3)))


def test_bench_fig12a_ranging(benchmark):
    points = benchmark(
        fig12_localization.run_fig12_ranging, n_trials=N_TRIALS, seed=12
    )
    by_d = {p.parameter: p for p in points}
    # Paper: mean <5 cm at 5 m, <12 cm at 8 m; errors grow with distance.
    assert by_d[5.0].mean < 0.08
    assert by_d[8.0].mean < 0.20
    assert by_d[2.0].mean < by_d[8.0].mean
    print()
    print(
        fig12_localization.render_table(
            fig12_localization.ranging_rows(points),
            title="Figure 12a reproduction (paper: <5 cm @5 m, <12 cm @8 m)",
        )
    )


def test_bench_fig12b_angle_cdf(benchmark):
    errors = benchmark(fig12_localization.run_fig12_angle, n_trials=N_TRIALS, seed=13)
    median = float(np.median(errors))
    p90 = float(np.percentile(errors, 90))
    # Paper: median 1.1 deg, p90 2.5 deg.
    assert median < 2.0
    assert p90 < 4.0
    print(f"\nFigure 12b reproduction: median={median:.2f} deg (paper 1.1), "
          f"p90={p90:.2f} deg (paper 2.5)")
