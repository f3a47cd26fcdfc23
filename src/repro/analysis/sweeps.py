"""Experiment sweep scaffolding.

The paper's figures are all "sweep a parameter, repeat N trials, report
statistics". This module runs such sweeps reproducibly: every (point,
trial) pair gets an independent RNG stream, so adding trials or points
never perturbs existing results — and, because each pair's stream is
spawned up front in the parent, neither does running the pairs on a
:mod:`repro.parallel` worker pool (``max_workers=``). Serial and
parallel sweeps are bitwise identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import stream
from repro.parallel import parallel_map, resolve_max_workers
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.stats import ErrorSummary, summarize_errors

T = TypeVar("T")

__all__ = ["SweepPoint", "run_sweep", "run_error_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """Results of all trials at one parameter value."""

    parameter: float
    values: tuple[float, ...]

    def summary(self) -> ErrorSummary:
        """Error-style summary of the trial values."""
        return summarize_errors(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def p90(self) -> float:
        """90th percentile of the stored values, as stored.

        No magnitude is taken here: error sweeps
        (:func:`run_error_sweep`) already store absolute errors, and for
        signed quantities a percentile of magnitudes would silently
        conflate under- and over-shoot.
        """
        return float(np.percentile(self.values, 90.0))

    def mean_ci95(self, n_bootstrap: int = 2000, seed: int = 0) -> tuple[float, float]:
        """Bootstrap 95% confidence interval on the mean.

        Deterministic (fixed bootstrap seed) so tables are reproducible.
        """
        values = np.asarray(self.values, dtype=float)
        if values.size == 1:
            return (values[0], values[0])
        rng = np.random.default_rng(seed)
        resamples = rng.choice(values, size=(n_bootstrap, values.size), replace=True)
        means = resamples.mean(axis=1)
        return (
            float(np.percentile(means, 2.5)),
            float(np.percentile(means, 97.5)),
        )


def _sweep_task(
    trial: Callable[[float, np.random.Generator], float],
    task: tuple[float, np.random.Generator],
) -> float:
    """Module-level task wrapper so sweeps stay picklable.

    ``functools.partial(_sweep_task, trial)`` pickles whenever ``trial``
    does, which lets a picklable trial ride an installed
    :class:`~repro.parallel.PersistentPool`; closures still run on a
    pool forked for the call, which inherits them copy-on-write.
    """
    return float(trial(task[0], task[1]))


def _abs_trial(
    trial: Callable[[float, np.random.Generator], float],
    parameter: float,
    rng: np.random.Generator,
) -> float:
    return abs(float(trial(parameter, rng)))


def run_sweep(
    parameters: Sequence[float],
    trial: Callable[[float, np.random.Generator], float],
    n_trials: int,
    seed: RngLike = None,
    *,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """Run ``trial(parameter, rng)`` ``n_trials`` times per parameter.

    Trials receive independent RNG streams derived from ``seed``. With
    ``max_workers`` above 1 (or ``$REPRO_MAX_WORKERS`` set), the
    ``(parameter, trial)`` pairs execute on a process pool; each pair
    still consumes exactly the stream a serial run would hand it, so the
    returned points are bitwise identical either way.
    """
    if n_trials < 1:
        raise ConfigurationError("need at least one trial")
    rngs = spawn_rngs(seed, len(parameters) * n_trials)
    workers = resolve_max_workers(max_workers)
    if workers > 1:
        tasks = [
            (float(parameter), rngs[i * n_trials + j])
            for i, parameter in enumerate(parameters)
            for j in range(n_trials)
        ]
        result = parallel_map(
            functools.partial(_sweep_task, trial), tasks, max_workers=workers
        )
        points = []
        for i, parameter in enumerate(parameters):
            # The parent records the same per-point span and counters a
            # serial run would, keeping obs totals mode-independent; the
            # trial-level spans arrive via the workers' obs deltas.
            with obs.span("sweep.point", parameter=float(parameter), trials=n_trials):
                obs.counter("sweep.points").inc()
                obs.counter("sweep.trials").inc(n_trials)
            values = tuple(result.values[i * n_trials : (i + 1) * n_trials])
            points.append(SweepPoint(float(parameter), values))
        return points
    points = []
    n_total = len(parameters) * n_trials
    for i, parameter in enumerate(parameters):
        with obs.span("sweep.point", parameter=float(parameter), trials=n_trials):
            obs.counter("sweep.points").inc()
            obs.counter("sweep.trials").inc(n_trials)
            trial_values = []
            for j in range(n_trials):
                trial_values.append(float(trial(parameter, rngs[i * n_trials + j])))
                # Heartbeats (no-ops unless enabled) count finished
                # trials across the whole sweep, labelled by the
                # enclosing sweep.point span; the final trial always
                # beats so a 100% line closes the stream.
                done = i * n_trials + j + 1
                stream.tick(done=done, total=n_total, force=done == n_total)
        points.append(SweepPoint(float(parameter), tuple(trial_values)))
    return points


def run_error_sweep(
    parameters: Sequence[float],
    trial: Callable[[float, np.random.Generator], float],
    n_trials: int,
    seed: RngLike = None,
    *,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """Like :func:`run_sweep` but stores absolute values (errors).

    The magnitude is taken inside the trial wrapper — not by re-wrapping
    the finished points — so each trial is observed exactly once and the
    stored values are errors from the start.
    """
    error_trial = functools.partial(_abs_trial, trial)
    return run_sweep(parameters, error_trial, n_trials, seed, max_workers=max_workers)
