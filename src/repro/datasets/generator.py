"""The corpus generator: grid rows → simulated bursts → labeled columns.

Each worker chunk materializes one contiguous *block* of rows. It
derives every row's RNG streams from ``(seed, row_index)`` alone, in one
:func:`repro.utils.rng.indexed_rng_rows` pass per block (bit for bit the
per-row :func:`repro.utils.rng.indexed_rngs` streams). Per row it builds
the row's scene, simulates one Field-2 burst via
:meth:`~repro.sim.engine.MilBackSimulator.observe_burst` (under an
active fault plan when the row's grid cell injects faults), and then —
the trial-batched part — extracts beat-spectrum features for the *whole
block* in one :func:`repro.kernels.rxchain.windowed_spectra` call: the
FFT treats stacked rows independently, so batching across row
boundaries is bitwise identical to per-row extraction while hitting the
batched kernel path once per block instead of once per chirp.

Feature choice is deliberate: every quantity stored (windowed FFTs,
adjacent-pair subtraction, link-budget port powers, envelope means, the
two-horn range/AoA estimates) is bitwise identical between the kernels
and the loop-form oracle the tests patch in — the corpus never touches
the MUSIC/Bartlett grid scans whose raw spectra carry few-ulp BLAS
differences. That is what makes the byte-identity contract hold against
the oracle as well as across worker counts.
"""

from __future__ import annotations

import contextlib
import functools
import math
from pathlib import Path
from typing import Any

import numpy as np

from repro import faults, obs
from repro.channel.multipath import Reflector
from repro.channel.scene import Scene2D
from repro.datasets.schema import DatasetConfig, RowParams
from repro.datasets.writer import ShardWriter
from repro.dsp.fftutils import window_taps
from repro.errors import DatasetError
from repro.kernels import rxchain
from repro.parallel import PersistentPool
from repro.sim.engine import BurstObservables, MilBackSimulator
from repro.utils.geometry import Point2D
from repro.utils.rng import indexed_rng_rows

__all__ = ["generate_dataset", "scene_for_row"]

#: Fraction of the AP→node distance at which the blocking scatterer sits
#: in ``blocked`` scenes, and its radar cross-section. A +20 dBsm plate
#: on the direct ray dominates the node's return the way a human torso
#: or cabinet does in the paper's NLOS discussion.
_BLOCKER_ALONG = 0.6
_BLOCKER_RCS_DBSM = 20.0


def scene_for_row(params: RowParams) -> Scene2D:
    """Build the scene a row's grid coordinates describe."""
    scene = Scene2D.single_node(
        distance_m=params.distance_m,
        azimuth_deg=params.azimuth_deg,
        orientation_deg=params.orientation_deg,
        with_clutter=params.scene_kind != "clear",
    )
    if params.scene_kind == "blocked":
        az = math.radians(params.azimuth_deg)
        along = _BLOCKER_ALONG * params.distance_m
        blocker = Reflector(
            Point2D(along * math.cos(az), along * math.sin(az)),
            rcs_dbsm=_BLOCKER_RCS_DBSM,
            name="blocker",
        )
        scene = scene.with_clutter(blocker)
    return scene


def _simulate_row(
    config: DatasetConfig,
    index: int,
    sim_stream: np.random.Generator,
    fault_stream: np.random.Generator,
) -> tuple[RowParams, BurstObservables]:
    params = config.row_params(index)
    sim = MilBackSimulator(scene_for_row(params), seed=sim_stream)
    if params.fault_rate > 0.0:
        plan = faults.FaultPlan(
            [faults.FaultSpec(kind, rate=params.fault_rate) for kind in config.fault_kinds],
            rng=fault_stream,
        )
        context: Any = faults.activate(plan)
    else:
        context = contextlib.nullcontext()
    with context:
        observed = sim.observe_burst(radial_velocity_mps=params.velocity_mps)
    return params, observed


def _pool_bins(profile: np.ndarray, n_bins: int) -> np.ndarray:
    """Average a magnitude profile down to exactly ``n_bins`` bins."""
    n = profile.shape[0]
    if n < n_bins:
        padded = np.zeros(n_bins, dtype=profile.dtype)
        padded[:n] = profile
        return padded
    trimmed = profile[: n - (n % n_bins)]
    return trimmed.reshape(n_bins, -1).mean(axis=1)


def _generate_block(config: DatasetConfig, bounds: tuple[int, int]) -> dict[str, np.ndarray]:
    """Materialize rows ``[lo, hi)`` as schema columns (worker side)."""
    indices = range(*bounds)
    streams = indexed_rng_rows(config.seed, indices, 2)
    rows = [_simulate_row(config, i, *row) for i, row in zip(indices, streams)]
    n_rows = len(rows)
    obs.counter("datasets.rows").inc(n_rows)

    # Trial-batched feature extraction: one windowed-FFT call covers
    # every chirp of every row in the block (rows are independent along
    # the record axis, so this is bitwise equal to per-row extraction).
    rx1 = [observed.samples[:, 0, :] for _, observed in rows]
    n_chirps = rx1[0].shape[0]
    n_samples = rx1[0].shape[1]
    taps = window_taps("hann", n_samples)
    spectra = rxchain.windowed_spectra(np.concatenate(rx1, axis=0), taps)
    spectra = spectra.reshape(n_rows, n_chirps, n_samples)

    columns: dict[str, list[Any]] = {name: [] for name in _COLUMN_NAMES}
    for r, (params, observed) in enumerate(rows):
        profile = np.abs(rxchain.mean_abs_pair_diff(spectra[r]))
        loc = observed.localization
        az = math.radians(params.azimuth_deg)
        columns["row_index"].append(params.index)
        columns["beat_spectrum"].append(_pool_bins(profile, config.n_spectrum_bins))
        columns["port_power_dbm"].append(observed.port_power_dbm)
        columns["envelope_mean_v"].append(observed.envelope_mean_v)
        columns["x_m"].append(params.distance_m * math.cos(az))
        columns["y_m"].append(params.distance_m * math.sin(az))
        columns["distance_m"].append(params.distance_m)
        columns["azimuth_deg"].append(params.azimuth_deg)
        columns["orientation_deg"].append(params.orientation_deg)
        columns["fault_rate"].append(params.fault_rate)
        columns["velocity_mps"].append(params.velocity_mps)
        columns["los"].append(0 if params.scene_kind == "blocked" else 1)
        columns["scene_kind"].append(params.scene_index)
        columns["est_distance_m"].append(loc.distance_est_m if loc else np.nan)
        columns["est_azimuth_deg"].append(loc.angle_est_deg if loc else np.nan)
        columns["beat_frequency_hz"].append(loc.beat_frequency_hz if loc else np.nan)
        columns["est_valid"].append(1 if loc else 0)
    return {name: np.asarray(values) for name, values in columns.items()}


_COLUMN_NAMES = (
    "row_index",
    "beat_spectrum",
    "port_power_dbm",
    "envelope_mean_v",
    "x_m",
    "y_m",
    "distance_m",
    "azimuth_deg",
    "orientation_deg",
    "fault_rate",
    "velocity_mps",
    "los",
    "scene_kind",
    "est_distance_m",
    "est_azimuth_deg",
    "beat_frequency_hz",
    "est_valid",
)


def generate_dataset(
    config: DatasetConfig,
    out_dir: str | Path,
    max_workers: int | None = None,
    rows_per_shard: int = 4096,
    block_rows: int = 64,
    resume: bool = False,
    pool: PersistentPool | None = None,
) -> dict[str, Any]:
    """Generate (or resume) a corpus; return its final manifest.

    Rows stream through :class:`~repro.datasets.writer.ShardWriter` in
    blocks of ``block_rows``, so peak memory is bounded by the in-flight
    block window regardless of corpus size. Every block runs through
    :meth:`~repro.parallel.PersistentPool.imap_chunks`: on ``pool`` when
    it has more than one worker, which reuses warm workers across calls
    (``max_workers`` is then unused); otherwise on a pool of
    ``max_workers`` created for this run and shut down after, which at
    one worker runs every block in-process without forking. The output
    bytes are identical at any worker count and across resume
    boundaries.
    """
    if block_rows < 1:
        raise DatasetError("block_rows must be at least 1")
    with obs.span("datasets.generate", rows=config.n_rows):
        writer = ShardWriter(out_dir, config, rows_per_shard=rows_per_shard, resume=resume)
        start = writer.rows_done
        if start:
            obs.counter("datasets.rows_resumed").inc(start)
        blocks = [
            (lo, min(lo + block_rows, config.n_rows))
            for lo in range(start, config.n_rows, block_rows)
        ]
        fn = functools.partial(_generate_block, config)
        owns_pool = pool is None or pool.max_workers <= 1
        run_pool = PersistentPool(max_workers) if owns_pool else pool
        try:
            for chunk_blocks in run_pool.imap_chunks(fn, blocks, chunk_size=1):
                for block in chunk_blocks:
                    writer.append_block(block)
        finally:
            if owns_pool:
                run_pool.shutdown()
        return writer.finalize()
