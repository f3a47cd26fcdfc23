"""Super-resolution AoA over an RX array: Bartlett and MUSIC.

The paper's AP uses two horns and phase comparison, noting that "the
angle estimation can also be further improved if the AP uses a phased
array with a large number of elements" (§9.2). This module is that
upgrade: per-antenna snapshots of the node's background-subtracted beat
tone feed a classical array processor — Bartlett beamforming as the
robust baseline, MUSIC for super-resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.dsp.signal import Signal
from repro.errors import LocalizationError
from repro.kernels import aoa, rxchain

__all__ = ["ArrayAoaEstimate", "ArrayAoaEstimator"]


@dataclass(frozen=True)
class ArrayAoaEstimate:
    """Direction estimate from an array snapshot."""

    angle_deg: float
    method: str
    spectrum_angles_deg: np.ndarray
    spectrum: np.ndarray


class ArrayAoaEstimator:
    """MUSIC / Bartlett AoA from per-antenna beat records."""

    def __init__(
        self,
        n_antennas: int,
        baseline_m: float,
        frequency_hz: float,
        scan_limit_deg: float = 60.0,
        n_grid: int = 2401,
    ) -> None:
        if n_antennas < 2:
            raise LocalizationError("array AoA needs at least two antennas")
        if baseline_m <= 0:
            raise LocalizationError("baseline must be positive")
        self.n_antennas = n_antennas
        self.baseline_m = baseline_m
        self.wavelength_m = SPEED_OF_LIGHT / frequency_hz
        self.grid_deg = np.linspace(-scan_limit_deg, scan_limit_deg, n_grid)
        # The grid and geometry are fixed for the estimator's lifetime,
        # so the whole (n_grid, n_antennas) steering matrix is built
        # once here and reused by every estimate() call (memoized
        # process-wide — see repro.kernels.aoa).
        self._steering = aoa.steering_matrix(
            self.grid_deg, n_antennas, baseline_m, self.wavelength_m
        )

    # --- snapshots -------------------------------------------------------------

    def snapshots(
        self,
        per_antenna_records: tuple[list[Signal], ...],
        beat_frequency_hz: float,
    ) -> np.ndarray:
        """Node-component array snapshots, one per adjacent chirp pair.

        Pair differencing removes clutter per antenna; the complex value
        at the node's beat bin across antennas is one spatial snapshot.
        Returns shape (n_pairs, n_antennas).
        """
        if len(per_antenna_records) != self.n_antennas:
            raise LocalizationError(
                f"got {len(per_antenna_records)} record lists for "
                f"{self.n_antennas} antennas"
            )
        n_chirps = len(per_antenna_records[0])
        if n_chirps < 2:
            raise LocalizationError("need at least two chirps")
        stacked = np.stack(
            [
                [record.samples for record in records]
                for records in per_antenna_records
            ]
        )
        values = rxchain.complex_bin_values(
            stacked, per_antenna_records[0][0].sample_rate_hz, beat_frequency_hz
        )
        return (values[:, :-1] - values[:, 1:]).T

    def steering_vector(self, angle_deg: float) -> np.ndarray:
        """ULA steering vector toward ``angle_deg``."""
        return aoa.steering_vector(
            angle_deg, self.n_antennas, self.baseline_m, self.wavelength_m
        )

    # --- estimators -------------------------------------------------------------

    def estimate(
        self,
        per_antenna_records: tuple[list[Signal], ...],
        beat_frequency_hz: float,
        method: str = "music",
    ) -> ArrayAoaEstimate:
        """AoA by the chosen method ("music" or "bartlett")."""
        snapshots = self.snapshots(per_antenna_records, beat_frequency_hz)
        # R[i, j] = E[x_i x_j*] with snapshots stacked as rows.
        covariance = snapshots.T @ snapshots.conj() / snapshots.shape[0]
        if method == "bartlett":
            spectrum = aoa.bartlett_spectrum(covariance, self._steering)

            def window(rows: np.ndarray) -> np.ndarray:
                return aoa.bartlett_window_reference(covariance, rows)

        elif method == "music":
            noise = aoa.noise_subspace(covariance, n_sources=1)
            spectrum = aoa.music_spectrum(noise, self._steering)

            def window(rows: np.ndarray) -> np.ndarray:
                return aoa.music_window_reference(noise, rows)

        else:
            raise LocalizationError(f"unknown AoA method {method!r}")
        peak = int(np.argmax(spectrum))
        angle = self._refine_peak(peak, window)
        return ArrayAoaEstimate(
            angle_deg=angle,
            method=method,
            spectrum_angles_deg=self.grid_deg,
            spectrum=spectrum,
        )

    # --- internals ----------------------------------------------------------------

    def _refine_peak(
        self, k: int, window: Callable[[np.ndarray], np.ndarray]
    ) -> float:
        """Parabolic peak interpolation on loop-arithmetic values.

        The three spectrum points around the peak are recomputed with
        the per-angle loop arithmetic: this pins the refined angle to
        what a full loop scan (the test oracle) would give exactly, so
        `estimate()` returns a kernel-independent angle whenever the
        peak index agrees (see `docs/PERFORMANCE.md`).
        """
        grid_deg = self.grid_deg
        if 0 < k < grid_deg.size - 1:
            a, b, c = window(self._steering[k - 1 : k + 2])
            denom = a - 2.0 * b + c
            if abs(denom) > 1e-18:
                delta = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
                return float(grid_deg[k] + delta * (grid_deg[1] - grid_deg[0]))
        return float(grid_deg[k])
