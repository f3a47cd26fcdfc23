"""Angle-of-arrival estimation from the AP's two receive antennas (§9.2).

After background subtraction isolates the node's beat tone, the tone's
complex value at the two RX chains differs only by the inter-antenna
phase 2π·d·sinθ/λ. Comparing those phases gives the node's direction.
The input is the whole ``(n_chirps, 2, n)`` beat burst; only the first
chirp pair of each chain is read, so only those four chirps are
transformed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.antennas.array import aoa_from_phase_deg
from repro.ap.fmcw import FmcwProcessor, check_burst
from repro.errors import LocalizationError

__all__ = ["AoaEstimate", "AoaEstimator"]


@dataclass(frozen=True)
class AoaEstimate:
    """Direction estimate with its raw phase observable."""

    angle_deg: float
    phase_rad: float


class AoaEstimator:
    """Two-antenna phase-comparison AoA."""

    def __init__(
        self,
        baseline_m: float,
        frequency_hz: float,
        processor: FmcwProcessor | None = None,
    ) -> None:
        if baseline_m <= 0:
            raise LocalizationError("baseline must be positive")
        self.baseline_m = baseline_m
        self.frequency_hz = frequency_hz
        self.processor = processor or FmcwProcessor()

    def estimate(
        self,
        burst: np.ndarray,
        sample_rate_hz: float,
        beat_frequency_hz: float,
    ) -> AoaEstimate:
        """AoA from the node's complex beat value on each RX chain.

        ``burst`` is ``(n_chirps, 2, n)``; ``beat_frequency_hz`` is the
        node's beat (from ranging), the bin at which the complex spectra
        are compared. Pair-differencing is applied on each chain first
        so clutter does not bias the phase.
        """
        check_burst(burst, ndim=3, n_rx=2)
        spec1 = self.processor.subtracted_pair_complex(burst[:, 0], sample_rate_hz)
        spec2 = self.processor.subtracted_pair_complex(burst[:, 1], sample_rate_hz)
        v1 = spec1.value_at(beat_frequency_hz)
        v2 = spec2.value_at(beat_frequency_hz)
        if abs(v1) == 0 or abs(v2) == 0:
            raise LocalizationError("node component missing on one RX chain")
        phase = float(np.angle(v2 * np.conj(v1)))
        angle = aoa_from_phase_deg(phase, self.baseline_m, self.frequency_hz)
        return AoaEstimate(angle_deg=angle, phase_rad=phase)
