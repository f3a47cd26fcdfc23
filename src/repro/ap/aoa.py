"""Angle-of-arrival estimation from the AP's two receive antennas (§9.2).

After background subtraction isolates the node's beat tone, the tone's
complex value at the two RX chains differs only by the inter-antenna
phase 2π·d·sinθ/λ. Comparing those phases gives the node's direction.
The input is the whole ``(n_chirps, 2, n)`` beat burst plus its first
chain's range estimate, which holds that chain's spectra: only the
second chain's first chirp pair is transformed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.antennas.array import aoa_from_phase_deg
from repro.ap.fmcw import FmcwProcessor, RangeEstimate, check_burst
from repro.dsp.fftutils import Spectrum
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
        ranging: RangeEstimate,
    ) -> AoaEstimate:
        """AoA from the node's complex beat value on each RX chain.

        ``burst`` is ``(n_chirps, 2, n)``; ``ranging`` is its first
        chain's range estimate, whose beat picks the bin the chains are
        compared at. Each chain's first chirp pair is differenced first
        so clutter does not bias the phase.
        """
        check_burst(burst, ndim=3, n_rx=2)
        if ranging.chirp_spectra.shape[-1] != burst.shape[-1]:
            raise LocalizationError("range estimate is not of this burst's records")
        freqs, rx2 = self.processor.chirp_spectra(burst[:2, 1], sample_rate_hz)
        rx1 = ranging.chirp_spectra
        v1 = Spectrum(freqs, rx1[0] - rx1[1]).value_at(ranging.beat_frequency_hz)
        v2 = Spectrum(freqs, rx2[0] - rx2[1]).value_at(ranging.beat_frequency_hz)
        if abs(v1) == 0 or abs(v2) == 0:
            raise LocalizationError("node component missing on one RX chain")
        phase = float(np.angle(v2 * np.conj(v1)))
        angle = aoa_from_phase_deg(phase, self.baseline_m, self.frequency_hz)
        return AoaEstimate(angle_deg=angle, phase_rad=phase)
