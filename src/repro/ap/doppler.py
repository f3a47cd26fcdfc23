"""Radial-velocity estimation from chirp-to-chirp phase (ISAC extension).

Classic FMCW measures velocity from the phase rotation of a target's
beat tone across chirps: Δφ = 4π·v·T_rep/λ. MilBack's node complicates
this deliberately — it toggles reflect/absorb every chirp, so only
every *other* chirp carries its return. Pulse pairs therefore run at
lag 2 over the reflect-state chirps, which halves the unambiguous
velocity (still ±26 m/s at the default timing — far beyond indoor
motion). The input is one RX chain's ``(n_chirps, n)`` slice of the beat
burst. Not in the paper; a natural next step for its VR/AR story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ap.fmcw import check_burst
from repro.constants import SPEED_OF_LIGHT
from repro.errors import LocalizationError
from repro.kernels import rxchain

__all__ = ["VelocityEstimate", "DopplerEstimator"]


@dataclass(frozen=True)
class VelocityEstimate:
    """Radial velocity estimate (positive = moving away)."""

    velocity_mps: float
    phase_step_rad: float
    max_unambiguous_mps: float


class DopplerEstimator:
    """Pulse-pair velocity estimation over a MilBack beat burst."""

    #: Pulse-pair lag in chirps: the node reflects on every other chirp.
    TOGGLE_LAG = 2

    def __init__(
        self,
        chirp_repetition_interval_s: float,
        center_frequency_hz: float,
    ) -> None:
        if chirp_repetition_interval_s <= 0:
            raise LocalizationError("repetition interval must be positive")
        self.t_rep = chirp_repetition_interval_s
        self.wavelength_m = SPEED_OF_LIGHT / center_frequency_hz

    def max_unambiguous_velocity_mps(self) -> float:
        """|v| above which the lag-2 phase aliases: λ/(8·T_rep).

        ±26.7 m/s at 50 µs repetition and 28 GHz — aliasing never binds
        indoors.
        """
        return self.wavelength_m / (4.0 * self.t_rep * self.TOGGLE_LAG)

    def estimate(
        self,
        chain: np.ndarray,
        sample_rate_hz: float,
        beat_frequency_hz: float,
        node_toggles: bool = True,
    ) -> VelocityEstimate:
        """Velocity from the node peak's phase progression.

        With ``node_toggles`` (MilBack's default), only the even
        (reflect-state) chirps carry the node; pulse pairs run at lag 2.
        For a conventional constant reflector pass ``False`` to use
        every adjacent pair.
        """
        check_burst(chain, ndim=2, min_chirps=3)
        values = rxchain.complex_bin_values(chain, sample_rate_hz, beat_frequency_hz)
        if node_toggles:
            carriers = values[0::2]  # reflect-state chirps
            lag = self.TOGGLE_LAG
        else:
            carriers = values
            lag = 1
        if carriers.size < 2:
            raise LocalizationError("not enough carrier chirps for a pulse pair")
        pairs = carriers[1:] * np.conj(carriers[:-1])
        if np.abs(pairs).sum() <= 0:
            raise LocalizationError("no node energy at the requested beat")
        phase_step = float(np.angle(np.sum(pairs)))
        # Δφ per pair = 4π·v·(lag·T_rep)/λ (positive = receding).
        velocity = phase_step * self.wavelength_m / (4.0 * math.pi * self.t_rep * lag)
        return VelocityEstimate(
            velocity_mps=velocity,
            phase_step_rad=phase_step,
            max_unambiguous_mps=self.max_unambiguous_velocity_mps(),
        )
