"""AP-side orientation sensing (paper §5.2a, Fig. 13b).

While the node toggles *one* FSA port (the other absorbs), the AP sweeps
its FMCW ramp. The node reflects strongly only near the toggled port's
alignment frequency, so the background-subtracted return, viewed as
amplitude over the sweep, peaks at that frequency — which maps through
the FSA dispersion to the node's orientation.

Pipeline (matching the paper's description): FFT → background
subtraction → isolate the node's beat bins → IFFT → |amplitude| versus
time ≡ versus chirp frequency → interpolated peak → dispersion inverse.
The input is one RX chain's ``(n_chirps, n)`` slice of the beat burst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.antennas.fsa import FrequencyScanningAntenna
from repro.ap.fmcw import FmcwProcessor, check_burst
from repro.dsp.fftutils import parabolic_vertex
from repro.errors import LocalizationError
from repro.kernels import rxchain

__all__ = ["ApOrientationEstimate", "ApOrientationEstimator"]


@dataclass(frozen=True)
class ApOrientationEstimate:
    """Orientation estimate with its intermediate observables."""

    orientation_deg: float
    peak_frequency_hz: float
    profile_frequencies_hz: np.ndarray
    profile_magnitude: np.ndarray


class ApOrientationEstimator:
    """Reflection-power-versus-frequency orientation estimation."""

    #: Half-width of the beat-bin mask around the node's peak [Hz]. Wide
    #: enough to keep the gain-envelope sidebands (the beam sweep takes a
    #: few µs → envelope bandwidth of a few hundred kHz).
    MASK_HALF_WIDTH_HZ = 1.5e6

    def __init__(
        self,
        toggled_port: FrequencyScanningAntenna,
        processor: FmcwProcessor | None = None,
    ) -> None:
        self.port = toggled_port
        self.processor = processor or FmcwProcessor()

    def estimate(
        self,
        chain: np.ndarray,
        sample_rate_hz: float,
        beat_frequency_hz: float,
    ) -> ApOrientationEstimate:
        """Estimate node orientation from one RX chain's ``(n_chirps, n)``
        chirp burst.

        ``beat_frequency_hz`` (from ranging) centers the isolation mask.
        """
        chirp = self.processor.chirp
        profile = self._node_amplitude_profile(chain, sample_rate_hz, beat_frequency_hz)
        n = profile.size
        # Time within the chirp maps linearly to swept frequency.
        times = np.arange(n) / sample_rate_hz
        freqs = chirp.instantaneous_frequency_hz(times)
        # Trim the edges: windowing and the mask's IFFT ringing corrupt
        # the first/last few percent of the sweep.
        guard = max(int(0.03 * n), 1)
        core = slice(guard, n - guard)
        peak_idx = int(np.argmax(profile[core])) + guard
        peak_freq = self._refine_peak(freqs, profile, peak_idx)
        orientation = float(self.port.beam_angle_deg(peak_freq))
        return ApOrientationEstimate(
            orientation_deg=orientation,
            peak_frequency_hz=peak_freq,
            profile_frequencies_hz=freqs,
            profile_magnitude=profile,
        )

    # --- internals ---------------------------------------------------------------

    def _node_amplitude_profile(
        self,
        chain: np.ndarray,
        sample_rate_hz: float,
        beat_frequency_hz: float,
    ) -> np.ndarray:
        """|node reflection| versus time-within-chirp, averaged over the
        adjacent-pair differences of the burst."""
        check_burst(chain, ndim=2)
        freqs = np.fft.fftfreq(chain.shape[-1], d=1.0 / sample_rate_hz)
        mask = np.abs(freqs - beat_frequency_hz) <= self.MASK_HALF_WIDTH_HZ
        if not mask.any():
            raise LocalizationError("beat mask selects no bins")
        return rxchain.masked_pair_profile(chain, mask)

    @staticmethod
    def _refine_peak(freqs: np.ndarray, profile: np.ndarray, k: int) -> float:
        """Parabolic refinement of the profile peak on the frequency axis."""
        if 0 < k < profile.size - 1:
            delta = parabolic_vertex(profile[k - 1], profile[k], profile[k + 1])
            return float(freqs[k] + delta * (freqs[k + 1] - freqs[k]))
        return float(freqs[k])
