"""FMCW stretch processing with modulated-target background subtraction.

The AP dechirps each received ramp against its transmitted copy; every
reflector becomes a beat tone at slope·2d/c. Static clutter produces the
*same* tone chirp after chirp, while the node — toggling reflective/
absorptive between chirps — produces a tone whose amplitude alternates.
Subtracting consecutive chirp spectra therefore cancels clutter and
self-interference and leaves only the node (paper §5.1).

A beat burst is one array: the engine's ``(n_chirps, n_rx, n)`` burst,
of which the processor reads one RX chain's ``(n_chirps, n)`` slice,
sampled at a rate the caller passes alongside. :func:`check_burst` is the
shape contract every AP estimator applies to it. Ranging transforms its
chain once: its :class:`RangeEstimate` carries the chain's chirp spectra
beside the subtracted spectrum, for later readers of that chain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.dsp.fftutils import Spectrum, interpolated_peak, window_taps
from repro.dsp.waveforms import SawtoothChirp
from repro.errors import LocalizationError
from repro.kernels import rxchain

__all__ = ["RangeEstimate", "FmcwProcessor", "check_burst"]


def check_burst(
    burst: np.ndarray, ndim: int, min_chirps: int = 2, n_rx: int | None = None
) -> None:
    """Reject a beat burst the estimators cannot read.

    ``burst`` is ``(n_chirps, n)`` for one RX chain (``ndim=2``) or
    ``(n_chirps, n_rx, n)`` for the whole receiver (``ndim=3``); it needs
    ``min_chirps`` chirps, non-empty records and, when given, ``n_rx``
    RX chains.
    """
    if burst.ndim != ndim:
        raise LocalizationError(f"expected a {ndim}-D beat burst, got shape {burst.shape}")
    if burst.shape[0] < min_chirps:
        raise LocalizationError(f"need at least {min_chirps} chirps")
    if burst.shape[-1] == 0:
        raise LocalizationError("beat records are empty")
    if n_rx is not None and burst.shape[1] != n_rx:
        raise LocalizationError(f"got {burst.shape[1]} RX chains for {n_rx} antennas")


@functools.lru_cache(maxsize=32)
def _shifted_axis_hz(n: int, sample_rate_hz: float) -> np.ndarray:
    """The fft-shifted frequency axis of an ``n``-point record, read-only."""
    freqs = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / sample_rate_hz))
    freqs.setflags(write=False)
    return freqs


def _mean_pair_spectrum(freqs: np.ndarray, values: np.ndarray) -> Spectrum:
    """Pairwise-differenced spectrum, averaged over all adjacent pairs.

    With the node toggling once per chirp, each difference contains
    ±(node tone) and no clutter; magnitudes are averaged across the
    (n−1) pairs — the paper's five-chirp scheme gives four pairs.
    """
    return Spectrum(freqs, rxchain.mean_abs_pair_diff(values).astype(np.complex128))


@dataclass(frozen=True)
class RangeEstimate:
    """Output of one ranging measurement; ``chirp_spectra`` holds the
    chain's rows of :meth:`FmcwProcessor.chirp_spectra`, on ``spectrum``'s axis."""

    distance_m: float
    beat_frequency_hz: float
    peak_magnitude: float
    spectrum: Spectrum
    chirp_spectra: np.ndarray


class FmcwProcessor:
    """Range processing over one RX chain's burst of dechirped chirps."""

    def __init__(self, chirp: SawtoothChirp | None = None) -> None:
        self.chirp = chirp or SawtoothChirp()

    # --- conversions -----------------------------------------------------------

    def beat_to_distance_m(self, beat_hz: float) -> float:
        """d = f_b · c / (2 · slope)."""
        return beat_hz * SPEED_OF_LIGHT / (2.0 * self.chirp.slope_hz_per_s)

    def distance_to_beat_hz(self, distance_m: float) -> float:
        """Inverse of :meth:`beat_to_distance_m`."""
        return 2.0 * distance_m * self.chirp.slope_hz_per_s / SPEED_OF_LIGHT

    # --- spectra ----------------------------------------------------------------

    def chirp_spectra(
        self, chain: np.ndarray, sample_rate_hz: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Windowed FFT of every chirp of one RX chain.

        ``chain`` is ``(n_chirps, n)``; returns the fft-shifted frequency
        axis ``(n,)`` (read-only, shared per length and rate) and the
        ``(n_chirps, n)`` complex spectra, each row exactly
        :func:`~repro.dsp.fftutils.windowed_fft` of its chirp.
        """
        check_burst(chain, ndim=2)
        n = chain.shape[-1]
        values = rxchain.windowed_spectra(chain, window_taps("hann", n))
        return _shifted_axis_hz(n, sample_rate_hz), values

    # --- ranging -----------------------------------------------------------------

    def estimate_range(
        self,
        chain: np.ndarray,
        sample_rate_hz: float,
        min_distance_m: float = 0.5,
        max_distance_m: float | None = None,
    ) -> RangeEstimate:
        """Full ranging pipeline: subtract background, pick the strongest
        surviving beat, convert to distance.

        The search floor excludes the DC/self-interference region; the
        ceiling defaults to the capture's unambiguous range.
        """
        freqs, values = self.chirp_spectra(chain, sample_rate_hz)
        spectrum = _mean_pair_spectrum(freqs, values)
        max_d = (
            max_distance_m
            if max_distance_m is not None
            else self.beat_to_distance_m(sample_rate_hz / 2.0) * 0.95
        )
        peak = interpolated_peak(
            spectrum,
            min_hz=self.distance_to_beat_hz(min_distance_m),
            max_hz=self.distance_to_beat_hz(max_d),
        )
        if peak.magnitude <= 0:
            raise LocalizationError("no reflection survived background subtraction")
        return RangeEstimate(
            distance_m=self.beat_to_distance_m(peak.frequency_hz),
            beat_frequency_hz=peak.frequency_hz,
            peak_magnitude=peak.magnitude,
            spectrum=spectrum,
            chirp_spectra=values,
        )
