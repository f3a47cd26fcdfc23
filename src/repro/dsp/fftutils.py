"""Spectral analysis: windowed FFTs and interpolated peak location.

FMCW range estimation lives or dies on how precisely a beat-tone peak can
be located in the FFT; quadratic (parabolic) interpolation around the
peak bin recovers sub-bin — hence sub-resolution — range, which is how
the paper reports centimeter errors against a 5 cm resolution limit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.signal import Signal
from repro.errors import SignalError
from repro.kernels import dsp as dsp_kernel

__all__ = [
    "Spectrum",
    "window_taps",
    "windowed_fft",
    "interpolated_peak",
    "find_peaks_above",
    "parabolic_vertex",
    "PeakEstimate",
]


@dataclass(frozen=True)
class Spectrum:
    """One-sided view of a complex FFT with its frequency axis.

    ``frequencies_hz`` are baseband offsets (can be negative); ``values``
    are complex FFT coefficients, normalized so a unit-amplitude tone has
    magnitude ~1 regardless of length.
    """

    frequencies_hz: np.ndarray
    values: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """|FFT| magnitudes."""
        return np.abs(self.values)

    @property
    def power(self) -> np.ndarray:
        """|FFT|^2 power spectrum."""
        return np.abs(self.values) ** 2

    def bin_spacing_hz(self) -> float:
        """Frequency step between bins [Hz]."""
        if self.frequencies_hz.size < 2:
            raise SignalError("spectrum has fewer than two bins")
        return float(self.frequencies_hz[1] - self.frequencies_hz[0])

    def value_at(self, frequency_hz: float) -> complex:
        """Complex coefficient at the bin nearest ``frequency_hz``."""
        idx = int(np.argmin(np.abs(self.frequencies_hz - frequency_hz)))
        return complex(self.values[idx])


_WINDOWS = {
    "rect": lambda n: np.ones(n),
    "hann": np.hanning,
    "hamming": np.hamming,
    "blackman": np.blackman,
}


@functools.lru_cache(maxsize=64)
def _window(window: str, n: int) -> np.ndarray:
    taps = _WINDOWS[window](n)
    taps.setflags(write=False)
    return taps


def window_taps(window: str, n: int) -> np.ndarray:
    """Taps of a named analysis window of length ``n``.

    Read-only and memoized per ``(window, n)``: the AP estimators window
    every chirp of every trial at the same few lengths.
    """
    try:
        return _window(window, n)
    except KeyError:
        raise SignalError(
            f"unknown window {window!r}; choose from {sorted(_WINDOWS)}"
        ) from None


def windowed_fft(
    signal: Signal,
    window: str = "hann",
    nfft: Optional[int] = None,
) -> Spectrum:
    """Windowed, normalized, fft-shifted spectrum of a signal.

    Normalization divides by the window's coherent gain so tone magnitudes
    equal tone amplitudes, independent of record length and window choice.
    """
    n = signal.samples.size
    if n == 0:
        raise SignalError("cannot FFT an empty signal")
    win = window_taps(window, n)
    nfft = nfft or n
    if nfft < n:
        raise SignalError("nfft must be >= signal length")
    coherent_gain = win.sum()
    spec = np.fft.fftshift(np.fft.fft(signal.samples * win, n=nfft)) / coherent_gain
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / signal.sample_rate_hz))
    return Spectrum(freqs, spec)


def parabolic_vertex(a: float, b: float, c: float) -> float:
    """Offset of the vertex of the parabola through three equally spaced
    samples, in sample steps from the middle one.

    ``0.5·(a−c)/(a−2b+c)`` clipped to ±0.5 — the sub-sample refinement
    every peak picker here applies around its peak sample ``b`` — and 0
    when the curvature is numerically zero. Callers keep their own edge
    and positivity guards and scale the offset by their own step.
    """
    denom = a - 2.0 * b + c
    if abs(denom) < 1e-18:
        return 0.0
    return float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))


@dataclass(frozen=True)
class PeakEstimate:
    """An interpolated spectral peak."""

    frequency_hz: float
    magnitude: float
    bin_index: int


def interpolated_peak(
    spectrum: Spectrum,
    min_hz: Optional[float] = None,
    max_hz: Optional[float] = None,
) -> PeakEstimate:
    """Locate the strongest peak with parabolic sub-bin interpolation.

    Optionally restrict the search to [min_hz, max_hz] — the FMCW
    processor uses this to ignore the DC/self-interference region.
    """
    mag = spectrum.magnitude
    freqs_hz = spectrum.frequencies_hz
    mask = np.ones(mag.size, dtype=bool)
    if min_hz is not None:
        mask &= freqs_hz >= min_hz
    if max_hz is not None:
        mask &= freqs_hz <= max_hz
    if not mask.any():
        raise SignalError("peak search range excludes every bin")
    masked = np.where(mask, mag, -np.inf)
    k = int(np.argmax(masked))
    df = spectrum.bin_spacing_hz()
    # Parabolic interpolation using log-magnitude of the three bins around
    # the peak (guarded at the spectrum edges).
    if 0 < k < mag.size - 1 and mag[k - 1] > 0 and mag[k + 1] > 0 and mag[k] > 0:
        delta = parabolic_vertex(np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1]))
    else:
        delta = 0.0
    return PeakEstimate(
        frequency_hz=float(freqs_hz[k] + delta * df),
        magnitude=float(mag[k]),
        bin_index=k,
    )


def find_peaks_above(
    spectrum: Spectrum,
    threshold_ratio: float = 0.5,
    min_separation_bins: int = 3,
) -> list[PeakEstimate]:
    """All local maxima whose magnitude exceeds ``threshold_ratio`` of the
    global maximum, at least ``min_separation_bins`` apart.

    Used where several reflectors can appear in one FMCW spectrum.
    """
    if not 0.0 < threshold_ratio <= 1.0:
        raise SignalError("threshold_ratio must be in (0, 1]")
    mag = spectrum.magnitude
    if mag.size < 3:
        raise SignalError("spectrum too short for peak finding")
    floor = threshold_ratio * mag.max()
    candidates = dsp_kernel.local_maxima_candidates(mag, floor)
    # Greedy non-maximum suppression, strongest first.
    candidates.sort(key=lambda k: -mag[k])
    kept: list[int] = []
    for k in candidates:
        if all(abs(k - j) >= min_separation_bins for j in kept):
            kept.append(k)
    kept.sort()
    df = spectrum.bin_spacing_hz()
    peaks = []
    for k in kept:
        a, b, c = mag[k - 1], mag[k], mag[k + 1]
        if a > 0 and b > 0 and c > 0:
            delta = parabolic_vertex(np.log(a), np.log(b), np.log(c))
        else:
            delta = 0.0
        peaks.append(
            PeakEstimate(
                frequency_hz=float(spectrum.frequencies_hz[k] + delta * df),
                magnitude=float(b),
                bin_index=k,
            )
        )
    return peaks
