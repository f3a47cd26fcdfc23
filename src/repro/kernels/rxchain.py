"""AP receive-chain kernels: batched FFT stacks and pair differencing.

The background-subtraction scheme at the heart of MilBack's localization
is chirp-parallel: every per-record operation (window, FFT, adjacent-pair
difference, beat-bin extraction, masked IFFT profile) applies the same
transform to every record of a burst. Stacking the records into one 2-D
(or 3-D) array turns each per-record Python loop into a single NumPy
call along the last axis.

Bitwise note: NumPy's pocketfft computes an ``axis=-1`` transform of a
stacked array row by row with the same plan as the equivalent 1-D calls,
and every other operation here is elementwise or a slice — so each
kernel is exactly equal (``np.array_equal``) to the per-record loop it
replaced (kept as the test oracle).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import count_dispatch

__all__ = [
    "complex_bin_values",
    "masked_pair_profile",
    "mean_abs_pair_diff",
    "windowed_spectra",
]


def windowed_spectra(
    samples: np.ndarray,
    window_taps: np.ndarray,
    nfft: int | None = None,
) -> np.ndarray:
    """Windowed, normalized, fft-shifted spectra of stacked records.

    ``samples`` is ``(n_records, n)``; returns ``(n_records, nfft)``
    complex spectra — the batch equivalent of
    :func:`repro.dsp.fftutils.windowed_fft` applied per record.
    """
    count_dispatch("rxchain.windowed_spectra")
    nfft = nfft or samples.shape[-1]
    windowed = samples * window_taps[None, :]
    return (
        np.fft.fftshift(np.fft.fft(windowed, n=nfft, axis=-1), axes=-1)
        / window_taps.sum()
    )


def mean_abs_pair_diff(values: np.ndarray) -> np.ndarray:
    """Adjacent-pair magnitude differencing, averaged over all pairs.

    ``values`` is ``(n_records, n_bins)`` of complex spectra; returns the
    ``(n_bins,)`` mean of ``|values[k] - values[k+1]|`` — the paper's
    five-chirp background subtraction (four pairs).
    """
    count_dispatch("rxchain.mean_abs_pair_diff")
    return np.abs(values[:-1] - values[1:]).mean(axis=0)


def complex_bin_values(
    samples: np.ndarray,
    sample_rate_hz: float,
    frequency_hz: float,
) -> np.ndarray:
    """Unwindowed-FFT coefficients of every record at one frequency bin.

    ``samples`` is ``(..., n)``; the FFT runs along the last axis and the
    bin nearest ``frequency_hz`` is extracted, collapsing that axis.
    Feeds Doppler pulse pairs and MUSIC covariance accumulation.
    """
    count_dispatch("rxchain.complex_bin_values")
    freqs = np.fft.fftfreq(samples.shape[-1], d=1.0 / sample_rate_hz)
    idx = int(np.argmin(np.abs(freqs - frequency_hz)))
    return np.fft.fft(samples, axis=-1)[..., idx]


def masked_pair_profile(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean |IFFT| of beat-masked adjacent-pair differences.

    ``samples`` is ``(n_records, n)``; each adjacent pair is differenced,
    transformed, restricted to the ``mask`` bins, and inverse-transformed
    — the AP-orientation amplitude-versus-sweep profile.
    """
    count_dispatch("rxchain.masked_pair_profile")
    spectra = np.fft.fft(samples[:-1] - samples[1:], axis=-1)
    spectra[:, ~mask] = 0.0
    return np.abs(np.fft.ifft(spectra, axis=-1)).mean(axis=0)
