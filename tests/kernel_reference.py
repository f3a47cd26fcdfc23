"""Loop-form reference kernels: the test oracle for :mod:`repro.kernels`.

Each function here is the per-record / per-angle Python loop that a
batched kernel replaced, operation for operation (same RNG consumption,
same floating-point evaluation order). The exact tests compare the
shipping kernels against these loops with ``np.array_equal``
(burst/rxchain/dsp) or the documented ulp bounds (AoA), and the
``bench.kernel.*`` / ``bench.sweep.e2e_speedup`` benchmarks time them
as the reference leg.

:func:`reference_kernels` patches the loops over the kernel module
attributes that every production call site goes through
(``rxchain.windowed_spectra(...)``, ``burst_kernel.synthesize_burst(...)``,
…), so a whole experiment can run on the oracle. Processes forked while
the patch is active inherit it; warm pool workers forked earlier do not.
The loops count no ``kernels.dispatch.*``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Callable, Iterator

import numpy as np

from repro.kernels import aoa, burst, dsp, rxchain


def synthesize_burst(
    params: burst.BurstParams, variates: burst.BurstVariates
) -> np.ndarray:
    """The engine's per-chirp, per-antenna record loop."""
    n_chirps = variates.n_chirps
    n_rx, n = params.n_rx, params.n
    t = params.t
    out = np.empty((n_chirps, n_rx, n), dtype=np.complex128)
    for k in range(n_chirps):
        state_on = k % 2 == 0
        node_factor = params.on_amp if state_on else params.off_amp
        mirror_factor = 1.0 + (params.mirror_leak if state_on else 0.0)
        tau_j = variates.tau_j_s[k]
        jitter = np.exp(
            1j
            * 2.0
            * math.pi
            * (params.slope_hz_per_s * tau_j * t + params.start_hz * tau_j)
        )
        residual = variates.residuals[k]
        doppler = np.exp(1j * params.doppler_step_rad * k)
        for m in range(n_rx):
            rx_phase = np.exp(1j * m * params.rx_phase_step_rad)
            samples = (
                params.static[m] * (1.0 + residual)
                + node_factor * params.node_shape * rx_phase * doppler
                + mirror_factor * params.mirror_shape * rx_phase * doppler
            ) * jitter
            noise = params.noise_sigma * variates.noise_white[k, m]
            out[k, m] = samples + noise
    return out


def windowed_spectra(
    samples: np.ndarray, window_taps: np.ndarray, nfft: int | None = None
) -> np.ndarray:
    """One windowed, normalized, fft-shifted spectrum per record."""
    nfft = nfft or samples.shape[-1]
    coherent_gain = window_taps.sum()
    out = np.empty((samples.shape[0], nfft), dtype=np.complex128)
    for i in range(samples.shape[0]):
        out[i] = (
            np.fft.fftshift(np.fft.fft(samples[i] * window_taps, n=nfft))
            / coherent_gain
        )
    return out


def mean_abs_pair_diff(values: np.ndarray) -> np.ndarray:
    """Mean of ``|values[k] - values[k+1]|`` over a list of pair differences."""
    diffs = [np.abs(a - b) for a, b in zip(values[:-1], values[1:])]
    return np.mean(diffs, axis=0)


def complex_bin_values(
    samples: np.ndarray, sample_rate_hz: float, frequency_hz: float
) -> np.ndarray:
    """One full FFT per record, then the bin nearest ``frequency_hz``."""
    n = samples.shape[-1]
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    idx = int(np.argmin(np.abs(freqs - frequency_hz)))
    flat = samples.reshape(-1, n)
    out = np.empty(flat.shape[0], dtype=np.complex128)
    for i in range(flat.shape[0]):
        out[i] = np.fft.fft(flat[i])[idx]
    return out.reshape(samples.shape[:-1])


def masked_pair_profile(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean |IFFT| of each masked adjacent-pair difference, pair by pair."""
    profiles = []
    for a, b in zip(samples[:-1], samples[1:]):
        spectrum = np.fft.fft(a - b)
        spectrum[~mask] = 0.0
        profiles.append(np.abs(np.fft.ifft(spectrum)))
    return np.mean(profiles, axis=0)


def local_maxima_candidates(mag: np.ndarray, floor: float) -> list[int]:
    """The per-sample local-maxima comprehension."""
    return [
        k
        for k in range(1, mag.size - 1)
        if mag[k] >= floor and mag[k] >= mag[k - 1] and mag[k] > mag[k + 1]
    ]


def integrate_slots(samples: np.ndarray, i0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """The per-symbol integrate-and-dump loop."""
    levels = np.empty(i0.shape[0])
    for k in range(i0.shape[0]):
        levels[k] = float(np.mean(samples[int(i0[k]) : int(i1[k])].real))
    return levels


def bartlett_spectrum(covariance: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """The per-angle Bartlett loop over the whole grid."""
    return aoa.bartlett_window_reference(covariance, steering)


def music_spectrum(noise: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """The per-angle MUSIC loop over the whole grid."""
    return aoa.music_window_reference(noise, steering)


#: (kernel module, attribute) -> loop form; one entry per counted kernel.
ORACLE: dict[tuple[Any, str], Callable[..., Any]] = {
    (burst, "synthesize_burst"): synthesize_burst,
    (rxchain, "windowed_spectra"): windowed_spectra,
    (rxchain, "mean_abs_pair_diff"): mean_abs_pair_diff,
    (rxchain, "complex_bin_values"): complex_bin_values,
    (rxchain, "masked_pair_profile"): masked_pair_profile,
    (dsp, "local_maxima_candidates"): local_maxima_candidates,
    (dsp, "integrate_slots"): integrate_slots,
    (aoa, "bartlett_spectrum"): bartlett_spectrum,
    (aoa, "music_spectrum"): music_spectrum,
}


@contextlib.contextmanager
def reference_kernels() -> Iterator[None]:
    """Run everything inside the block on the loop-form oracle."""
    saved = {key: getattr(*key) for key in ORACLE}
    try:
        for (module, name), loop in ORACLE.items():
            setattr(module, name, loop)
        yield
    finally:
        for (module, name), shipping in saved.items():
            setattr(module, name, shipping)


def kernels_for(mode: str) -> contextlib.AbstractContextManager[None]:
    """The oracle for ``"reference"``, the shipping kernels for ``"batched"``."""
    return reference_kernels() if mode == "reference" else contextlib.nullcontext()


def both_modes(fn: Callable[[], Any]) -> dict[str, Any]:
    """``fn()`` on the shipping kernels and on the oracle, by mode name."""
    results = {}
    for mode in ("batched", "reference"):
        with kernels_for(mode):
            results[mode] = fn()
    return results
