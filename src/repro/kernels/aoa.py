"""AoA spectrum kernels: cached steering matrices, batched Bartlett/MUSIC.

The §9.2 upgrade path ("angle estimation can also be further improved if
the AP uses a phased array with a large number of elements") scans a
dense angle grid — 2401 points by default — and the original
implementation rebuilt a steering vector and ran two small matrix
products per grid point, in Python. This module batches that scan:

* :func:`steering_matrix` builds the whole ``(n_grid, n_antennas)``
  phasor matrix once and memoizes it per (grid, geometry) key, since
  both are fixed when an estimator is constructed;
* :func:`bartlett_spectrum` / :func:`music_spectrum` evaluate the whole
  spectrum as one matmul + reduction.

Tolerance contract
------------------

Unlike the burst/rxchain kernels, the spectra are **not** bitwise equal
to the per-angle loops (:func:`bartlett_window_reference` /
:func:`music_window_reference`, which the test oracle runs over the
whole grid): the loops reduce each quadratic form with BLAS
``zgemv``/``zdotc`` calls whose accumulation order differs from the
``zgemm`` + axis reduction here, so the two agree only to a few ulp —
and near MUSIC spectral peaks, where the noise-subspace projection
nearly cancels, the residual is further magnified by the cancellation's
condition number, so the suite pins a relative bound there instead (see
``docs/PERFORMANCE.md`` for both tested bounds). Three things *are*
exact, by construction:

* the steering phasors — kernel and loops share the same memoized
  matrix, whose rows are built by the scalar path the legacy per-call
  ``steering_vector`` used (``math.sin`` + ``np.exp``), never by SVML
  vector trig;
* the MUSIC denominator floor — both clamp at
  :data:`MUSIC_DENOM_FLOOR` before taking the reciprocal, so
  near-singular covariances saturate identically;
* the refinement window — the window functions recompute the spectrum
  at the few rows around the peak with the loop arithmetic, so a caller
  that interpolates the peak from those values gets a bitwise
  kernel-independent angle whenever the peak index agrees.

Eigendecomposition (:func:`noise_subspace`) is not a counted kernel:
kernel and loops run the same ``eigh`` on the same covariance, so the
noise subspace is identical and only the grid scan differs.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro import obs
from repro.kernels import count_dispatch

__all__ = [
    "MUSIC_DENOM_FLOOR",
    "bartlett_spectrum",
    "bartlett_window_reference",
    "clear_steering_cache",
    "music_spectrum",
    "music_window_reference",
    "noise_subspace",
    "steering_matrix",
    "steering_vector",
]

#: Denominator clamp applied before the MUSIC reciprocal, by the kernel
#: and the window loops alike: a noise subspace exactly orthogonal to a
#: steering vector would otherwise divide by zero. Values at or below the
#: floor saturate the pseudo-spectrum at exactly ``1 / MUSIC_DENOM_FLOOR``.
MUSIC_DENOM_FLOOR = 1e-18

#: Bounded memo of steering matrices, keyed by (grid, geometry) value.
_STEERING_CACHE_MAX = 8
_STEERING_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()


def steering_vector(
    angle_deg: float, n_antennas: int, baseline_m: float, wavelength_m: float
) -> np.ndarray:
    """ULA steering phasors toward ``angle_deg`` (scalar-math path)."""
    phase = (
        2.0
        * math.pi
        * baseline_m
        * math.sin(math.radians(angle_deg))
        / wavelength_m
    )
    return np.exp(1j * phase * np.arange(n_antennas))


def steering_matrix(
    grid_deg: np.ndarray, n_antennas: int, baseline_m: float, wavelength_m: float
) -> np.ndarray:
    """The ``(n_grid, n_antennas)`` steering matrix for a fixed scan grid.

    Rows are built by the exact scalar path of :func:`steering_vector`
    — one ``math.sin`` and one small ``np.exp`` per angle — so the
    kernels and the window loops see bitwise-identical phasors. The
    result is read-only and memoized per process: sweeps construct a
    fresh estimator per trial, but the grid and array geometry are
    value-identical across trials, so every trial after the first hits
    the cache.
    """
    key = (
        int(n_antennas),
        float(baseline_m),
        float(wavelength_m),
        grid_deg.tobytes(),
    )
    cached = _STEERING_CACHE.get(key)
    if cached is not None:
        _STEERING_CACHE.move_to_end(key)
        obs.counter("cache.hits", cache="aoa_steering").inc()
        return cached
    obs.counter("cache.misses", cache="aoa_steering").inc()
    matrix = np.stack(
        [
            steering_vector(float(angle), n_antennas, baseline_m, wavelength_m)
            for angle in grid_deg
        ]
    )
    matrix.setflags(write=False)
    _STEERING_CACHE[key] = matrix
    while len(_STEERING_CACHE) > _STEERING_CACHE_MAX:
        _STEERING_CACHE.popitem(last=False)
    return matrix


def clear_steering_cache() -> None:
    """Empty the steering-matrix memo (tests, memory pressure)."""
    _STEERING_CACHE.clear()


def noise_subspace(covariance: np.ndarray, n_sources: int = 1) -> np.ndarray:
    """Noise-subspace eigenvectors of a spatial covariance.

    ``eigh`` sorts eigenvalues ascending, so the noise subspace is
    everything below the top ``n_sources`` eigenvectors. Not a counted
    kernel: every spectrum path runs this same LAPACK call on the same
    covariance, so the subspace — and anything derived from it — starts
    identical.
    """
    _, eigenvectors = np.linalg.eigh(covariance)
    return eigenvectors[:, : covariance.shape[0] - n_sources]


def bartlett_window_reference(
    covariance: np.ndarray, steering_rows: np.ndarray
) -> np.ndarray:
    """Bartlett power at each given steering row, per-angle loop arithmetic."""
    n_antennas = steering_rows.shape[1]
    out = np.empty(steering_rows.shape[0])
    for i in range(steering_rows.shape[0]):
        a = steering_rows[i]
        out[i] = float(np.real(a.conj() @ covariance @ a)) / n_antennas**2
    return out


def music_window_reference(
    noise: np.ndarray, steering_rows: np.ndarray
) -> np.ndarray:
    """MUSIC pseudo-spectrum at each steering row, per-angle loop arithmetic."""
    out = np.empty(steering_rows.shape[0])
    for i in range(steering_rows.shape[0]):
        a = steering_rows[i]
        projection = noise.conj().T @ a
        denom = float(np.real(projection.conj() @ projection))
        out[i] = 1.0 / max(denom, MUSIC_DENOM_FLOOR)
    return out


def bartlett_spectrum(covariance: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Bartlett beamformer power over the whole scan grid.

    Projects every steering row through the covariance in one
    ``(n_grid, n) @ (n, n)`` product and reduces the quadratic form
    along the antenna axis. Same math as the per-angle loop,
    BLAS-reordered reduction — see the module docstring for the
    tolerance contract.
    """
    count_dispatch("aoa.bartlett_spectrum")
    projected = steering.conj() @ covariance
    power = np.einsum("gi,gi->g", projected, steering).real
    return power / steering.shape[1] ** 2


def music_spectrum(noise: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """MUSIC pseudo-spectrum over the whole scan grid.

    ``noise`` is the :func:`noise_subspace` of the snapshot covariance.
    Computes every projection in one ``(n_grid, n) @ (n, n_noise)``
    product and clamps the squared norms at :data:`MUSIC_DENOM_FLOOR`
    exactly as the per-angle loop's ``max(denom, floor)`` does.
    """
    count_dispatch("aoa.music_spectrum")
    projected = steering @ noise.conj()
    denom = (projected.real**2 + projected.imag**2).sum(axis=1)
    return 1.0 / np.maximum(denom, MUSIC_DENOM_FLOOR)
