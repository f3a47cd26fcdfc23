"""DSP primitive kernels: peak candidates and symbol-slot integration.

Two Python-level scans survive in the demodulation path: the O(N) local-
maxima comprehension in :func:`repro.dsp.fftutils.find_peaks_above` and
the per-symbol integrate-and-dump loop in
:func:`repro.dsp.modulation.symbol_integrate`. Both are array
operations: local maxima are one boolean mask over shifted views, and
symbol integration is a gather of precomputed index windows reduced
along the last axis.

Bitwise note on symbol integration: ``np.add.reduceat`` was considered
and rejected — reduceat accumulates strictly left to right, while
``np.mean`` uses pairwise summation, so their results differ in the last
ulps. Gathering each slot into a row and reducing with ``mean(axis=-1)``
runs NumPy's pairwise reduction over exactly the same values, stride
pattern and order as the per-slot loop it replaced, so the two stay
bitwise identical. Slots whose rounded windows differ in length (the
sample grid rarely divides the symbol grid) are grouped by length, one
gather per distinct length.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.kernels import count_dispatch

__all__ = [
    "integrate_slots",
    "local_maxima_candidates",
    "slot_bounds",
]


def local_maxima_candidates(mag: np.ndarray, floor: float) -> list[int]:
    """Interior indices that are local maxima at/above ``floor``.

    Matches the per-sample comprehension it replaced exactly: ``>=``
    toward the left neighbour, strict ``>`` toward the right, so
    plateaus resolve to their rightmost sample.
    """
    count_dispatch("dsp.local_maxima_candidates")
    interior = mag[1:-1]
    keep = (interior >= floor) & (interior >= mag[:-2]) & (interior > mag[2:])
    return [int(k) for k in np.nonzero(keep)[0] + 1]


def slot_bounds(
    n_samples: int,
    sample_rate_hz: float,
    start_time_s: float,
    t_first_symbol_s: float,
    symbol_duration_s: float,
    guard_s: float,
    n_symbols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped [i0, i1) sample windows of every symbol slot.

    Vectorized form of the per-symbol arithmetic; the rounding runs the
    identical float expression per slot, so the bounds match a loop
    exactly. Raises :class:`DecodingError` for the first slot that falls
    outside the captured signal, like a per-symbol loop would.
    """
    ks = np.arange(n_symbols)
    a_s = t_first_symbol_s + ks * symbol_duration_s + guard_s
    b_s = t_first_symbol_s + (ks + 1) * symbol_duration_s - guard_s
    i0 = np.round((a_s - start_time_s) * sample_rate_hz).astype(np.int64)
    i1 = np.round((b_s - start_time_s) * sample_rate_hz).astype(np.int64)
    i0 = np.maximum(i0, 0)
    i1 = np.minimum(i1, n_samples)
    empty = np.nonzero(i1 <= i0)[0]
    if empty.size:
        k = int(empty[0])
        raise DecodingError(
            f"symbol {k} falls outside the captured signal "
            f"(need samples [{i0[k]}, {i1[k]}) of {n_samples})"
        )
    return i0, i1


def integrate_slots(
    samples: np.ndarray, i0: np.ndarray, i1: np.ndarray
) -> np.ndarray:
    """Mean of ``samples.real`` over each ``[i0[k], i1[k])`` window."""
    count_dispatch("dsp.integrate_slots")
    levels = np.empty(i0.shape[0])
    lengths = i1 - i0
    for length in np.unique(lengths):
        rows = np.nonzero(lengths == length)[0]
        gather = samples[i0[rows][:, None] + np.arange(length)[None, :]]
        levels[rows] = gather.real.mean(axis=-1)
    return levels
