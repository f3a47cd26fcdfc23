"""Bit-error-rate theory and measurement.

The paper annotates its SNR curves with BER levels (Figs. 14, 15). Those
annotations are consistent with the matched-filter on-off-keying bound
BER = Q(√(2·SNR)) — e.g. 12 dB ↔ 1e-8 (Fig. 14) — so that is the
"theory" curve here, alongside the noncoherent envelope-detection bound
for comparison, and a Monte-Carlo counter for measured links.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import ConfigurationError

__all__ = [
    "FloatOrArray",  # milback: disable=ML014 — public result type
    "q_function",
    "ook_matched_filter_ber",
    "ook_noncoherent_ber",
    "snr_for_target_ber",
    "measure_ber",
]


#: Scalar-in → scalar-out, array-in → array-out.
FloatOrArray = Union[float, NDArray[np.float64]]


#: ``math.erfc`` per element; NumPy has no erfc ufunc, and SciPy's
#: differs from it by tens of ulp.
_erfc = np.vectorize(math.erfc, otypes=[float])


def q_function(x: ArrayLike) -> FloatOrArray:
    """Gaussian tail probability Q(x)."""
    if not isinstance(x, float):
        arr = np.asarray(x, dtype=float)
        if arr.ndim:
            result: NDArray[np.float64] = 0.5 * _erfc(arr / math.sqrt(2.0))
            return result
        x = float(arr)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ook_matched_filter_ber(snr_db: ArrayLike) -> FloatOrArray:
    """Matched-filter OOK with optimal threshold: BER = Q(√(2·SNR)).

    SNR is the post-integration symbol SNR. This mapping reproduces the
    paper's annotations: 12 dB → ~1e-8, 8 dB → ~2e-4.

    A Python or NumPy float (or an int) takes a scalar path with no 0-d
    arrays, bit for bit the array path: the dB conversion stays NumPy's
    ``power``, which differs from Python's ``**`` in the last bit on
    some hosts, and the square root is correctly rounded either way.
    """
    if isinstance(snr_db, (float, int)):
        return q_function(math.sqrt(2.0 * float(np.power(10.0, snr_db / 10.0))))
    snr = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0)
    return q_function(np.sqrt(2.0 * snr))


def ook_noncoherent_ber(snr_db: ArrayLike) -> FloatOrArray:
    """Noncoherent envelope-detected OOK bound: BER ≈ ½·exp(−SNR/2)."""
    snr = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0)
    result = 0.5 * np.exp(-snr / 2.0)
    return result if result.ndim else float(result)


def snr_for_target_ber(target_ber: float) -> float:
    """Invert :func:`ook_matched_filter_ber`: SNR [dB] achieving the
    target BER. Bisection over a generous range."""
    if not 0.0 < target_ber < 0.5:
        raise ConfigurationError("target BER must be in (0, 0.5)")
    lo, hi = -30.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if ook_matched_filter_ber(mid) > target_ber:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def measure_ber(tx_bits: Sequence[int], rx_bits: Sequence[int]) -> float:
    """Fraction of differing bits (lengths must match)."""
    tx = np.asarray(tx_bits, dtype=np.uint8)
    rx = np.asarray(rx_bits, dtype=np.uint8)
    if tx.size != rx.size:
        raise ConfigurationError(
            f"bit streams differ in length: {tx.size} vs {rx.size}"
        )
    if tx.size == 0:
        raise ConfigurationError("empty bit streams")
    return float(np.count_nonzero(tx != rx)) / tx.size
