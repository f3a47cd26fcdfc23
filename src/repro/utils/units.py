"""Unit conversions used throughout the RF stack.

All functions accept scalars or numpy arrays and return the same shape.
Power quantities follow RF conventions: dB for ratios, dBm referenced to
1 mW, dBi for antenna gain over isotropic.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "volts_to_dbv",
    "wavelength",
    "frequency_from_wavelength",
]

#: Floor used when converting zero/negative power to dB, to avoid -inf
#: surprising downstream consumers. Roughly -600 dB, far below any physical
#: noise floor in this package.
_POWER_FLOOR_W = 1e-60


def db_to_linear(db):
    """Convert a dB *power* ratio to a linear power ratio."""
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)


def linear_to_db(ratio):
    """Convert a linear *power* ratio to dB.

    Non-positive inputs are clamped to a tiny floor instead of producing
    ``-inf``/NaN, because measured powers of exactly zero occur in
    simulations (e.g. a perfectly absorbed tone).
    """
    ratio = np.asarray(ratio, dtype=float)
    return 10.0 * np.log10(np.maximum(ratio, _POWER_FLOOR_W))


def dbm_to_watts(dbm):
    """Convert power in dBm to watts."""
    return 1e-3 * db_to_linear(dbm)


def watts_to_dbm(watts):
    """Convert power in watts to dBm (clamped at a -600 dBm-ish floor)."""
    return linear_to_db(np.asarray(watts, dtype=float) / 1e-3)


def volts_to_dbv(volts):
    """Convert an RMS voltage to dBV (20 log10)."""
    volts = np.abs(np.asarray(volts, dtype=float))
    return 20.0 * np.log10(np.maximum(volts, 1e-30))


def wavelength(frequency_hz):
    """Free-space wavelength [m] for a frequency [Hz]."""
    frequency_hz = np.asarray(frequency_hz, dtype=float)
    if np.any(frequency_hz <= 0):
        raise ConfigurationError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


def frequency_from_wavelength(wavelength_m):
    """Frequency [Hz] for a free-space wavelength [m]."""
    wavelength_m = np.asarray(wavelength_m, dtype=float)
    if np.any(wavelength_m <= 0):
        raise ConfigurationError("wavelength must be positive")
    return SPEED_OF_LIGHT / wavelength_m
