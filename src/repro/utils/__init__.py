"""Shared utilities: unit conversions, geometry, statistics and RNG plumbing."""

from repro.utils.units import (
    db_to_linear,
    linear_to_db,
    dbm_to_watts,
    watts_to_dbm,
    volts_to_dbv,
    wavelength,
    frequency_from_wavelength,
)
from repro.utils.geometry import (
    Pose2D,
    Point2D,
    deg_to_rad,
    rad_to_deg,
    wrap_angle_rad,
    wrap_angle_deg,
    angle_between_deg,
)
from repro.utils.stats import (
    RunningStats,
    empirical_cdf,
    percentile,
    summarize_errors,
    ErrorSummary,
)
from repro.utils.rng import make_rng, spawn_rngs

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "volts_to_dbv",
    "wavelength",
    "frequency_from_wavelength",
    "Pose2D",
    "Point2D",
    "deg_to_rad",
    "rad_to_deg",
    "wrap_angle_rad",
    "wrap_angle_deg",
    "angle_between_deg",
    "RunningStats",
    "empirical_cdf",
    "percentile",
    "summarize_errors",
    "ErrorSummary",
    "make_rng",
    "spawn_rngs",
]
