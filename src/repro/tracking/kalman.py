"""Constant-velocity Kalman tracking over MilBack localization fixes.

The paper's VR/AR motivation needs smooth trajectories, not independent
per-packet fixes. This filter fuses the AP's (range, azimuth)
measurements — converted to Cartesian with a linearized covariance —
into a constant-velocity state estimate, cutting the per-fix jitter by
roughly the classic sqrt factor while tracking real motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["TrackState", "ConstantVelocityTracker", "polar_to_cartesian_covariance"]


@dataclass(frozen=True)
class TrackState:
    """Tracker output at one update."""

    x_m: float
    y_m: float
    vx_mps: float
    vy_mps: float
    position_std_m: float

    @property
    def speed_mps(self) -> float:
        """Estimated speed."""
        return math.hypot(self.vx_mps, self.vy_mps)


def polar_to_cartesian_covariance(
    range_m: float,
    azimuth_deg: float,
    sigma_range_m: float,
    sigma_azimuth_deg: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a (range, azimuth) fix and its sigmas to Cartesian.

    Linearized (unbiased for the small angular errors MilBack produces):
    the azimuth error contributes tangentially, scaled by the range.
    """
    if range_m <= 0:
        raise ConfigurationError("range must be positive")
    azimuth = math.radians(azimuth_deg)
    position = np.array([range_m * math.cos(azimuth), range_m * math.sin(azimuth)])
    sigma_t = range_m * math.radians(sigma_azimuth_deg)
    # Rotate the diagonal (radial, tangential) covariance into x/y.
    c, s = math.cos(azimuth), math.sin(azimuth)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([sigma_range_m**2, sigma_t**2]) @ rot.T
    return position, cov


class ConstantVelocityTracker:
    """4-state (x, y, vx, vy) Kalman filter with white-acceleration noise."""

    def __init__(
        self,
        sigma_range_m: float = 0.03,
        sigma_azimuth_deg: float = 1.2,
        process_accel_mps2: float = 2.0,
    ) -> None:
        if min(sigma_range_m, sigma_azimuth_deg, process_accel_mps2) <= 0:
            raise ConfigurationError("tracker sigmas must be positive")
        self.sigma_range_m = sigma_range_m
        self.sigma_azimuth_deg = sigma_azimuth_deg
        self.process_accel_mps2 = process_accel_mps2
        self._state: np.ndarray | None = None
        self._cov: np.ndarray | None = None
        self._last_time_s: float | None = None

    def update(self, time_s: float, range_m: float, azimuth_deg: float) -> TrackState:
        """Fuse one localization fix taken at ``time_s``."""
        z, r_cov = polar_to_cartesian_covariance(
            range_m, azimuth_deg, self.sigma_range_m, self.sigma_azimuth_deg
        )
        if self._state is None:
            self._state = np.array([z[0], z[1], 0.0, 0.0])
            self._cov = np.diag([r_cov[0, 0], r_cov[1, 1], 4.0, 4.0])
            self._cov[:2, :2] = r_cov
            self._last_time_s = time_s
            return self._as_track_state()

        dt_s = time_s - self._last_time_s
        if dt_s < 0:
            raise ConfigurationError("updates must move forward in time")
        self._last_time_s = time_s

        # Predict.
        f = np.eye(4)
        f[0, 2] = f[1, 3] = dt_s
        a = self.process_accel_mps2
        q_pos = 0.25 * dt_s**4 * a**2
        q_cross = 0.5 * dt_s**3 * a**2
        q_vel = dt_s**2 * a**2
        q = np.array(
            [
                [q_pos, 0, q_cross, 0],
                [0, q_pos, 0, q_cross],
                [q_cross, 0, q_vel, 0],
                [0, q_cross, 0, q_vel],
            ]
        )
        self._state = f @ self._state
        self._cov = f @ self._cov @ f.T + q

        # Update.
        h = np.zeros((2, 4))
        h[0, 0] = h[1, 1] = 1.0
        innovation = z - h @ self._state
        s = h @ self._cov @ h.T + r_cov
        gain = self._cov @ h.T @ np.linalg.inv(s)
        self._state = self._state + gain @ innovation
        self._cov = (np.eye(4) - gain @ h) @ self._cov
        return self._as_track_state()

    def predict_position(self, time_s: float) -> tuple[float, float]:
        """Dead-reckoned position at a future time (no covariance change)."""
        if self._state is None:
            raise ConfigurationError("tracker has no state yet")
        dt_s = time_s - self._last_time_s
        return (
            float(self._state[0] + dt_s * self._state[2]),
            float(self._state[1] + dt_s * self._state[3]),
        )

    def _as_track_state(self) -> TrackState:
        return TrackState(
            x_m=float(self._state[0]),
            y_m=float(self._state[1]),
            vx_mps=float(self._state[2]),
            vy_mps=float(self._state[3]),
            position_std_m=float(math.sqrt(self._cov[0, 0] + self._cov[1, 1])),
        )
