"""Free-space propagation and link budgets at mmWave.

Everything the paper's ranges and SNRs rest on: the Friis equation for
the one-way downlink, a double-Friis backscatter budget for the uplink,
and the radar equation for environmental clutter.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ChannelError

__all__ = [
    "free_space_path_loss_db",
    "propagation_delay_s",
    "propagation_phase_rad",
    "friis_received_power_dbm",
    "backscatter_received_power_dbm",
    "clutter_received_power_dbm",
    "complex_path_gain",
]


def free_space_path_loss_db(distance_m, frequency_hz):
    """One-way free-space path loss 20 log10(4π d f / c) [dB]."""
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    if (d <= 0).any():
        raise ChannelError("distance must be positive")
    if (f <= 0).any():
        raise ChannelError("frequency must be positive")
    loss = 20.0 * np.log10(4.0 * np.pi * d * f / SPEED_OF_LIGHT)
    return loss if loss.ndim else float(loss)


def propagation_delay_s(distance_m: float) -> float:
    """One-way propagation delay d/c [s]."""
    if distance_m < 0:
        raise ChannelError("distance must be non-negative")
    return distance_m / SPEED_OF_LIGHT


def propagation_phase_rad(distance_m: float, frequency_hz: float) -> float:
    """Carrier phase accumulated over ``distance_m`` (−2π d / λ)."""
    lam = SPEED_OF_LIGHT / frequency_hz
    return -2.0 * math.pi * distance_m / lam


def friis_received_power_dbm(
    tx_power_dbm: float,
    tx_gain_dbi: float,
    rx_gain_dbi: float,
    distance_m: float,
    frequency_hz: float,
    extra_loss_db: float = 0.0,
) -> float:
    """One-way Friis link budget [dBm]."""
    return (
        tx_power_dbm
        + tx_gain_dbi
        + rx_gain_dbi
        - float(free_space_path_loss_db(distance_m, frequency_hz))
        - extra_loss_db
    )


def backscatter_received_power_dbm(
    tx_power_dbm: float,
    ap_tx_gain_dbi: float,
    ap_rx_gain_dbi: float,
    node_gain_in_dbi: float,
    node_gain_out_dbi: float,
    distance_m: float,
    frequency_hz: float,
    modulation_loss_db: float = 0.0,
    extra_loss_db: float = 0.0,
) -> float:
    """Two-way backscatter budget: AP → node → AP [dBm].

    The node's antenna gain counts twice (capture and re-radiation), and
    the path loss counts twice — the 1/d⁴ law behind the uplink's faster
    roll-off versus downlink (paper §9.5).
    """
    fspl = float(free_space_path_loss_db(distance_m, frequency_hz))
    return (
        tx_power_dbm
        + ap_tx_gain_dbi
        + node_gain_in_dbi
        + node_gain_out_dbi
        + ap_rx_gain_dbi
        - 2.0 * fspl
        - modulation_loss_db
        - extra_loss_db
    )


def clutter_received_power_dbm(
    tx_power_dbm: float,
    tx_gain_dbi: float,
    rx_gain_dbi: float,
    distance_m: float,
    frequency_hz: float,
    rcs_dbsm: float,
) -> float:
    """Radar-equation return from an environmental reflector [dBm].

    Pr = Pt Gt Gr λ² σ / ((4π)³ d⁴) — walls and furniture returns that the
    AP's background subtraction must cancel.
    """
    if distance_m <= 0:
        raise ChannelError("distance must be positive")
    lam = SPEED_OF_LIGHT / frequency_hz
    fixed_db = (
        tx_power_dbm
        + tx_gain_dbi
        + rx_gain_dbi
        + 20.0 * math.log10(lam)
        + rcs_dbsm
        - 30.0 * math.log10(4.0 * math.pi)
        - 40.0 * math.log10(distance_m)
    )
    return fixed_db


def complex_path_gain(
    gain_db: float,
    distance_m: float,
    frequency_hz: float,
) -> complex:
    """Amplitude+phase factor for one propagation path.

    ``gain_db`` is the total power gain of the path (antennas − losses −
    path loss); the phase is the carrier phase over the path length.
    """
    amplitude = 10.0 ** (gain_db / 20.0)
    return amplitude * np.exp(1j * propagation_phase_rad(distance_m, frequency_hz))
