"""Burst synthesis kernel: all FMCW beat records in one broadcast.

The engine's ``_beat_records`` loop assembled each of the
``n_chirps × n_rx`` records separately — per chirp a trigger-jitter
phasor, a cancellation residual and a Doppler rotation, per antenna a
steering phase and a fresh noise draw. All of that is a rank-3
broadcast: the full burst is one ``(n_chirps, n_rx, n)`` expression in
which the chirp axis carries toggle state, jitter, residual and Doppler,
the antenna axis carries the steering phasor, and the sample axis
carries the tone shapes.

RNG discipline: the five-chirp background-subtraction scheme (and PR 3's
serial/parallel determinism guarantee) depends on the *order* variates
leave the trial generator. :func:`draw_variates` therefore draws in the
exact legacy order — per chirp: trigger jitter, cancellation residual,
then one complex noise vector per antenna — before the kernel touches
the arrays. The kernel and the test oracle's loop consume the same
:class:`BurstVariates`, so serial, parallel and oracle runs are bitwise
identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.kernels import count_dispatch

__all__ = [
    "BurstParams",
    "BurstVariates",  # milback: disable=ML014 — public kernel input type
    "draw_variates",
    "synthesize_burst",
]


@dataclass(frozen=True)
class BurstParams:
    """Deterministic inputs of one burst synthesis.

    ``static`` is the per-antenna static beat field ``(n_rx, n)``;
    ``node_shape`` / ``mirror_shape`` the node's FSA-shaped tone and the
    ground-plane mirror tone ``(n,)``; the remaining scalars mirror the
    engine's per-chirp loop state.
    """

    static: np.ndarray
    node_shape: np.ndarray
    mirror_shape: np.ndarray
    t: np.ndarray
    slope_hz_per_s: float
    start_hz: float
    on_amp: float
    off_amp: float
    mirror_leak: float
    rx_phase_step_rad: float
    doppler_step_rad: float
    noise_sigma: float

    @property
    def n_rx(self) -> int:
        return self.static.shape[0]

    @property
    def n(self) -> int:
        return self.static.shape[1]


@dataclass(frozen=True)
class BurstVariates:
    """Every RNG draw of one burst, in legacy draw order.

    ``tau_j_s`` is the per-chirp trigger-timing offset ``(n_chirps,)``,
    ``residuals`` the per-chirp cancellation residual ``(n_chirps, n)``,
    ``noise_white`` the unit-variance complex noise ``(n_chirps, n_rx, n)``.
    """

    tau_j_s: np.ndarray
    residuals: np.ndarray
    noise_white: np.ndarray

    @property
    def n_chirps(self) -> int:
        return self.tau_j_s.shape[0]


def draw_variates(
    rng: np.random.Generator,
    n_chirps: int,
    n_rx: int,
    n: int,
    trigger_jitter_s: float,
    residual_fn: Callable[[], np.ndarray],
) -> BurstVariates:
    """Pre-draw every burst variate in the exact legacy order.

    Legacy order per chirp: one trigger-jitter normal, the cancellation
    residual (which draws nothing when cancellation is disabled — the
    callable owns that decision), then per antenna one complex noise
    vector. Preserving this order is what keeps pre-drawn batched runs
    bitwise identical to the historical per-record loop.
    """
    tau_j = np.empty(n_chirps)
    residuals = np.empty((n_chirps, n), dtype=np.complex128)
    noise = np.empty((n_chirps, n_rx, n), dtype=np.complex128)
    for k in range(n_chirps):
        tau_j[k] = rng.normal(0.0, trigger_jitter_s)
        residuals[k] = residual_fn()
        for m in range(n_rx):
            noise[k, m] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return BurstVariates(tau_j_s=tau_j, residuals=residuals, noise_white=noise)


def _chirp_factors(params: BurstParams, n_chirps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-chirp node toggle and mirror leakage factors (reflect on even)."""
    state_on = np.arange(n_chirps) % 2 == 0
    node_factors = np.where(state_on, params.on_amp, params.off_amp)
    mirror_factors = np.where(state_on, 1.0 + params.mirror_leak, 1.0)
    return node_factors, mirror_factors


def synthesize_burst(params: BurstParams, variates: BurstVariates) -> np.ndarray:
    """One ``(n_chirps, n_rx, n)`` broadcast of the whole burst.

    Each output element runs the same multiply/add sequence as the test
    oracle's per-record loop — factors are combined in the identical
    order, so the result is bitwise equal, not merely close. Two
    transformations keep that guarantee while cutting work:

    * the jitter phasor is built as ``cos(φ) + j·sin(φ)`` written into
      the real/imag views of one preallocated array — ``exp(j·φ)``
      evaluates ``exp(real)`` with ``real = ±0.0``, i.e. exactly 1.0, so
      complex exp reduces to this sincos pair bit for bit;
    * when ``doppler_step_rad`` is exactly 0.0 every per-chirp Doppler
      factor is ``exp(0j) = 1+0j`` and the multiply is the identity, so
      it is skipped (the stationary-node case of every ranging burst) —
      and the node/mirror factors then take only two distinct values
      (toggle parity), so their shaped tones are computed once per
      parity as a ``(2, n_rx, n)`` table and accumulated through
      alternating chirp slices: element for element the same adds, on
      3/5ths less multiply work for a five-chirp burst.
    """
    count_dispatch("burst.synthesize")
    n_chirps = variates.n_chirps
    t = params.t
    tau_col_s = variates.tau_j_s[:, None]
    phi = (2.0 * math.pi) * (
        params.slope_hz_per_s * tau_col_s * t[None, :] + params.start_hz * tau_col_s
    )
    jitter = np.empty(phi.shape, dtype=np.complex128)
    np.cos(phi, out=jitter.real)
    np.sin(phi, out=jitter.imag)
    rx_phase = np.exp(1j * np.arange(params.n_rx) * params.rx_phase_step_rad)
    rx_col = rx_phase[None, :, None]
    total = params.static[None, :, :] * (1.0 + variates.residuals)[:, None, :]
    # The fast path below is only an identity when the step is *exactly*
    # zero (exp(0j) == 1+0j bit for bit); any tolerance would break the
    # bitwise contract with the per-record loop.
    if params.doppler_step_rad != 0.0:  # milback: disable=ML003
        node_factors, mirror_factors = _chirp_factors(params, n_chirps)
        chirp_col = np.exp(1j * params.doppler_step_rad * np.arange(n_chirps))[
            :, None, None
        ]
        node_term = (
            node_factors[:, None, None] * params.node_shape[None, None, :]
        ) * rx_col
        node_term *= chirp_col
        mirror_term = (
            mirror_factors[:, None, None] * params.mirror_shape[None, None, :]
        ) * rx_col
        mirror_term *= chirp_col
        total += node_term
        total += mirror_term
    else:
        parity = np.array([params.on_amp, params.off_amp])
        node_pair = (parity[:, None, None] * params.node_shape[None, None, :]) * rx_col
        parity = np.array([1.0 + params.mirror_leak, 1.0])
        mirror_pair = (
            parity[:, None, None] * params.mirror_shape[None, None, :]
        ) * rx_col
        total[0::2] += node_pair[0]
        total[1::2] += node_pair[1]
        total[0::2] += mirror_pair[0]
        total[1::2] += mirror_pair[1]
    total *= jitter[:, None, :]
    total += params.noise_sigma * variates.noise_white
    return total

