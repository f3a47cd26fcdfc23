"""Frequency Scanning Antenna (FSA) model.

An FSA is a series-fed array: the feed line delays the excitation of each
successive element by a frequency-dependent phase, so the direction of
constructive combination — the beam — scans with frequency (paper §2,
Fig. 1). This module models exactly that physics:

* inter-element feed phase  ψ(f) = 2π f ℓ √ε_eff / c
* beam direction            sin θ(f) = ℓ√ε_eff/d − m·c/(f·d)
* gain pattern              element factor × array factor with an
  exponential feed-loss taper.

The paper's HFSS-simulated dual-port FSA (Fig. 10) scans ≈60° of azimuth
over 26.5–29.5 GHz with >10 dBi beams; :meth:`FsaDesign.from_scan` solves
the geometry that reproduces that dispersion, and the defaults land
within a fraction of a dB of the figure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.constants import (
    BAND_START_HZ,
    BAND_STOP_HZ,
    FSA_PEAK_GAIN_DBI,
    SPEED_OF_LIGHT,
)
from repro.errors import ConfigurationError

__all__ = ["FsaDesign", "FsaPort", "FrequencyScanningAntenna"]


@dataclass(frozen=True)
class FsaDesign:
    """Geometry and electrical parameters of a series-fed FSA.

    Attributes:
        n_elements: number of radiating elements.
        element_spacing_m: physical spacing d between elements.
        feed_length_m: meandered feed-line length ℓ between elements.
        eps_eff: effective permittivity of the feed line (sets dispersion).
        space_harmonic: the integer m in the beam equation; series-fed
            microstrip FSAs radiate on a higher-order harmonic, which is
            what compresses 60° of scan into 3 GHz.
        peak_gain_dbi: broadside-equivalent peak gain used to normalize
            the array factor (Fig. 10 shows ≈13 dBi).
        feed_loss_np_per_m: ohmic feed-line attenuation (amplitude taper).
        element_taper: "cosine" applies a raised-cosine amplitude taper
            across the elements (low sidelobes, the published design
            choice for series-fed patch FSAs); "uniform" disables it.
    """

    n_elements: int = 24
    element_spacing_m: float = 3.45e-3
    feed_length_m: float = 12.9e-3
    eps_eff: float = 6.25
    space_harmonic: int = 3
    peak_gain_dbi: float = FSA_PEAK_GAIN_DBI
    feed_loss_np_per_m: float = 1.5
    element_taper: str = "cosine"

    def __post_init__(self) -> None:
        if self.n_elements < 2:
            raise ConfigurationError("FSA needs at least two elements")
        if min(self.element_spacing_m, self.feed_length_m) <= 0:
            raise ConfigurationError("FSA geometry lengths must be positive")
        if self.eps_eff < 1.0:
            raise ConfigurationError("eps_eff must be >= 1")
        if self.space_harmonic < 1:
            raise ConfigurationError("space harmonic must be a positive integer")
        if self.element_taper not in ("uniform", "cosine"):
            raise ConfigurationError(
                f"element_taper must be 'uniform' or 'cosine', got {self.element_taper!r}"
            )

    def element_weights(self) -> "np.ndarray":
        """Amplitude weight of each element: feed-loss decay times the
        optional raised-cosine taper."""
        n = np.arange(self.n_elements)
        weights = np.exp(-self.feed_loss_np_per_m * n * self.feed_length_m)
        if self.element_taper == "cosine":
            weights = weights * (
                0.54 - 0.46 * np.cos(2.0 * np.pi * (n + 0.5) / self.n_elements)
            )
        return weights

    @classmethod
    def from_scan(
        cls,
        freq_start_hz: float = BAND_START_HZ,
        freq_stop_hz: float = BAND_STOP_HZ,
        angle_start_deg: float = -30.0,
        angle_stop_deg: float = 30.0,
        n_elements: int = 24,
        eps_eff: float = 6.25,
        space_harmonic: int = 3,
        peak_gain_dbi: float = FSA_PEAK_GAIN_DBI,
        feed_loss_np_per_m: float = 1.5,
        element_taper: str = "cosine",
    ) -> "FsaDesign":
        """Solve element spacing and feed length so the beam scans from
        ``angle_start_deg`` at ``freq_start_hz`` to ``angle_stop_deg`` at
        ``freq_stop_hz``.

        From sin θ(f) = A − B/f with A = ℓ√ε/d and B = m·c/d, two
        (frequency, angle) pairs determine A and B, hence d and ℓ.
        """
        if freq_stop_hz <= freq_start_hz:
            raise ConfigurationError("freq_stop must exceed freq_start")
        if angle_stop_deg <= angle_start_deg:
            raise ConfigurationError("angle_stop must exceed angle_start")
        s1 = math.sin(math.radians(angle_start_deg))
        s2 = math.sin(math.radians(angle_stop_deg))
        b = (s2 - s1) / (1.0 / freq_start_hz - 1.0 / freq_stop_hz)
        a = s1 + b / freq_start_hz
        spacing = space_harmonic * SPEED_OF_LIGHT / b
        feed_length = a * spacing / math.sqrt(eps_eff)
        if spacing <= 0 or feed_length <= 0:
            raise ConfigurationError(
                "requested scan has no physical series-fed solution "
                f"(d={spacing}, l={feed_length})"
            )
        return cls(
            n_elements=n_elements,
            element_spacing_m=spacing,
            feed_length_m=feed_length,
            eps_eff=eps_eff,
            space_harmonic=space_harmonic,
            peak_gain_dbi=peak_gain_dbi,
            feed_loss_np_per_m=feed_loss_np_per_m,
            element_taper=element_taper,
        )

    # --- dispersion --------------------------------------------------------

    @property
    def dispersion_intercept(self) -> float:
        """A = ℓ√ε_eff / d in sin θ(f) = A − B/f."""
        return self.feed_length_m * math.sqrt(self.eps_eff) / self.element_spacing_m

    @property
    def dispersion_slope_hz(self) -> float:
        """B = m·c/d [Hz] in sin θ(f) = A − B/f."""
        return self.space_harmonic * SPEED_OF_LIGHT / self.element_spacing_m

    def sin_beam_angle(self, frequency_hz):
        """sin of the port-A beam angle at ``frequency_hz`` (may exceed
        |1| outside the scannable band — callers must check)."""
        f = np.asarray(frequency_hz, dtype=float)
        return self.dispersion_intercept - self.dispersion_slope_hz / f

    def scan_band_hz(self) -> tuple[float, float]:
        """The frequency interval over which the beam is visible
        (|sin θ| <= 1)."""
        a, b = self.dispersion_intercept, self.dispersion_slope_hz
        f_low = b / (a + 1.0)
        f_high = b / (a - 1.0) if a > 1.0 else math.inf
        return (f_low, f_high)

    def aperture_m(self) -> float:
        """Physical aperture length [m]."""
        return self.n_elements * self.element_spacing_m


@functools.lru_cache(maxsize=32)
def _element_taper(design: FsaDesign) -> tuple[np.ndarray, np.float64, np.ndarray]:
    """``(taper column, taper sum, element index)`` of one design.

    The design is frozen, so every antenna built from an equal design
    shares these read-only arrays instead of deriving them again.
    """
    taper = design.element_weights()
    column = taper.reshape(-1, 1)
    column.setflags(write=False)
    index = np.arange(design.n_elements)
    index.setflags(write=False)
    return column, taper.sum(), index


class FsaPort:
    """Which end of the FSA the signal enters/exits."""

    A = "A"
    B = "B"


class FrequencyScanningAntenna:
    """One port of an FSA: dispersion plus the full gain pattern.

    Port A is fed from the "left" end; port B from the mirrored end, which
    reverses the progressive phase and therefore mirrors the beam:
    θ_B(f) = −θ_A(f) (paper Fig. 3).
    """

    def __init__(self, design: FsaDesign | None = None, port: str = FsaPort.A) -> None:
        if port not in (FsaPort.A, FsaPort.B):
            raise ConfigurationError(f"unknown FSA port {port!r}")
        self.design = design or FsaDesign()
        self.port = port
        self._mirror = -1.0 if port == FsaPort.B else 1.0
        self._taper_column, self._taper_sum, self._element_index = _element_taper(
            self.design
        )

    # --- dispersion --------------------------------------------------------

    def beam_angle_deg(self, frequency_hz):
        """Beam direction [deg] at ``frequency_hz``.

        Raises ConfigurationError when the frequency falls outside the
        scannable (visible-space) band.
        """
        sin_theta = self._mirror * self.design.sin_beam_angle(frequency_hz)
        if np.any(np.abs(sin_theta) > 1.0):
            raise ConfigurationError(
                "frequency outside the FSA's visible scan band "
                f"{tuple(round(f/1e9, 2) for f in self.design.scan_band_hz())} GHz"
            )
        return np.degrees(np.arcsin(sin_theta))

    def alignment_frequency_hz(self, angle_deg):
        """The frequency whose beam points at ``angle_deg`` (inverse of
        :meth:`beam_angle_deg`)."""
        sin_theta = self._mirror * np.sin(np.radians(np.asarray(angle_deg, dtype=float)))
        denom = self.design.dispersion_intercept - sin_theta
        if (denom <= 0).any():
            raise ConfigurationError("angle not reachable by this FSA design")
        return self.design.dispersion_slope_hz / denom

    def scan_rate_deg_per_hz(self, frequency_hz: float) -> float:
        """d(beam angle)/d(frequency) at ``frequency_hz`` [deg/Hz]."""
        sin_theta = self._mirror * float(self.design.sin_beam_angle(frequency_hz))
        cos_theta = math.sqrt(max(1.0 - sin_theta * sin_theta, 1e-12))
        dsin_df = self._mirror * self.design.dispersion_slope_hz / frequency_hz**2
        return math.degrees(dsin_df / cos_theta)

    # --- pattern -----------------------------------------------------------

    def gain_dbi(self, angle_deg, frequency_hz):
        """Power gain [dBi] toward ``angle_deg`` at ``frequency_hz``.

        Element factor (cos θ patch-like roll-off) × array factor with the
        feed-loss amplitude taper, normalized so the beam peak sits at
        ``design.peak_gain_dbi``.
        """
        angle = np.asarray(angle_deg, dtype=float)
        freq = np.asarray(frequency_hz, dtype=float)
        angle_b, freq_b = np.broadcast_arrays(angle, freq)
        k = 2.0 * np.pi * freq_b / SPEED_OF_LIGHT
        d_m = self.design.element_spacing_m
        # Progressive feed phase, wrapped into the m-th space harmonic.
        psi = k * d_m * self.design.sin_beam_angle(freq_b)
        # Phase seen by element n in direction θ (port B mirrors the
        # geometry, equivalent to evaluating port A at −θ).
        theta_rad = np.radians(self._mirror * angle_b)
        phase_per_element = k * d_m * np.sin(theta_rad) - psi
        # Sum over elements as one (points x elements) . (elements x 1)
        # product: the same BLAS call np.tensordot reduces to (so the
        # bits match it), without its per-call axis bookkeeping. Result
        # shape = broadcast shape.
        phases = np.multiply.outer(phase_per_element, self._element_index)
        field = np.exp(1j * phases).reshape(-1, self.design.n_elements)
        af = np.abs(np.dot(field, self._taper_column).reshape(phase_per_element.shape))
        af_norm = af / self._taper_sum
        element_factor = np.maximum(np.cos(np.radians(angle_b)), 1e-3)
        gain_linear = (
            10.0 ** (self.design.peak_gain_dbi / 10.0) * af_norm**2 * element_factor
        )
        gain_db = 10.0 * np.log10(np.maximum(gain_linear, 1e-12))
        return gain_db if gain_db.ndim else float(gain_db)

    def beamwidth_deg(self, frequency_hz: float) -> float:
        """-3 dB beamwidth at ``frequency_hz``, found numerically."""
        center = float(self.beam_angle_deg(frequency_hz))
        angles = center + np.linspace(-30.0, 30.0, 2401)
        gains = self.gain_dbi(angles, frequency_hz)
        peak = gains.max()
        above = angles[gains >= peak - 3.0]
        return float(above.max() - above.min())
