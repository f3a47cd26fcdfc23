"""Baseband signal container.

Simulating 28 GHz waveforms sample-by-sample would need >60 GSa/s, so the
whole stack works in the standard *equivalent complex baseband*: a signal
is a vector of complex samples at a modest sample rate plus the RF center
frequency it is referenced to. Up/downconversion then becomes bookkeeping
on ``center_frequency_hz`` and phase, which is exactly how the paper's AP
hardware (mixers + scope) treats the problem.

Voltages that are real by nature stay real: the node's envelope
detector output, the ADC codes the MCU reads and the streams its
firmware and demodulators consume are float64 from end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.errors import SignalError
from repro.utils.units import watts_to_dbm

__all__ = ["Signal"]


@dataclass
class Signal:
    """A uniformly sampled baseband signal, complex or real.

    Attributes:
        samples: sample vector (1-D). Complex input is kept as given;
            real, integer and boolean input is stored as float64.
            Transforms that multiply by a complex phasor return complex
            samples.
        sample_rate_hz: sampling rate of ``samples``.
        center_frequency_hz: RF frequency the baseband is referenced to
            (0 for a true baseband signal such as a detector output).
        start_time_s: absolute time of the first sample, so chirp segments
            and packet fields can be placed on a shared timeline.
        metadata: optional numeric annotations attached by the producing
            stage (e.g. the ADC's ``clip_fraction``). Preserved by
            :meth:`copy`; deliberately dropped by every transform, since
            an annotation about one representation rarely survives a
            resample/mix/slice.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_frequency_hz: float = 0.0
    start_time_s: float = 0.0
    metadata: "dict[str, float] | None" = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise SignalError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.iscomplexobj(self.samples):
            self.samples = self.samples.astype(np.float64, copy=False)
        if self.sample_rate_hz <= 0:
            raise SignalError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    # --- basic properties ----------------------------------------------------

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Signal duration [s]."""
        return self.samples.size / self.sample_rate_hz

    @property
    def time_axis_s(self) -> np.ndarray:
        """Absolute sample times [s]."""
        return self.start_time_s + np.arange(self.samples.size) / self.sample_rate_hz

    def mean_power_w(self) -> float:
        """Mean power assuming samples are amplitudes in sqrt(watt).

        The package-wide convention: ``|sample|^2`` is instantaneous power
        in watts, so a tone of power P has amplitude sqrt(P).
        """
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def mean_power_dbm(self) -> float:
        """Mean power in dBm."""
        return float(watts_to_dbm(self.mean_power_w()))

    def peak_power_w(self) -> float:
        """Peak instantaneous power in watts."""
        if self.samples.size == 0:
            return 0.0
        return float(np.max(np.abs(self.samples) ** 2))

    # --- transformations ------------------------------------------------------

    def copy(self) -> "Signal":
        """Deep copy (samples are duplicated, metadata is preserved)."""
        return Signal(
            self.samples.copy(),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
            metadata=None if self.metadata is None else dict(self.metadata),
        )

    def scaled(self, amplitude_gain: float) -> "Signal":
        """Scale amplitudes by ``amplitude_gain`` (power scales by its square)."""
        return Signal(
            self.samples * amplitude_gain,
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def with_gain_db(self, gain_db: float) -> "Signal":
        """Apply a power gain in dB."""
        return self.scaled(10.0 ** (gain_db / 20.0))

    def phase_shifted(self, phase_rad: float) -> "Signal":
        """Rotate all samples by a constant phase."""
        return Signal(
            self.samples * np.exp(1j * phase_rad),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def delayed(self, delay_s: float) -> "Signal":
        """Apply a pure time shift by moving ``start_time_s``.

        Sub-sample structure is preserved exactly because only the
        timestamp moves; use :meth:`resampled_onto` to align different
        signals onto one grid.
        """
        return Signal(
            self.samples.copy(),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s + delay_s,
        )

    def frequency_shifted(self, offset_hz: float) -> "Signal":
        """Multiply by exp(j 2π offset t_s): move energy within the baseband.

        ``center_frequency_hz`` is unchanged — this models an actual
        frequency offset of the content, e.g. a chirp sweeping around its
        center.
        """
        t_s = self.time_axis_s
        return Signal(
            self.samples * np.exp(2j * np.pi * offset_hz * t_s),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def retuned(self, new_center_hz: float) -> "Signal":
        """Re-reference the baseband to a different RF center frequency.

        Content at absolute frequency f, represented as offset
        ``f - old_center``, becomes offset ``f - new_center``: the samples
        are mixed by the center difference so absolute content is
        preserved.
        """
        diff_hz = self.center_frequency_hz - new_center_hz
        shifted = self.frequency_shifted(diff_hz) if diff_hz else self
        return Signal(
            shifted.samples.copy(),
            self.sample_rate_hz,
            new_center_hz,
            self.start_time_s,
        )

    def sliced(self, t_start_s: float, t_stop_s: float) -> "Signal":
        """Extract samples with absolute time in [t_start, t_stop)."""
        if t_stop_s < t_start_s:
            raise SignalError("slice end before start")
        i0 = int(np.ceil((t_start_s - self.start_time_s) * self.sample_rate_hz - 1e-9))
        i1 = int(np.ceil((t_stop_s - self.start_time_s) * self.sample_rate_hz - 1e-9))
        i0 = max(i0, 0)
        i1 = min(max(i1, i0), self.samples.size)
        return Signal(
            self.samples[i0:i1].copy(),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s + i0 / self.sample_rate_hz,
        )

    def __add__(self, other: Union["Signal", complex]) -> "Signal":
        """Superpose two signals (same grid) or add a complex constant."""
        if not isinstance(other, Signal):
            return Signal(
                self.samples + other,
                self.sample_rate_hz,
                self.center_frequency_hz,
                self.start_time_s,
            )
        self._require_same_grid(other)
        return Signal(
            self.samples + other.samples,
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def __mul__(self, other: Union["Signal", complex]) -> "Signal":
        """Pointwise multiply (mixing) or scale by a complex constant."""
        if not isinstance(other, Signal):
            return Signal(
                self.samples * other,
                self.sample_rate_hz,
                self.center_frequency_hz,
                self.start_time_s,
            )
        self._require_same_grid(other)
        return Signal(
            self.samples * other.samples,
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def conjugate(self) -> "Signal":
        """Complex conjugate of the samples."""
        return Signal(
            np.conj(self.samples),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def concatenated(self, other: "Signal") -> "Signal":
        """Append ``other`` immediately after this signal.

        The two must share sample rate and center frequency; the result's
        timeline starts at this signal's ``start_time_s``.
        """
        # Grid compatibility is exact: both values are configured, not computed.
        if other.sample_rate_hz != self.sample_rate_hz:  # milback: disable=ML003
            raise SignalError("cannot concatenate signals with different sample rates")
        if other.center_frequency_hz != self.center_frequency_hz:  # milback: disable=ML003
            raise SignalError("cannot concatenate signals with different centers")
        return Signal(
            np.concatenate([self.samples, other.samples]),
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s,
        )

    def padded(self, n_before: int = 0, n_after: int = 0) -> "Signal":
        """Zero-pad, keeping the samples' dtype; ``start_time_s`` moves
        back by the front padding."""
        if n_before < 0 or n_after < 0:
            raise SignalError("padding must be non-negative")
        dtype = self.samples.dtype
        samples = np.concatenate(
            [np.zeros(n_before, dtype), self.samples, np.zeros(n_after, dtype)]
        )
        return Signal(
            samples,
            self.sample_rate_hz,
            self.center_frequency_hz,
            self.start_time_s - n_before / self.sample_rate_hz,
        )

    # --- internals -------------------------------------------------------------

    def _require_same_grid(self, other: "Signal") -> None:
        # Configured rates combine only when bit-identical.
        if other.sample_rate_hz != self.sample_rate_hz:  # milback: disable=ML003
            raise SignalError(
                "sample-rate mismatch: "
                f"{self.sample_rate_hz} vs {other.sample_rate_hz}"
            )
        if other.samples.size != self.samples.size:
            raise SignalError(
                f"length mismatch: {self.samples.size} vs {other.samples.size}"
            )
        if abs(other.start_time_s - self.start_time_s) * self.sample_rate_hz > 1e-6:
            raise SignalError(
                "start-time mismatch: "
                f"{self.start_time_s} vs {other.start_time_s}"
            )

    @classmethod
    def silence(
        cls,
        duration_s: float,
        sample_rate_hz: float,
        center_frequency_hz: float = 0.0,
        start_time_s: float = 0.0,
    ) -> "Signal":
        """An all-zero signal of the requested duration."""
        n = int(round(duration_s * sample_rate_hz))
        return cls(
            np.zeros(n, dtype=np.complex128),
            sample_rate_hz,
            center_frequency_hz,
            start_time_s,
        )
