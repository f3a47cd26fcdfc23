"""ADC models: the node MCU's ADC and the AP's oscilloscope capture.

Quantization and sample-rate limits are what force the paper's design
choices — Field 1 chirps are 2.5× slower than Field 2 chirps *because*
the MSP430's ADC samples at only 1 MHz (§8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults, obs
from repro.dsp.signal import Signal
from repro.errors import HardwareError

__all__ = ["Adc"]


@dataclass(frozen=True)
class Adc:
    """Uniform quantizing ADC with a fixed sample rate and input range."""

    sample_rate_hz: float
    n_bits: int = 12
    full_scale_v: float = 1.2

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise HardwareError("ADC sample rate must be positive")
        if not 1 <= self.n_bits <= 24:
            raise HardwareError("ADC resolution must be 1..24 bits")
        if self.full_scale_v <= 0:
            raise HardwareError("full scale must be positive")

    @property
    def lsb_v(self) -> float:
        """One quantization step [V]."""
        return self.full_scale_v / (2**self.n_bits)

    def sample_instants(self, analog: Signal) -> np.ndarray:
        """Indices of the samples of ``analog`` this ADC reads: one per
        ADC period from the first sample, each rounded to the nearest
        sample of ``analog``'s grid."""
        if analog.samples.size == 0:
            raise HardwareError("empty analog input")
        if analog.sample_rate_hz < self.sample_rate_hz:
            raise HardwareError(
                "analog waveform is sampled more coarsely than the ADC rate; "
                "generate the simulation at a finer step"
            )
        step = analog.sample_rate_hz / self.sample_rate_hz
        idx = np.round(np.arange(0, analog.samples.size, step)).astype(int)
        return idx[idx < analog.samples.size]

    def sample(self, analog: Signal) -> Signal:
        """Decimate the analog (real) waveform onto the ADC grid
        (:meth:`sample_instants`) and quantize, returning the quantized
        voltages as float64.

        Values beyond the unipolar range [0, full_scale] clip — the same
        overrange behaviour as the real converter. Overrange samples are
        counted into the ``hardware.adc.clipped_samples`` obs counter and
        the clip fraction is exposed as ``clip_fraction`` on the returned
        signal's metadata, so saturation (natural or injected) is visible
        without re-deriving it downstream.
        """
        values = analog.samples[self.sample_instants(analog)].real
        values = faults.adc_input(values)
        n_clipped = int(np.count_nonzero((values < 0.0) | (values > self.full_scale_v)))
        if n_clipped > 0:
            obs.counter("hardware.adc.clipped_samples").inc(n_clipped)
        clipped = np.clip(values, 0.0, self.full_scale_v)
        codes = np.round(clipped / self.lsb_v)
        codes = faults.adc_codes(codes, self.n_bits)
        return Signal(
            codes * self.lsb_v,
            self.sample_rate_hz,
            0.0,
            analog.start_time_s,
            metadata={"clip_fraction": n_clipped / values.size},
        )
