"""Envelope (power) detector model — ADL6010-class (paper §8).

The ADL6010 is a *linear-responding* envelope detector: its output
voltage is proportional to the input RF **amplitude** (not power) over
its useful range, with a 50 Ω matched input — which is what makes the
FSA port absorb when routed here. The behavioural model keeps the three
properties MilBack depends on:

* linear amplitude response with a responsivity constant;
* a first-order video output filter whose bandwidth sets the rise/fall
  time (this is the 36 Mbps downlink ceiling, §9.4);
* additive output noise with a flat density (thermal + detector shot
  noise, lumped), which sets the node's downlink sensitivity.

The output is a real video voltage, so the model runs on float64 from
the input magnitude on: both first-order filter passes and the noise
(one ``standard_normal`` call per detection) are real arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.dsp.filters import single_pole_lowpass
from repro.dsp.signal import Signal
from repro.errors import HardwareError
from repro.hardware.power import ComponentPower, NodeMode
from repro.utils.rng import RngLike, make_rng

__all__ = ["EnvelopeDetector"]


@dataclass
class EnvelopeDetector:
    """Behavioural linear envelope detector.

    Attributes:
        responsivity_v_per_sqrt_w: output volts per sqrt(input watt);
            with the package convention |sample| = sqrt(P), the output is
            simply responsivity × |v_in|.
        video_bandwidth_hz: first-order output filter bandwidth. The
            default 40 MHz supports the paper's 36 Mbps downlink and
            gives t_rise ≈ 0.35/BW ≈ 8.8 ns.
        output_noise_v_per_rt_hz: flat output noise density.
        input_impedance_ohm: matched to the FSA port (50 Ω), making the
            absorb branch reflectionless.
        power_draw_w: bias draw (always on while the node listens).
    """

    responsivity_v_per_sqrt_w: float = 2.0
    video_bandwidth_hz: float = 40e6
    output_noise_v_per_rt_hz: float = 213e-9
    input_impedance_ohm: float = 50.0
    power_draw_w: float = 8.0e-3

    def __post_init__(self) -> None:
        if self.responsivity_v_per_sqrt_w <= 0:
            raise HardwareError("responsivity must be positive")
        if self.video_bandwidth_hz <= 0:
            raise HardwareError("video bandwidth must be positive")
        if self.output_noise_v_per_rt_hz < 0:
            raise HardwareError("noise density must be non-negative")

    def rise_time_s(self) -> float:
        """10–90% rise time of the video output."""
        return 0.35 / self.video_bandwidth_hz

    #: Fraction of the video bandwidth usable as symbol rate once both the
    #: rise and the fall must settle within a symbol. 0.45 reproduces the
    #: paper's measured 36 Mbps OAQFM ceiling at 40 MHz video bandwidth.
    SETTLING_FACTOR = 0.45

    def max_symbol_rate_hz(self) -> float:
        """Fastest symbol rate whose levels settle at the output."""
        return self.SETTLING_FACTOR * self.video_bandwidth_hz

    def max_bit_rate_bps(self, bits_per_symbol: int = 2) -> float:
        """Downlink bit-rate ceiling (2 bits/symbol under OAQFM).

        2 × 0.45 × 40 MHz = 36 Mbps — the paper's detector-limited
        maximum (§9.4).
        """
        if bits_per_symbol < 1:
            raise HardwareError("bits_per_symbol must be >= 1")
        return bits_per_symbol * self.max_symbol_rate_hz()

    def output_noise_sigma_v(self) -> float:
        """RMS output noise over the video bandwidth [V]."""
        return self.output_noise_v_per_rt_hz * math.sqrt(self.video_bandwidth_hz)

    def detect(self, rf_input: Signal, rng: RngLike = None) -> Signal:
        """Convert an RF signal into the detector's video output voltage.

        Output = responsivity × |v_in|, low-pass filtered by the video
        bandwidth, plus output-referred Gaussian noise filtered the same
        way. The chain runs on float64 from the magnitude on, and the
        result is a real :class:`Signal` in volts.
        """
        if rf_input.samples.size == 0:
            raise HardwareError("empty RF input")
        fs_hz = rf_input.sample_rate_hz
        envelope_v = self.responsivity_v_per_sqrt_w * np.abs(rf_input.samples)
        envelope_v = faults.detector_output(envelope_v)
        filtered = single_pole_lowpass(
            Signal(envelope_v, fs_hz, 0.0, rf_input.start_time_s),
            self.video_bandwidth_hz,
        )
        rng = make_rng(rng)
        # White noise sampled at fs_hz, then band-limited the same way the
        # signal is, so the in-band density equals the spec value.
        raw_sigma = self.output_noise_v_per_rt_hz * math.sqrt(fs_hz / 2.0)
        noise = Signal(
            raw_sigma * rng.standard_normal(len(filtered)),
            fs_hz,
            0.0,
            filtered.start_time_s,
        )
        return filtered + single_pole_lowpass(noise, self.video_bandwidth_hz)

    def output_voltage_for_power(self, input_power_w: float) -> float:
        """Steady-state output for a CW input of the given power."""
        if input_power_w < 0:
            raise HardwareError("power must be non-negative")
        return self.responsivity_v_per_sqrt_w * math.sqrt(input_power_w)

    def power_model(self) -> ComponentPower:
        """Per-mode power entry: the detector is biased whenever the node
        is awake (it is the node's only receiver)."""
        return ComponentPower(
            name="envelope-detector",
            draw_w={
                NodeMode.IDLE: self.power_draw_w,
                NodeMode.LOCALIZATION: self.power_draw_w,
                NodeMode.DOWNLINK: self.power_draw_w,
                NodeMode.UPLINK: self.power_draw_w,
            },
        )
