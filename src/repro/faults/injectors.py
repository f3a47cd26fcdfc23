"""Corruption math for each fault kind.

Every function here takes the clean value(s) for one injection site,
the *armed* :class:`~repro.faults.spec.FaultSpec` list for that site,
the plan's dedicated RNG, and a ``record(kind, count)`` callback, and
returns the (possibly) corrupted value.  Two invariants keep campaigns
deterministic and the clean path exact:

* **Fixed draw schedule** — each spec consumes the same number of RNG
  draws per call regardless of which opportunities it ends up hitting,
  so one trial's stream never depends on another fault's outcome.
* **Copy-on-arm** — array inputs are copied once before mutation, so
  cached or caller-held arrays are never corrupted in place; when no
  spec is armed the caller short-circuits and the original object flows
  through untouched.

These functions are internal to :mod:`repro.faults`; library code goes
through the hook functions on the package root (enforced by lint rule
ML011).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.faults.spec import FaultSpec

__all__ = [
    "apply_burst_faults",
    "apply_adc_input_faults",
    "apply_adc_code_faults",
    "apply_detector_faults",
    "apply_switch_toggle_faults",
    "apply_switch_reflection_faults",
    "link_session_dropped",
]

RecordFn = Callable[[str, int], None]

#: Maximum clock-skew phase progression, in cycles per chirp index, at
#: intensity 1.0.
_MAX_SKEW_CYCLES_PER_CHIRP = 0.25

#: Maximum symbol-jitter circular shift, as a fraction of the record
#: length, at intensity 1.0 (one jitter sigma).
_MAX_JITTER_FRACTION = 0.05

#: Envelope-detector gain drift span at intensity 1.0 (+/- 50%).
_DRIFT_SPAN = 0.5

#: Normalised-frequency band the interference tone is drawn from.
_INTERFERENCE_F_LO = 0.05
_INTERFERENCE_F_HI = 0.45


def apply_burst_faults(
    samples: np.ndarray,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> np.ndarray:
    """Corrupt a synthesized ``(n_chirps, n_rx, n)`` beat burst."""
    out = samples.copy()
    n_chirps, _, n = out.shape
    for spec in specs:
        if spec.kind == "chirp_drop":
            mask = rng.uniform(size=n_chirps) < spec.rate
            out[mask] *= 1.0 - spec.intensity
            record(spec.kind, int(np.count_nonzero(mask)))
        elif spec.kind == "chirp_truncation":
            mask = rng.uniform(size=n_chirps) < spec.rate
            n_cut = int(round(spec.intensity * n))
            if n_cut > 0:
                out[mask, :, n - n_cut :] = 0.0
            record(spec.kind, int(np.count_nonzero(mask)))
        elif spec.kind == "interference_burst":
            mask = rng.uniform(size=n_chirps) < spec.rate
            f_norm = rng.uniform(_INTERFERENCE_F_LO, _INTERFERENCE_F_HI, size=n_chirps)
            phase_rad = rng.uniform(0.0, 2.0 * np.pi, size=n_chirps)
            for chirp in np.flatnonzero(mask):
                rms = float(np.sqrt(np.mean(np.abs(out[chirp]) ** 2)))
                tone = np.exp(
                    1j * (2.0 * np.pi * f_norm[chirp] * np.arange(n) + phase_rad[chirp])
                )
                out[chirp] += spec.intensity * rms * tone
            record(spec.kind, int(np.count_nonzero(mask)))
        elif spec.kind == "clock_skew":
            struck = rng.uniform() < spec.rate
            sign = rng.uniform(-1.0, 1.0)
            if struck:
                skew = spec.intensity * _MAX_SKEW_CYCLES_PER_CHIRP * sign
                ramp = np.exp(2j * np.pi * skew * np.arange(n_chirps))
                out *= ramp[:, np.newaxis, np.newaxis]
                record(spec.kind, n_chirps)
        elif spec.kind == "symbol_jitter":
            mask = rng.uniform(size=n_chirps) < spec.rate
            sigma = rng.standard_normal(size=n_chirps)
            shifts = np.rint(spec.intensity * _MAX_JITTER_FRACTION * n * sigma).astype(int)
            injected = 0
            for chirp in np.flatnonzero(mask):
                if shifts[chirp] != 0:
                    out[chirp] = np.roll(out[chirp], shifts[chirp], axis=-1)
                    injected += 1
            record(spec.kind, injected)
    return out


def apply_adc_input_faults(
    values: np.ndarray,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> np.ndarray:
    """Corrupt the analog voltages entering the ADC (pre-clip)."""
    out = values
    for spec in specs:
        if spec.kind == "adc_saturation":
            struck = rng.uniform() < spec.rate
            if struck:
                out = out * (1.0 + spec.intensity)
                record(spec.kind, out.size)
    return out


def apply_adc_code_faults(
    codes: np.ndarray,
    n_bits: int,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> np.ndarray:
    """Corrupt the integer-valued quantiser codes (post-round)."""
    out = codes
    for spec in specs:
        if spec.kind == "adc_stuck_bits":
            struck = rng.uniform() < spec.rate
            n_stuck = max(1, int(round(spec.intensity * n_bits / 2)))
            positions = rng.choice(n_bits, size=min(n_stuck, n_bits), replace=False)
            if struck:
                bitmask = 0
                for position in positions:
                    bitmask |= 1 << int(position)
                stuck = out.astype(np.int64) | bitmask
                out = np.minimum(stuck, 2**n_bits - 1).astype(codes.dtype)
                record(spec.kind, out.size)
    return out


def apply_detector_faults(
    envelope_v: np.ndarray,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> np.ndarray:
    """Corrupt the envelope detector's output voltages."""
    out_v = envelope_v
    for spec in specs:
        if spec.kind == "detector_gain_drift":
            struck = rng.uniform() < spec.rate
            sign = rng.uniform(-1.0, 1.0)
            if struck:
                out_v = out_v * (1.0 + spec.intensity * _DRIFT_SPAN * sign)
                record(spec.kind, out_v.size)
    return out_v


def apply_switch_toggle_faults(
    on_amp: float,
    off_amp: float,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> tuple[float, float]:
    """Corrupt the engine's modulated on/off reflection amplitudes."""
    for spec in specs:
        if spec.kind == "switch_stuck_reflective":
            if rng.uniform() < spec.rate:
                off_amp = off_amp + spec.intensity * (on_amp - off_amp)
                record(spec.kind, 1)
        elif spec.kind == "switch_stuck_absorptive":
            if rng.uniform() < spec.rate:
                on_amp = on_amp + spec.intensity * (off_amp - on_amp)
                record(spec.kind, 1)
    return on_amp, off_amp


def apply_switch_reflection_faults(
    amplitude: float,
    reflect_amp: float,
    absorb_amp: float,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> float:
    """Corrupt a single behavioural-switch reflection amplitude."""
    for spec in specs:
        if spec.kind == "switch_stuck_reflective":
            if rng.uniform() < spec.rate:
                amplitude = amplitude + spec.intensity * (reflect_amp - amplitude)
                record(spec.kind, 1)
        elif spec.kind == "switch_stuck_absorptive":
            if rng.uniform() < spec.rate:
                amplitude = amplitude + spec.intensity * (absorb_amp - amplitude)
                record(spec.kind, 1)
    return amplitude


def link_session_dropped(
    direction: str,
    specs: Sequence[FaultSpec],
    rng: np.random.Generator,
    record: RecordFn,
) -> bool:
    """True when an armed ``link_drop`` spec kills this session."""
    dropped = False
    for spec in specs:
        if spec.kind == "link_drop":
            if rng.uniform() < spec.rate and not dropped:
                dropped = True
                record(spec.kind, 1)
    return dropped
