"""Node firmware: the MCU state machine (paper §7).

During preamble Field 1 the AP announces the payload direction with the
chirp pattern: three back-to-back triangular chirps mean *uplink*, two
chirps with a silent slot between them mean *downlink* (Fig. 8). The
firmware classifies the pattern by correlating each chirp slot's
detector bursts against the first slot (robust where plain slot energy
drowns in integrated detector noise), runs the orientation estimate off
the same capture, and configures the switches for the payload phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.dsp.signal import Signal
from repro.dsp.waveforms import TriangularChirp
from repro.errors import ProtocolError
from repro.hardware.switch import SwitchState
from repro.node.config import NodeConfig

__all__ = ["PayloadDirection", "Field1Decision", "NodeFirmware"]


class PayloadDirection(enum.Enum):
    """What the payload phase will carry."""

    UPLINK = "uplink"
    DOWNLINK = "downlink"


@dataclass(frozen=True)
class Field1Decision:
    """Outcome of parsing preamble Field 1."""

    direction: PayloadDirection
    slot_energies: tuple[float, float, float]


class NodeFirmware:
    """The node's control logic around the hardware models."""

    #: Field 1 spans three chirp slots (Fig. 8).
    FIELD1_SLOTS = 3

    def __init__(self, config: NodeConfig | None = None, chirp: TriangularChirp | None = None) -> None:
        self.config = config or NodeConfig()
        self.chirp = chirp or TriangularChirp()

    def classify_field1(self, adc_a: Signal, adc_b: Signal) -> Field1Decision:
        """Decide uplink vs downlink from the Field-1 detector capture.

        Every active slot carries the *same* chirp, so its detector
        bursts land at the same in-slot positions: correlating each slot
        against the first separates "chirp present" from "noise only"
        far more robustly than raw energy, which detector noise
        integrated over 45 µs can rival at long range. The middle slot
        correlating like the last one means three consecutive chirps
        (uplink); a dead middle slot means the two-chirps-with-gap
        downlink announcement.
        """
        slots_a, slots_b = self._port_slots(adc_a, adc_b)
        combined = slots_a + slots_b
        slots = combined - np.median(combined, axis=-1, keepdims=True)
        energies = self._burst_energies(slots_a) + self._burst_energies(slots_b)
        # Both patterns have chirps in the first and last slots; a frame
        # missing either is not a MilBack preamble.
        if energies[0] < 0.05 * energies.max() or energies[2] < 0.05 * energies.max():
            raise ProtocolError(
                "Field 1 malformed: first/last chirp slots carry no bursts"
            )
        # Inner products against the first slot's burst shape.
        corr_mid = float(np.dot(slots[1], slots[0]))
        corr_last = float(np.dot(slots[2], slots[0]))
        if corr_last <= 0:
            raise ProtocolError(
                "Field 1 malformed: first/last chirp slots do not correlate"
            )
        active_mid = corr_mid > 0.3 * corr_last
        direction = (
            PayloadDirection.UPLINK if active_mid else PayloadDirection.DOWNLINK
        )
        return Field1Decision(direction, tuple(float(e) for e in energies))

    def configure_for_payload(self, direction: PayloadDirection) -> None:
        """Set the switches for the payload phase.

        Downlink: both ports absorb into the detectors. Uplink: the
        modulator will toggle them; park them reflective so the first
        symbol edge is well-defined.
        """
        if direction is PayloadDirection.DOWNLINK:
            self.config.switch_a.set_state(SwitchState.ABSORB)
            self.config.switch_b.set_state(SwitchState.ABSORB)
        else:
            self.config.switch_a.set_state(SwitchState.REFLECT)
            self.config.switch_b.set_state(SwitchState.REFLECT)

    def configure_for_localization(self) -> None:
        """Field 2: the node toggles; park absorptive as the initial state."""
        self.config.switch_a.set_state(SwitchState.ABSORB)
        self.config.switch_b.set_state(SwitchState.ABSORB)

    def configure_for_idle(self) -> None:
        """Between packets the node listens: both ports into the
        detectors, so the next preamble is heard. (Leaving a port
        shorted after an uplink burst would deafen the node.)"""
        self.config.switch_a.set_state(SwitchState.ABSORB)
        self.config.switch_b.set_state(SwitchState.ABSORB)

    # --- internals -----------------------------------------------------------------

    def _port_slots(self, adc_a: Signal, adc_b: Signal) -> tuple[np.ndarray, np.ndarray]:
        """Each port's capture viewed as one ``(slots, slot_samples)`` row
        per Field-1 chirp slot."""
        fs_hz = adc_a.sample_rate_hz
        # Both ports sample on one MCU clock; the grids must match exactly.
        if adc_b.sample_rate_hz != fs_hz:  # milback: disable=ML003
            raise ProtocolError("port ADC streams have different rates")
        slot_samples = int(round(self.chirp.duration_s * fs_hz))
        needed = self.FIELD1_SLOTS * slot_samples
        if adc_a.samples.size < needed or adc_b.samples.size < needed:
            raise ProtocolError(f"Field 1 capture too short: need {needed} samples")
        shape = (self.FIELD1_SLOTS, slot_samples)
        return (
            adc_a.samples[:needed].real.reshape(shape),
            adc_b.samples[:needed].real.reshape(shape),
        )

    @staticmethod
    def _burst_energies(slots: np.ndarray) -> np.ndarray:
        """Per slot, the energy of samples decisively above the slot's own
        noise floor.

        The detector noise accumulated over a 45 µs slot rivals the
        energy of the brief beam-crossing bursts, so plain energy sums
        cannot tell a silent slot from an active one. Gating at
        median + 5·MAD keeps only burst samples: a noise-only slot
        contributes ~nothing (the firmware equivalent is a comparator
        threshold set from a quiet reference).
        """
        baselines = np.median(slots, axis=-1, keepdims=True)
        mads = np.median(np.abs(slots - baselines), axis=-1, keepdims=True)
        thresholds = baselines + 5.0 * np.maximum(mads, 1e-12)
        # Each slot's burst samples are summed as one array of their own,
        # so the pairwise sum groups them as a per-slot loop does.
        return np.array([
            np.sum((row[row > threshold] - baseline) ** 2)
            for row, threshold, baseline in zip(slots, thresholds[:, 0], baselines[:, 0])
        ])
