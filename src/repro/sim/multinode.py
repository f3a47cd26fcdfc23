"""Concurrent multi-node links over space-division multiplexing.

Paper §7: "MilBack can potentially support multiple nodes by using
spatial division multiplexing … the AP can create multiple beams towards
different nodes and establish communication links with them
concurrently." This module makes that claim quantitative for both
directions: each node is served by a beam pointed at it, and every
*other* concurrently-served node leaks into that beam.
:class:`MultiNodeUplink` attenuates the leak spatially (beam roll-off,
twice) and spectrally (tone separation versus the receiver's symbol
bandwidth); :class:`MultiNodeDownlink` attenuates each foreign beam by
the AP's TX roll-off and this node's port gain at the foreign tones.

The slots model only that: isolation, foreign-beam power and per-node
bookkeeping. Each node's link budget, the AP's uplink branches and the
node's detector step are the engine's own (:func:`link_budget`,
:func:`receive_uplink`, :func:`detect_symbols` in
:mod:`repro.sim.engine`), so from the same generator state a one-node
slot returns what the engine's uplink, or OAQFM downlink, returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.antennas.fsa import FsaPort
from repro.ap.access_point import AccessPoint
from repro.channel.scene import Scene2D
from repro.dsp.envelope import two_tone_mean_envelope
from repro.dsp.noise import thermal_noise_power_w
from repro.errors import ConfigurationError
from repro.node.node import BackscatterNode
from repro.phy.ber import measure_ber
from repro.phy.oaqfm import tone_gates
from repro.sim.calibration import Calibration, default_calibration
from repro.sim.engine import detect_symbols, link_budget, receive_uplink, uplink_gates
from repro.utils.geometry import angle_between_deg
from repro.utils.rng import RngLike, make_rng

__all__ = ["ConcurrentNodeResult", "MultiNodeUplink", "MultiNodeDownlink"]


@dataclass(frozen=True)
class ConcurrentNodeResult:
    """One node's outcome in a concurrent SDM slot."""

    node_id: str
    ber: float
    sinr_db: float
    interference_over_noise_db: float

    @property
    def delivered_error_free(self) -> bool:
        # BER is bit_errors/n: exactly 0.0 iff the error count is zero.
        return self.ber == 0.0  # milback: disable=ML003


class _ConcurrentSlot:
    """One AP serving every node of a scene on its own beam: the scene,
    the node and AP models, and one link budget per node."""

    def __init__(
        self,
        scene: Scene2D,
        node: BackscatterNode | None = None,
        ap: AccessPoint | None = None,
        calibration: Calibration | None = None,
        seed: RngLike = None,
    ) -> None:
        if len(scene.nodes) < 1:
            raise ConfigurationError("scene has no nodes")
        self.scene = scene
        self.node = node or BackscatterNode()
        self.ap = ap or AccessPoint(node_fsa=self.node.fsa)
        self.calibration = calibration or default_calibration()
        self.rng = make_rng(seed)
        self.budgets = {
            placement.node_id: link_budget(
                scene, self.node, self.ap, self.calibration, placement.node_id
            )
            for placement in scene.nodes
        }

    def _tone_pair(self, node_id: str):
        orientation = self.scene.node_orientation_deg(node_id)
        return self.node.fsa.alignment_pair(orientation)


class MultiNodeUplink(_ConcurrentSlot):
    """Simulates one concurrent uplink slot with N simultaneously served
    nodes, each with its own beam and OAQFM tone pair."""

    def spatial_isolation_db(self, served_id: str, interferer_id: str) -> float:
        """Two-way beam roll-off of the interferer inside the served
        node's beam (TX illumination + RX capture)."""
        az_served = self.scene.node_azimuth_deg(served_id)
        az_other = self.scene.node_azimuth_deg(interferer_id)
        offset = angle_between_deg(az_other, az_served)
        tx = self.ap.config.tx_horn
        rx = self.ap.config.rx_horn
        rolloff = (
            (tx.peak_gain_dbi - float(tx.gain_dbi(offset, 28e9)))
            + (rx.peak_gain_dbi - float(rx.gain_dbi(offset, 28e9)))
        )
        return rolloff

    def spectral_isolation_db(
        self, served_id: str, interferer_id: str, symbol_rate_hz: float
    ) -> float:
        """Rejection of the interferer's nearest tone by the served
        branch's mixer + symbol integrator.

        Inside the symbol bandwidth: no rejection. Outside: the boxcar
        integrator rolls off as sinc — modeled as 20·log10 of the
        normalized offset, floored at 60 dB.
        """
        served_pair = self._tone_pair(served_id)
        other_pair = self._tone_pair(interferer_id)
        min_offset = min(
            abs(fs - fo)
            for fs in (served_pair.freq_a_hz, served_pair.freq_b_hz)
            for fo in (other_pair.freq_a_hz, other_pair.freq_b_hz)
        )
        if min_offset <= symbol_rate_hz:
            return 0.0
        return float(min(20.0 * math.log10(min_offset / symbol_rate_hz), 60.0))

    def simulate_slot(
        self,
        payloads: dict[str, np.ndarray],
        bit_rate_bps: float = 10e6,
    ) -> dict[str, ConcurrentNodeResult]:
        """Serve every node in ``payloads`` concurrently for one slot.

        Every other node's port-A gate stream leaks onto both of a
        node's branches through the beam sidelobes and whatever spectral
        offset its tones have; the interference it reports is that leak
        power over the branch's thermal noise.
        """
        if not payloads:
            raise ConfigurationError("no payloads to send")
        for node_id in payloads:
            self.scene.node(node_id)  # validates existence
        bits = {
            node_id: np.asarray(list(payload), dtype=np.uint8)
            for node_id, payload in payloads.items()
        }
        # Every node's gate streams, built once (shared across beams).
        gates = {
            node_id: uplink_gates(self.node, node_bits, bit_rate_bps)
            for node_id, node_bits in bits.items()
        }
        symbol_rate_hz = bit_rate_bps / 2.0
        # Every node's branches share one sample grid, so one noise floor.
        first_id = next(iter(payloads))
        noise_power_w = thermal_noise_power_w(
            gates[first_id].samples_per_symbol * symbol_rate_hz,
            self.calibration.ap_noise_figure_db,
        )
        sqrt_tone_power = math.sqrt(self.budgets[first_id].tx_power_w() / 2.0)
        results = {}
        for node_id in payloads:
            others = [other_id for other_id in payloads if other_id != node_id]
            isolation_db = {
                other_id: self.spatial_isolation_db(node_id, other_id)
                + self.spectral_isolation_db(node_id, other_id, symbol_rate_hz)
                for other_id in others
            }
            leaks = {FsaPort.A: [], FsaPort.B: []}
            for port, port_leaks in leaks.items():
                for other_id in others:
                    gain_db = self.budgets[other_id].backscatter_gain_db(
                        port, self._tone_pair(other_id).freq_a_hz
                    )
                    leak_amp = sqrt_tone_power * 10.0 ** (
                        (gain_db - isolation_db[other_id]) / 20.0
                    )
                    port_leaks.append((leak_amp, gates[other_id].gate_a))
            interference_w = sum(
                leak_amp**2 / 2.0
                for port_leaks in leaks.values()
                for leak_amp, _ in port_leaks
            )
            run = receive_uplink(
                self.rng,
                self.budgets[node_id],
                self.ap,
                gates[node_id],
                bits[node_id],
                self._tone_pair(node_id),
                leaks,
            )
            results[node_id] = ConcurrentNodeResult(
                node_id=node_id,
                ber=run.ber,
                sinr_db=min(run.snr_a_db, run.snr_b_db),
                interference_over_noise_db=(
                    10.0 * math.log10(interference_w / noise_power_w)
                    if interference_w > 0
                    else -math.inf
                ),
            )
        return results


class MultiNodeDownlink(_ConcurrentSlot):
    """Concurrent SDM downlink: one beam per node, each carrying its own
    OAQFM tone pair.

    At a node, spectral isolation comes from its FSA, not a mixer — the
    envelope detector is frequency-blind, so any foreign tone that gets
    through the node's port pattern adds to the envelope. Foreign beams
    are attenuated by the AP's TX beam roll-off at this node's azimuth
    and by this node's port gain at the foreign tone frequency; the
    lumped interferers enter the detector envelope as a power-summed
    second component (exact for one interferer, RMS-approximate beyond).
    """

    def tx_beam_rolloff_db(self, beam_node_id: str, at_node_id: str) -> float:
        """TX beam (pointed at ``beam_node_id``) roll-off at another
        node's azimuth."""
        az_beam = self.scene.node_azimuth_deg(beam_node_id)
        az_other = self.scene.node_azimuth_deg(at_node_id)
        offset = angle_between_deg(az_other, az_beam)
        tx = self.ap.config.tx_horn
        return tx.peak_gain_dbi - float(tx.gain_dbi(offset, 28e9))

    def simulate_slot(
        self,
        payloads: dict[str, np.ndarray],
        bit_rate_bps: float = 2e6,
    ) -> dict[str, "ConcurrentNodeResult"]:
        """Send every node its own payload concurrently for one slot."""
        if not payloads:
            raise ConfigurationError("no payloads to send")
        symbol_rate_bps = bit_rate_bps / 2.0
        sqrt_tone_power = math.sqrt(
            self.budgets[next(iter(payloads))].tx_power_w() / 2.0
        )

        # Per-node symbol gates + tone pairs. Each detector input is
        # built per symbol, foreign streams cut to the shorter one.
        streams = {}
        for node_id, bits in payloads.items():
            self.scene.node(node_id)
            gate_a, gate_b = tone_gates(np.asarray(list(bits), dtype=np.uint8), 1)
            streams[node_id] = (gate_a, gate_b, self._tone_pair(node_id))

        results = {}
        for node_id, bits in payloads.items():
            gate_a, gate_b, pair = streams[node_id]
            n_symbols = gate_a.size
            budget = self.budgets[node_id]
            envelopes = []
            interference_total = 0.0
            for port, own_freq, own_gate, other_gate, other_freq in (
                (FsaPort.A, pair.freq_a_hz, gate_a, gate_b, pair.freq_b_hz),
                (FsaPort.B, pair.freq_b_hz, gate_b, gate_a, pair.freq_a_hz),
            ):
                n = own_gate.size
                own = own_gate * sqrt_tone_power * 10.0 ** (
                    budget.downlink_port_gain_db(port, own_freq) / 20.0
                )
                # Same-beam cross-tone leak (the classic OAQFM non-ideality).
                leak_power = (other_gate * sqrt_tone_power * 10.0 ** (
                    budget.downlink_port_gain_db(port, other_freq) / 20.0
                )) ** 2
                # Foreign beams: both their tones through this node's port.
                for other_id, (o_gate_a, o_gate_b, o_pair) in streams.items():
                    if other_id == node_id:
                        continue
                    rolloff = self.tx_beam_rolloff_db(other_id, node_id)
                    for o_gate, o_freq in (
                        (o_gate_a, o_pair.freq_a_hz),
                        (o_gate_b, o_pair.freq_b_hz),
                    ):
                        m = min(n, o_gate.size)
                        amp = sqrt_tone_power * 10.0 ** (
                            (budget.downlink_port_gain_db(port, o_freq) - rolloff)
                            / 20.0
                        )
                        leak_power[:m] = leak_power[:m] + (o_gate[:m] * amp) ** 2
                        interference_total += amp**2 / 2.0
                envelopes.append(two_tone_mean_envelope(own, np.sqrt(leak_power)))
            detector_a, detector_b = detect_symbols(
                self.node, self.rng, envelopes, symbol_rate_bps
            )
            decode = self.node.demodulator.decode(
                detector_a, detector_b, symbol_rate_bps, n_symbols
            )
            tx_bits = np.asarray(list(bits), dtype=np.uint8)
            padded = np.concatenate(
                [tx_bits, np.zeros(2 * n_symbols - tx_bits.size, np.uint8)]
            )
            # Reference the aggregate interference to the node's own
            # detector noise (input-referred), keeping the field's
            # semantics identical to the uplink case.
            detector = self.node.config.detector_a
            noise_ref = (
                detector.output_noise_sigma_v() / detector.responsivity_v_per_sqrt_w
            ) ** 2
            results[node_id] = ConcurrentNodeResult(
                node_id=node_id,
                ber=measure_ber(padded, decode.bits),
                sinr_db=decode.sinr_db,
                interference_over_noise_db=(
                    10.0 * math.log10(max(interference_total, 1e-300) / noise_ref)
                ),
            )
        return results
