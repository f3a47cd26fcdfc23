"""Concurrent multi-node uplink over space-division multiplexing.

Paper §7: "MilBack can potentially support multiple nodes by using
spatial division multiplexing … the AP can create multiple beams towards
different nodes and establish communication links with them
concurrently." This module makes that claim quantitative: each node is
served by a beam pointed at it, and every *other* concurrently-served
node leaks into that beam through its pattern sidelobes — attenuated
spatially (beam roll-off, twice) and spectrally (tone separation versus
the receiver's symbol bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.antennas.fsa import FsaPort
from repro.ap.access_point import AccessPoint
from repro.ap.uplink_rx import PILOT_SYMBOLS, pilot_bits
from repro.channel.scene import Scene2D
from repro.dsp.envelope import two_tone_mean_envelope
from repro.dsp.noise import thermal_noise_power_w
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError
from repro.node.node import BackscatterNode
from repro.phy.ber import measure_ber
from repro.phy.oaqfm import bits_to_symbols, tone_gates
from repro.sim.calibration import Calibration, default_calibration
from repro.sim.engine import detector_input_grid
from repro.sim.linkbudget import LinkBudget
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
            placement.node_id: LinkBudget(
                scene=scene,
                fsa=self.node.fsa,
                tx_horn=self.ap.config.tx_horn,
                rx_horn=self.ap.config.rx_horn,
                switch=self.node.config.switch_a,
                calibration=self.calibration,
                tx_power_dbm=self.ap.config.tx_power_dbm,
                node_id=placement.node_id,
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
        """Serve every node in ``payloads`` concurrently for one slot."""
        if not payloads:
            raise ConfigurationError("no payloads to send")
        for node_id in payloads:
            self.scene.node(node_id)  # validates existence
        symbol_rate_bps = bit_rate_bps / 2.0
        samples_per_symbol = 16
        sim_rate = samples_per_symbol * symbol_rate_bps
        eps = 10.0 ** (-self.calibration.uplink_sinr_cap_db / 20.0)
        noise_power = thermal_noise_power_w(
            sim_rate, self.calibration.ap_noise_figure_db
        )
        sqrt_tone_power = math.sqrt(
            self.budgets[next(iter(payloads))].tx_power_w() / 2.0
        )

        # Build every node's gate streams once (shared across beams).
        streams = {}
        for node_id, bits in payloads.items():
            tx_stream = np.concatenate(
                [pilot_bits(), np.asarray(list(bits), dtype=np.uint8)]
            )
            gates = self.node.modulator.gates_for_bits(
                tx_stream, bit_rate_bps, sample_rate_hz=sim_rate
            )
            streams[node_id] = (tx_stream, gates)

        n_symbols = max(g.n_symbols for _, g in streams.values())
        results = {}
        for node_id in payloads:
            results[node_id] = self._decode_one(
                node_id,
                streams,
                symbol_rate_bps,
                sim_rate,
                n_symbols,
                sqrt_tone_power,
                eps,
                noise_power,
            )
        return results

    # --- internals ---------------------------------------------------------------

    def _decode_one(
        self,
        node_id: str,
        streams: dict,
        symbol_rate: float,
        sim_rate: float,
        n_symbols: int,
        sqrt_tone_power: float,
        eps: float,
        noise_power: float,
    ) -> ConcurrentNodeResult:
        budget = self.budgets[node_id]
        pair = self._tone_pair(node_id)
        tx_stream, gates = streams[node_id]
        n = gates.gate_a.size
        interference_power_total = 0.0
        branches = {}
        for port, gate, freq in (
            (FsaPort.A, gates.gate_a, pair.freq_a_hz),
            (FsaPort.B, gates.gate_b, pair.freq_b_hz),
        ):
            amp = sqrt_tone_power * 10.0 ** (
                budget.backscatter_gain_db(port, freq) / 20.0
            )
            phase = self.rng.uniform(0.0, 2.0 * math.pi)
            mult = 1.0 + eps * np.repeat(
                self.rng.standard_normal(gates.n_symbols), gates.samples_per_symbol
            )
            samples = amp * gate * mult[:n] * np.exp(1j * phase) + 10.0 * amp

            # Every other concurrently-served node leaks in through the
            # beam sidelobes and whatever spectral offset its tones have.
            for other_id, (_, other_gates) in streams.items():
                if other_id == node_id:
                    continue
                other_budget = self.budgets[other_id]
                other_pair = self._tone_pair(other_id)
                isolation_db = self.spatial_isolation_db(node_id, other_id)
                isolation_db += self.spectral_isolation_db(
                    node_id, other_id, symbol_rate
                )
                leak_amp = sqrt_tone_power * 10.0 ** (
                    (
                        other_budget.backscatter_gain_db(port, other_pair.freq_a_hz)
                        - isolation_db
                    )
                    / 20.0
                )
                leak_phase = self.rng.uniform(0.0, 2.0 * math.pi)
                m = min(n, other_gates.gate_a.size)
                samples[:m] = samples[:m] + leak_amp * other_gates.gate_a[:m] * np.exp(
                    1j * leak_phase
                )
                interference_power_total += leak_amp**2 / 2.0

            sigma = math.sqrt(noise_power / 2.0)
            samples = samples + sigma * (
                self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
            )
            branches[port] = Signal(samples, sim_rate, 0.0, 0.0)

        decode = self.ap.uplink_rx.decode(
            branches[FsaPort.A],
            branches[FsaPort.B],
            symbol_rate,
            gates.n_symbols,
            n_pilot_symbols=len(PILOT_SYMBOLS),
        )
        data_bits = tx_stream[2 * len(PILOT_SYMBOLS) :]
        padded_tx = np.concatenate(
            [
                data_bits,
                np.zeros(decode.bits.size - data_bits.size, dtype=np.uint8),
            ]
        )
        ion_db = (
            10.0 * math.log10(interference_power_total / noise_power)
            if interference_power_total > 0
            else -math.inf
        )
        return ConcurrentNodeResult(
            node_id=node_id,
            ber=measure_ber(padded_tx, decode.bits),
            sinr_db=decode.snr_db,
            interference_over_noise_db=ion_db,
        )


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
        samples_per_symbol, sim_rate = detector_input_grid(self.node, symbol_rate_bps)
        sqrt_tone_power = math.sqrt(
            self.budgets[next(iter(payloads))].tx_power_w() / 2.0
        )

        # Per-node symbol gates + tone pairs. Every stream shares
        # samples_per_symbol and its gates are constant within a symbol,
        # so each detector input is built per symbol (foreign streams cut
        # to the shorter one in symbols) and repeated onto the sample grid.
        streams = {}
        for node_id, bits in payloads.items():
            self.scene.node(node_id)
            symbols = bits_to_symbols(np.asarray(list(bits), dtype=np.uint8))
            gate_a, gate_b = tone_gates(symbols, 1)
            streams[node_id] = (symbols, gate_a, gate_b, self._tone_pair(node_id))

        results = {}
        for node_id, bits in payloads.items():
            symbols, gate_a, gate_b, pair = streams[node_id]
            budget = self.budgets[node_id]
            detector_out = {}
            interference_total = 0.0
            for port, detector, own_freq, own_gate, other_gate, other_freq in (
                (FsaPort.A, self.node.config.detector_a, pair.freq_a_hz, gate_a,
                 gate_b, pair.freq_b_hz),
                (FsaPort.B, self.node.config.detector_b, pair.freq_b_hz, gate_b,
                 gate_a, pair.freq_a_hz),
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
                for other_id, (_, o_gate_a, o_gate_b, o_pair) in streams.items():
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
                envelope = two_tone_mean_envelope(own, np.sqrt(leak_power))
                rf = Signal(np.repeat(envelope, samples_per_symbol), sim_rate, 0.0, 0.0)
                detector_out[port] = detector.detect(rf, rng=self.rng)
            decode = self.node.demodulator.decode(
                detector_out[FsaPort.A],
                detector_out[FsaPort.B],
                symbol_rate_bps,
                len(symbols),
            )
            tx_bits = np.asarray(list(bits), dtype=np.uint8)
            padded = np.concatenate(
                [tx_bits, np.zeros(2 * len(symbols) - tx_bits.size, np.uint8)]
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
