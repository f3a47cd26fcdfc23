"""The MilBack link layer: full packet exchanges (paper §7).

:class:`MilBackLink` drives the engine through the complete protocol —
Field 1 (announce + node orientation), Field 2 (localization + AP
orientation), payload (framed OAQFM data) — and reports everything a
deployment would log: location fix, orientation fixes on both sides,
CRC verdicts, link quality, and air-time accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults, obs
from repro.dsp.signal import Signal
from repro.errors import ProtocolError
from repro.node.firmware import PayloadDirection
from repro.phy.coding import (
    deinterleave,
    hamming74_decode,
    hamming74_encode,
    interleave,
)
from repro.phy.framing import decode_frame, encode_frame
from repro.phy.scrambling import descramble, scramble
from repro.protocol.events import EventLog
from repro.protocol.packet import PacketSchedule
from repro.sim.engine import (
    ApOrientationResult,
    LocalizationResult,
    MilBackSimulator,
    NodeOrientationResult,
)

__all__ = ["SessionResult", "MilBackLink"]


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one complete packet exchange."""

    direction: PayloadDirection
    payload_sent: bytes
    payload_received: bytes | None
    crc_ok: bool
    localization: LocalizationResult
    ap_orientation: ApOrientationResult
    node_orientation: NodeOrientationResult
    link_quality_db: float
    air_time_s: float

    @property
    def delivered(self) -> bool:
        """Payload arrived intact."""
        return self.crc_ok and self.payload_received == self.payload_sent


class MilBackLink:
    """One AP↔node session driver."""

    #: Interleaver depth used when FEC is enabled.
    FEC_INTERLEAVE_DEPTH = 8

    def __init__(
        self,
        sim: MilBackSimulator,
        schedule: PacketSchedule | None = None,
        log: EventLog | None = None,
        use_fec: bool = False,
        use_scrambling: bool = False,
    ) -> None:
        """``use_fec`` wraps framed payloads in Hamming(7,4) + block
        interleaving: 7/4 more air time bought back as single-error
        correction per codeword — extra range at the 8-10 m edge.
        ``use_scrambling`` whitens the frame with an x⁷+x⁴+1 LFSR so
        degenerate payloads (long runs of one value) cannot starve the
        threshold estimator or timing recovery."""
        self.sim = sim
        self.schedule = schedule or PacketSchedule()
        # Not `log or EventLog()`: an empty EventLog is falsy (__len__),
        # which would silently discard the caller's log — and its sink.
        self.log = log if log is not None else EventLog()
        self.use_fec = use_fec
        self.use_scrambling = use_scrambling
        # Mirror the simulated-time log into the wall-time trace, unless
        # the caller already routes events somewhere else.
        if not self.log.has_sink:
            obs.attach_event_log(self.log)

    # --- standalone phases --------------------------------------------------------

    @obs.traced("protocol.localize", count="protocol.localize.calls")
    def localize(self) -> LocalizationResult:
        """Run a Field-2 burst and return the AP's location fix."""
        result = self.sim.simulate_localization()
        self.log.record(
            "localization",
            distance_m=round(result.distance_est_m, 4),
            angle_deg=round(result.angle_est_deg, 2),
        )
        self.log.advance(self.schedule.field2_duration_s)
        return result

    # --- full exchanges ---------------------------------------------------------------

    def send_to_node(self, payload: bytes, bit_rate_bps: float = 2e6) -> SessionResult:
        """Downlink exchange: AP → node, full preamble + framed payload."""
        return self._run_session(PayloadDirection.DOWNLINK, payload, bit_rate_bps)

    def receive_from_node(self, payload: bytes, bit_rate_bps: float = 10e6) -> SessionResult:
        """Uplink exchange: node → AP, full preamble + framed payload."""
        return self._run_session(PayloadDirection.UPLINK, payload, bit_rate_bps)

    # --- internals -----------------------------------------------------------------------

    def _run_session(
        self,
        direction: PayloadDirection,
        payload: bytes,
        bit_rate_bps: float,
    ) -> SessionResult:
        if not payload:
            raise ProtocolError("payload must be non-empty")
        # A rate the hardware cannot run is refused before the session
        # counts, draws a fault or spends Field 1 and Field 2 on it.
        config = self.sim.node.config
        if direction is PayloadDirection.DOWNLINK:
            config.validate_downlink_rate(bit_rate_bps)
        else:
            config.validate_uplink_rate(bit_rate_bps)
        obs.counter("protocol.sessions", direction=direction.value).inc()
        with obs.span("protocol.session", direction=direction.value):
            # An armed link_drop fault kills the whole exchange up front —
            # the coarse failure mode (blocked path, lost sync) the ARQ
            # layer exists to recover from.
            if faults.link_drops(direction.value):
                obs.counter("protocol.sessions.dropped", direction=direction.value).inc()
                raise ProtocolError(
                    f"session dropped by fault injection ({direction.value})"
                )
            return self._run_session_phases(direction, payload, bit_rate_bps)

    def _run_session_phases(
        self,
        direction: PayloadDirection,
        payload: bytes,
        bit_rate_bps: float,
    ) -> SessionResult:
        start_time_s = self.log.now_s

        # Field 1: direction announcement + node-side orientation.
        with obs.span("protocol.field1"):
            announce_uplink = direction is PayloadDirection.UPLINK
            adc_a, adc_b = self.sim.simulate_field1(announce_uplink)
            decision = self.sim.node.firmware.classify_field1(adc_a, adc_b)
            if decision.direction is not direction:
                obs.counter("protocol.field1.misclassified").inc()
                raise ProtocolError(
                    f"node misclassified Field 1: announced {direction}, "
                    f"decoded {decision.direction}"
                )
            node_orientation = self._node_orientation_from_field1(adc_a, adc_b)
            self.sim.node.firmware.configure_for_localization()
            self.log.record(
                "field1",
                direction=direction.value,
                node_orientation_deg=round(node_orientation.orientation_est_deg, 2),
            )
            self.log.advance(self.schedule.field1_duration_s)

        # Field 2: AP localizes the node and senses its orientation.
        with obs.span("protocol.field2"):
            localization = self.sim.simulate_localization()
            ap_orientation = self.sim.simulate_ap_orientation()
            self.log.record(
                "field2",
                distance_m=round(localization.distance_est_m, 4),
                angle_deg=round(localization.angle_est_deg, 2),
                orientation_deg=round(ap_orientation.orientation_est_deg, 2),
            )
            self.log.advance(self.schedule.field2_duration_s)

        # Payload: the AP picks the tone pair from *its* orientation
        # estimate — estimation error costs beam gain, exactly as in the
        # real system (§9.3's "3–4° error will not impact communication").
        with obs.span("protocol.payload", direction=direction.value):
            pair = self.sim.ap.tone_pair_for_orientation(
                ap_orientation.orientation_est_deg
            )
            bits = encode_frame(payload)
            if self.use_scrambling:
                bits = scramble(bits)
            if self.use_fec:
                bits = interleave(hamming74_encode(bits), self.FEC_INTERLEAVE_DEPTH)
            self.sim.node.firmware.configure_for_payload(direction)
            if direction is PayloadDirection.DOWNLINK:
                run = self.sim.simulate_downlink(bits, bit_rate_bps, pair=pair)
                quality_db = run.sinr_db
            else:
                run = self.sim.simulate_uplink(bits, bit_rate_bps, pair=pair)
                quality_db = run.snr_db
            try:
                rx_bits = run.rx_bits
                if self.use_fec:
                    deinterleaved = deinterleave(
                        rx_bits[: bits.size], self.FEC_INTERLEAVE_DEPTH
                    )
                    # Drop the interleaver's zero padding: codewords are 7 bits.
                    whole = (deinterleaved.size // 7) * 7
                    rx_bits, _ = hamming74_decode(deinterleaved[:whole])
                if self.use_scrambling:
                    rx_bits = descramble(rx_bits[: len(bits) if not self.use_fec else rx_bits.size])
                header, received = decode_frame(rx_bits)
                crc_ok = header.crc_ok
            except ProtocolError:
                received, crc_ok = None, False
            if not crc_ok:
                obs.counter("protocol.crc_failures").inc()
            # Back to listening: the next packet's preamble must be heard.
            self.sim.node.firmware.configure_for_idle()
            payload_duration = self.schedule.payload_duration_s(bits.size, bit_rate_bps)
            self.log.record(
                "payload",
                direction=direction.value,
                bits=int(bits.size),
                quality_db=round(quality_db, 1) if not np.isnan(quality_db) else None,
                crc_ok=crc_ok,
            )
            self.log.advance(payload_duration)

        return SessionResult(
            direction=direction,
            payload_sent=payload,
            payload_received=received,
            crc_ok=crc_ok,
            localization=localization,
            ap_orientation=ap_orientation,
            node_orientation=node_orientation,
            link_quality_db=quality_db,
            air_time_s=self.log.now_s - start_time_s,
        )

    def _node_orientation_from_field1(
        self, adc_a: Signal, adc_b: Signal
    ) -> NodeOrientationResult:
        """Node orientation from the first Field-1 chirp slot.

        The downlink announcement has a silent middle slot, so only the
        first chirp is guaranteed present in both patterns.
        """
        chirp = self.sim.ap.config.field1_chirp
        fs_hz = adc_a.sample_rate_hz
        n = int(round(chirp.duration_s * fs_hz))
        first_a = Signal(adc_a.samples[:n], fs_hz, 0.0, adc_a.start_time_s)
        first_b = Signal(adc_b.samples[:n], fs_hz, 0.0, adc_b.start_time_s)
        return self.sim.node_orientation_fix(first_a, first_b, n_chirps=1)
