"""Fleet actors: nodes, access points, and the processes between them.

The actors drive the *existing* protocol machinery over the event
kernel. :class:`InventoryProcess` runs the protocol's own frame
function, :func:`repro.protocol.inventory.inventory_frame`, and its
Q-adaptation rule, frame by frame on the simulated clock. It hears a
tag only when the link budget clears both detection floors (an
out-of-range tag draws its slot and goes unheard), gating every pending
tag of a frame with one link-model batch, and it builds the
:class:`repro.protocol.mac.SdmScheduler` over the pending tags' current
poses. With all tags in range and the default frame cap, its result is
*equal* to ``SlottedInventory.run()`` on the same scene and seed; tests
pin that.

:class:`FleetLink` duck-types the one-link interface
:class:`repro.protocol.arq.ReliableChannel` consumes, so the stock
stop-and-wait ARQ runs unmodified over fleet-scale link budgets: packet
success is a Bernoulli draw from the *node's own* RNG stream against
``(1 - BER)**bits``, with BER from the same OOK matched-filter bound
the physical layer uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from repro import obs
from repro.channel.mobility import WaypointTrajectory
from repro.channel.scene import NodePlacement, Scene2D
from repro.errors import NetworkSimError, ProtocolError
from repro.node.firmware import PayloadDirection
from repro.phy.ber import ook_matched_filter_ber
from repro.protocol.arq import ReliableChannel, RetryBackoff, TransferResult
from repro.protocol.inventory import (
    InventoryResult,
    InventoryRound,
    inventory_frame,
    next_frame_size,
)
from repro.protocol.mac import SdmScheduler
from repro.utils.geometry import Pose2D

from repro.netsim.core import NetworkSimulation
from repro.netsim.linkmodel import FleetLinkModel, LinkObservation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.netsim.roaming import RoamingController

__all__ = [
    "InterferenceField",
    "FleetNode",
    "FleetAp",
    "FleetLink",
    "InventoryProcess",
    "TransferProcess",
]

#: Preamble + header + CRC overhead added to every frame on the air.
FRAME_OVERHEAD_BITS = 64

#: Minimum node-side SNR for the downlink preamble to be detectable.
MIN_DOWNLINK_SNR_DB = 6.0

#: Minimum AP-side SINR for a backscatter reply to be detectable.
MIN_UPLINK_SINR_DB = 0.0

#: Retry pacing of every fleet transfer (frozen, so one is shared).
TRANSFER_BACKOFF = RetryBackoff.fixed(100e-6)


class InterferenceField(Protocol):
    """Interference [dBm] at one AP's receiver over node poses: one row
    per pose, one column per other AP
    (:meth:`repro.netsim.roaming.RoamingController.interference_for`)."""

    def __call__(self, node_poses: Sequence[Pose2D], /) -> np.ndarray: ...


@dataclass
class FleetNode:
    """One backscatter tag in the fleet.

    ``rng`` is the node's private stream (derived per entity index via
    :func:`repro.utils.rng.indexed_rngs`), so its draws are independent
    of every other node and of scheduling order.
    """

    node_id: str
    index: int
    pose: Pose2D
    rng: np.random.Generator
    trajectory: WaypointTrajectory | None = None
    serving_ap: str | None = None

    def pose_at(self, time_s: float) -> Pose2D:
        """The node's pose at simulated time ``time_s``."""
        if self.trajectory is not None:
            return self.trajectory.pose_at(time_s)
        return self.pose


@dataclass
class FleetAp:
    """One access point: a pose plus the nodes it currently serves."""

    ap_id: str
    pose: Pose2D
    members: list[str] = field(default_factory=list)


class FleetLink:
    """One (AP, node) link at budget fidelity, duck-typing ``MilBackLink``.

    :class:`repro.protocol.arq.ReliableChannel` only needs
    ``send_to_node`` / ``receive_from_node`` returning reports with
    ``air_time_s`` and ``delivered``, raising :class:`ProtocolError`
    when the far side never responds. The link is evaluated once per
    simulated instant: the first frame at a clock reading takes the
    node's pose and its :class:`LinkObservation`, the first uplink frame
    that clears the downlink floor adds the interference field and the
    SINR at that pose, and every later frame, ACK and retry at the same
    reading reuses them. A frame after the clock has moved evaluates
    again. :class:`TransferProcess` runs a whole ``send_reliable`` inside
    one event, and the retry backoff only adds to the transfer's
    wait-time total, so a transfer evaluates its link once: every
    attempt and every ACK sees the pose the node had when the transfer
    started, and each frame still makes its own delivery draw. A node
    out of range at that instant fails every attempt, like the protocol
    layer's out-of-range sessions.
    """

    def __init__(
        self,
        sim: NetworkSimulation,
        model: FleetLinkModel,
        ap: FleetAp,
        node: FleetNode,
        interference_dbm: InterferenceField | None = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.ap = ap
        self.node = node
        self._interference_dbm = interference_dbm
        # The memo of one instant: the clock reading it was taken at, the
        # node's pose, its observation and, once an uplink frame asks,
        # its SINR.
        self._memo_s: float | None = None
        self._pose = node.pose
        self._observation: LinkObservation | None = None
        self._sinr_db: float | None = None

    def _observe(self) -> LinkObservation:
        now_s = self.sim.now_s
        # An exact clock compare: the memo holds for one instant only.
        if self._observation is None or now_s != self._memo_s:  # milback: disable=ML003
            pose = self.node.pose_at(now_s)
            self._observation = self.model.observe(self.ap.pose, pose)
            self._pose = pose
            self._sinr_db = None
            self._memo_s = now_s
        return self._observation

    def _uplink_sinr_db(self, observation: LinkObservation) -> float:
        if self._sinr_db is None:
            interference: list[float] = []
            if self._interference_dbm is not None:
                (interference,) = self._interference_dbm([self._pose]).tolist()
            self._sinr_db = self.model.uplink_sinr_db(observation.rss_dbm, interference)
        return self._sinr_db

    def _deliver(self, payload: bytes, bit_rate_bps: float, snr_db: float):
        if bit_rate_bps <= 0:
            raise NetworkSimError("bit rate must be positive")
        bits = len(payload) * 8 + FRAME_OVERHEAD_BITS
        air_time_s = bits / bit_rate_bps
        ber = ook_matched_filter_ber(snr_db)
        success_probability = (1.0 - ber) ** bits
        delivered = bool(self.node.rng.random() < success_probability)
        return _DeliveryReport(air_time_s=air_time_s, delivered=delivered)

    def send_to_node(self, payload: bytes, bit_rate_bps: float = 10e6):
        """Downlink frame: AP illuminates, the node's detector decodes."""
        observation = self._observe()
        if observation.downlink_snr_db < MIN_DOWNLINK_SNR_DB:
            raise ProtocolError(
                f"node {self.node.node_id!r} cannot detect the downlink "
                f"({observation.downlink_snr_db:.1f} dB at "
                f"{observation.distance_m:.1f} m)"
            )
        return self._deliver(payload, bit_rate_bps, observation.downlink_snr_db)

    def receive_from_node(self, payload: bytes, bit_rate_bps: float = 10e6):
        """Uplink frame: the node backscatters, the AP decodes."""
        observation = self._observe()
        if observation.downlink_snr_db < MIN_DOWNLINK_SNR_DB:
            raise ProtocolError(
                f"node {self.node.node_id!r} never heard the query "
                f"({observation.downlink_snr_db:.1f} dB downlink)"
            )
        sinr_db = self._uplink_sinr_db(observation)
        if sinr_db < MIN_UPLINK_SINR_DB:
            raise ProtocolError(
                f"backscatter from {self.node.node_id!r} below the AP's "
                f"detection floor ({sinr_db:.1f} dB SINR)"
            )
        return self._deliver(payload, bit_rate_bps, sinr_db)


@dataclass(frozen=True)
class _DeliveryReport:
    """Minimal delivery report matching what ``ReliableChannel`` reads."""

    air_time_s: float
    delivered: bool


class InventoryProcess:
    """Event-driven framed slotted-ALOHA inventory for one AP.

    Each frame is :func:`repro.protocol.inventory.inventory_frame`, the
    function ``SlottedInventory.run()`` runs, so the two are draw-for-draw
    compatible. The fleet layer adds (a) simulated air time — each frame
    occupies ``frame_size * slot_s`` on the clock — and (b) link-budget
    gating: a tag whose downlink or uplink margin is below the detection
    floors still draws its slot but is never heard, so it can neither
    resolve nor collide. Gating is threshold-based (no RNG draws),
    preserving the draw sequence exactly.
    """

    def __init__(
        self,
        sim: NetworkSimulation,
        model: FleetLinkModel,
        ap: FleetAp,
        nodes: dict[str, FleetNode],
        rng: np.random.Generator,
        max_rounds: int = 32,
        frame_cap: int = 64,
        slot_s: float = 25e-6,
        interference_dbm: InterferenceField | None = None,
        on_complete: Callable[[InventoryResult], None] | None = None,
    ) -> None:
        if frame_cap < 2:
            raise NetworkSimError("frame cap must be at least 2")
        if max_rounds < 1:
            raise NetworkSimError("need at least one inventory round")
        if slot_s <= 0:
            raise NetworkSimError("slot duration must be positive")
        self.sim = sim
        self.model = model
        self.ap = ap
        self.nodes = nodes
        self.rng = rng
        self.max_rounds = max_rounds
        self.frame_cap = frame_cap
        self.slot_s = slot_s
        self._interference_dbm = interference_dbm
        self._on_complete = on_complete
        self.pending: list[str] = list(ap.members)
        self.inventoried: list[str] = []
        self.rounds: list[InventoryRound] = []
        self.result: InventoryResult | None = None
        self._frame_size = max(len(self.pending), 2)

    def start(self) -> None:
        """Schedule the first frame at the current simulated time."""
        self.sim.log(
            "netsim.inventory.start",
            ap=self.ap.ap_id,
            tags=len(self.pending),
        )
        self.sim.schedule(0.0, self._run_frame)

    # --- internals -----------------------------------------------------------------

    def _reachable(self) -> set[str]:
        """Pending tags clearing both detection floors, from one batch per
        frame; it draws no randomness and the clock stands still in a frame."""
        poses = [self.nodes[tag].pose_at(self.sim.now_s) for tag in self.pending]
        (rows,) = self.model.observe_grid([self.ap.pose], poses)
        heard = [i for i, row in enumerate(rows) if row[2] >= MIN_DOWNLINK_SNR_DB]
        interference = [()] * len(heard)
        if self._interference_dbm is not None:
            interference = self._interference_dbm([poses[i] for i in heard]).tolist()
        return {
            self.pending[i]
            for i, dbm in zip(heard, interference, strict=True)
            if self.model.uplink_sinr_db(rows[i][0], dbm) >= MIN_UPLINK_SINR_DB
        }

    def _frame_scene(self) -> Scene2D:
        placements = tuple(
            NodePlacement(self.nodes[node_id].pose_at(self.sim.now_s), node_id)
            for node_id in self.pending
        )
        return Scene2D(self.ap.pose, placements, ())

    def _run_frame(self) -> None:
        if not self.pending or len(self.rounds) >= self.max_rounds:
            self._finish()
            return
        frame_size = self._frame_size
        round_stats, resolved, heard = inventory_frame(
            self.rng,
            self.pending,
            frame_size,
            heard=self._reachable().__contains__,
            scheduler=lambda: SdmScheduler(self._frame_scene()),
        )
        self.rounds.append(round_stats)
        obs.counter("netsim.rounds").inc()
        done = set(resolved)
        self.pending = [tag for tag in self.pending if tag not in done]
        self.inventoried.extend(resolved)
        obs.counter("netsim.inventoried").inc(len(resolved))
        self.sim.log(
            "netsim.inventory.frame",
            ap=self.ap.ap_id,
            frame_size=frame_size,
            heard=heard,
            singles=round_stats.singles,
            collisions=round_stats.collisions,
            resolved_by_sdm=round_stats.resolved_by_sdm,
            remaining=len(self.pending),
        )
        self._frame_size = next_frame_size(round_stats.collisions, self.frame_cap)
        self.sim.schedule(frame_size * self.slot_s, self._run_frame)

    def _finish(self) -> None:
        self.result = InventoryResult(tuple(self.inventoried), tuple(self.rounds))
        self.sim.log(
            "netsim.inventory.done",
            ap=self.ap.ap_id,
            inventoried=len(self.inventoried),
            rounds=len(self.rounds),
            total_slots=self.result.total_slots,
        )
        if self._on_complete is not None:
            self._on_complete(self.result)


class TransferProcess:
    """Serial stop-and-wait ARQ transfers from inventoried tags to an AP.

    One :class:`ReliableChannel` per node over a :class:`FleetLink`;
    transfers are serialized on the AP's air interface, each scheduled
    after the previous transfer's air + backoff time has elapsed on the
    simulated clock.
    """

    def __init__(
        self,
        sim: NetworkSimulation,
        model: FleetLinkModel,
        ap: FleetAp,
        nodes: dict[str, FleetNode],
        node_ids: Sequence[str],
        payload_bytes: int = 32,
        bit_rate_bps: float = 10e6,
        max_attempts: int = 4,
        interference_dbm: InterferenceField | None = None,
        on_complete: Callable[["TransferProcess"], None] | None = None,
    ) -> None:
        if payload_bytes < 1:
            raise NetworkSimError("payload must be at least one byte")
        self.sim = sim
        self.model = model
        self.ap = ap
        self.nodes = nodes
        self.queue: list[str] = list(node_ids)
        self.payload_bytes = payload_bytes
        self.bit_rate_bps = bit_rate_bps
        self.max_attempts = max_attempts
        self._interference_dbm = interference_dbm
        self._on_complete = on_complete
        self.results: dict[str, TransferResult] = {}
        self.delivered = 0
        self.air_time_s = 0.0

    def start(self) -> None:
        """Schedule the first queued transfer."""
        self.sim.schedule(0.0, self._run_next)

    def _run_next(self) -> None:
        if not self.queue:
            self.sim.log(
                "netsim.transfers.done",
                ap=self.ap.ap_id,
                delivered=self.delivered,
                total=len(self.results),
            )
            if self._on_complete is not None:
                self._on_complete(self)
            return
        node_id = self.queue.pop(0)
        node = self.nodes[node_id]
        link = FleetLink(
            self.sim,
            self.model,
            self.ap,
            node,
            interference_dbm=self._interference_dbm,
        )
        channel = ReliableChannel(
            link, max_attempts=self.max_attempts, backoff=TRANSFER_BACKOFF
        )
        # Exactly payload_bytes on the air: the node id, zero-padded or cut.
        payload = node_id.encode("ascii")[: self.payload_bytes].ljust(
            self.payload_bytes, b"\x00"
        )
        result = channel.send_reliable(
            payload, PayloadDirection.UPLINK, self.bit_rate_bps
        )
        self.results[node_id] = result
        self.air_time_s += result.air_time_s
        if result.delivered:
            self.delivered += 1
        obs.counter(
            "netsim.transfers", delivered=str(result.delivered).lower()
        ).inc()
        self.sim.log(
            "netsim.transfer",
            ap=self.ap.ap_id,
            node=node_id,
            delivered=result.delivered,
            attempts=result.attempts,
        )
        # The next transfer starts once this one's air + pacing time has
        # elapsed on the shared air interface.
        self.sim.schedule(
            result.air_time_s + result.wait_time_s + 10e-6, self._run_next
        )

    def delivery_ratio(self) -> float:
        """Delivered transfers over attempted transfers."""
        if not self.results:
            return 0.0
        return self.delivered / len(self.results)
