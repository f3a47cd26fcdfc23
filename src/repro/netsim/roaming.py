"""Multi-AP coverage: RSS-hysteresis roaming and inter-AP interference.

A fleet larger than one room needs several APs, and a mobile node must
pick which one serves it. The controller re-evaluates every node's RSS
toward every AP on a fixed simulated-time cadence and hands the node
over only when another AP beats the serving one by a hysteresis margin
— the classic guard against ping-ponging on the cell edge. Each
evaluation asks the link model about every (node, AP) pair in one
:meth:`~repro.netsim.linkmodel.FleetLinkModel.observe_grid` call.

Co-channel APs also interfere: an AP decoding a tag's backscatter hears
every other AP's carrier through both horns' off-axis patterns. The
controller exposes that as a per-AP interference field over node poses
that the link layer folds into its SINR, so cell-edge tags degrade the
way a real deployment's would rather than enjoying single-AP physics.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.errors import NetworkSimError
from repro.utils.geometry import Pose2D

from repro.netsim.core import NetworkSimulation
from repro.netsim.fleet import FleetAp, FleetNode, InterferenceField
from repro.netsim.linkmodel import FleetLinkModel

__all__ = ["RoamingController"]

#: How far along an AP's heading its boresight "target" sits when the
#: interference model needs a pointing direction for an idle beam [m].
BORESIGHT_RANGE_M = 10.0


def _boresight_target(pose: Pose2D) -> Pose2D:
    heading_rad = math.radians(pose.heading_deg)
    return Pose2D.at(
        pose.position.x + BORESIGHT_RANGE_M * math.cos(heading_rad),
        pose.position.y + BORESIGHT_RANGE_M * math.sin(heading_rad),
        pose.heading_deg,
    )


class RoamingController:
    """RSS-based handoff plus the inter-AP interference field.

    Nodes are re-evaluated in sorted id order every ``interval_s`` of
    simulated time; ties between equal-RSS APs break on ap id. All
    decisions are pure functions of poses and the hysteresis margin —
    no RNG — so handoff counts replay exactly.
    """

    def __init__(
        self,
        sim: NetworkSimulation,
        model: FleetLinkModel,
        aps: list[FleetAp],
        nodes: dict[str, FleetNode],
        interval_s: float = 0.05,
        hysteresis_db: float = 3.0,
        horizon_s: float | None = None,
    ) -> None:
        if len(aps) < 2:
            raise NetworkSimError("roaming needs at least two APs")
        if interval_s <= 0:
            raise NetworkSimError("roaming interval must be positive")
        if hysteresis_db < 0:
            raise NetworkSimError("hysteresis cannot be negative")
        self.sim = sim
        self.model = model
        self.aps = {ap.ap_id: ap for ap in aps}
        if len(self.aps) != len(aps):
            raise NetworkSimError("duplicate AP ids")
        self.nodes = nodes
        self.interval_s = interval_s
        self.hysteresis_db = hysteresis_db
        self.horizon_s = horizon_s
        self.handoffs = 0
        self.handoffs_by_node: dict[str, int] = {}

    # --- attachment ----------------------------------------------------------------

    def attach_all(self) -> None:
        """Give every node its best-RSS serving AP (initial attachment)."""
        nodes = [node for _, node in sorted(self.nodes.items())]
        for node, rss_dbm in zip(nodes, self._rss_by_node(nodes)):
            # max() keeps the first maximum: ties go to the lowest ap id.
            node.serving_ap = max(rss_dbm, key=rss_dbm.__getitem__)
            self.aps[node.serving_ap].members.append(node.node_id)

    def _rss_by_node(self, nodes: list[FleetNode]) -> list[dict[str, float]]:
        """Each node's RSS [dBm] per AP in ap id order, from one grid call."""
        poses = [node.pose_at(self.sim.now_s) for node in nodes]
        ap_ids = sorted(self.aps)
        grid = self.model.observe_grid([self.aps[ap_id].pose for ap_id in ap_ids], poses)
        return [
            dict(zip(ap_ids, [row[0] for row in node_rows])) for node_rows in zip(*grid)
        ]

    # --- periodic handoff evaluation -----------------------------------------------

    def start(self) -> None:
        """Begin periodic handoff evaluation on the simulated clock."""
        self.sim.schedule(self.interval_s, self._tick)

    def _tick(self) -> None:
        live = [
            (node, node.serving_ap)
            for _, node in sorted(self.nodes.items())
            if node.serving_ap is not None
        ]
        # A handoff changes only its own node, so one evaluation of
        # every (node, AP) pair decides as node-by-node evaluation would.
        rows = self._rss_by_node([node for node, _ in live])
        for (node, serving), rss_dbm in zip(live, rows):
            serving_rss_dbm = rss_dbm.pop(serving)
            for ap_id, to_rss_dbm in rss_dbm.items():
                if to_rss_dbm > serving_rss_dbm + self.hysteresis_db:
                    self._handoff(node, serving, ap_id, serving_rss_dbm, to_rss_dbm)
                    break
        if self.horizon_s is None or self.sim.now_s + self.interval_s <= self.horizon_s:
            self.sim.schedule(self.interval_s, self._tick)

    def _handoff(
        self,
        node: FleetNode,
        from_ap: str,
        to_ap: str,
        from_rss_dbm: float,
        to_rss_dbm: float,
    ) -> None:
        self.aps[from_ap].members.remove(node.node_id)
        self.aps[to_ap].members.append(node.node_id)
        node.serving_ap = to_ap
        self.handoffs += 1
        self.handoffs_by_node[node.node_id] = (
            self.handoffs_by_node.get(node.node_id, 0) + 1
        )
        obs.counter("netsim.handoffs").inc()
        self.sim.log(
            "netsim.handoff",
            node=node.node_id,
            from_ap=from_ap,
            to_ap=to_ap,
            from_rss_dbm=round(from_rss_dbm, 2),
            to_rss_dbm=round(to_rss_dbm, 2),
        )

    # --- interference --------------------------------------------------------------

    def interference_for(self, ap_id: str) -> InterferenceField:
        """Interference field seen by ``ap_id``'s receiver.

        Every other AP contributes its carrier through both horns'
        patterns, with the receiving AP steered at the node it is
        decoding and each interferer steered at its own boresight. The
        field maps a sequence of node poses to an array with one row per
        pose and one column per other AP, in ap id order.

        The field covers the APs the controller has now: APs do not
        move, so each pair's terms are computed here, once, and a
        co-located pair raises here rather than at the first frame.
        """
        if ap_id not in self.aps:
            raise NetworkSimError(f"unknown AP {ap_id!r}")
        rx_pose = self.aps[ap_id].pose
        pairs = [
            self.model.interference_terms(
                rx_pose, other.pose, _boresight_target(other.pose)
            )
            for other_id, other in sorted(self.aps.items())
            if other_id != ap_id
        ]
        interference_dbm = self.model.interference_dbm

        def field(node_poses):
            return np.column_stack(
                [interference_dbm(rx_pose, node_poses, terms) for terms in pairs]
            )

        return field
