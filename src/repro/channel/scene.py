"""2-D world model: AP, nodes, clutter, and their geometry.

The scene answers all geometric questions the simulator asks — distances,
the azimuth of a node as seen by the AP, and the node's *orientation*
(the angle between its FSA broadside and the node→AP direction), which is
the quantity MilBack senses and exploits for OAQFM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.channel.multipath import Reflector, default_indoor_clutter
from repro.errors import ChannelError
from repro.utils.geometry import Pose2D

__all__ = ["NodePlacement", "Scene2D"]


@dataclass(frozen=True)
class NodePlacement:
    """A backscatter node's pose within a scene."""

    pose: Pose2D
    node_id: str = "node-0"


@dataclass(frozen=True)
class Scene2D:
    """AP + nodes + clutter in one plane.

    The AP sits at ``ap_pose`` with its boresight along its heading.
    """

    ap_pose: Pose2D = field(default_factory=lambda: Pose2D.at(0.0, 0.0, 0.0))
    nodes: tuple[NodePlacement, ...] = ()
    clutter: tuple[Reflector, ...] = ()

    # --- construction helpers -------------------------------------------------

    @classmethod
    def single_node(
        cls,
        distance_m: float,
        azimuth_deg: float = 0.0,
        orientation_deg: float = 0.0,
        with_clutter: bool = True,
        node_id: str = "node-0",
    ) -> "Scene2D":
        """The paper's canonical setup: one node at a given distance and
        azimuth from the AP, rotated so its broadside is ``orientation_deg``
        away from facing the AP squarely.
        """
        if distance_m <= 0:
            raise ChannelError("distance must be positive")
        import math

        x = distance_m * math.cos(math.radians(azimuth_deg))
        y = distance_m * math.sin(math.radians(azimuth_deg))
        # Facing the AP squarely means heading_deg = bearing(node→AP); an
        # orientation of θ rotates broadside θ away from that.
        facing_ap_deg = azimuth_deg + 180.0
        heading_deg = facing_ap_deg - orientation_deg
        node = NodePlacement(Pose2D.at(x, y, heading_deg), node_id)
        clutter = tuple(default_indoor_clutter()) if with_clutter else ()
        return cls(Pose2D.at(0.0, 0.0, 0.0), (node,), clutter)

    def with_node(self, placement: NodePlacement) -> "Scene2D":
        """A copy with one more node."""
        return replace(self, nodes=self.nodes + (placement,))

    def with_clutter(self, reflector: Reflector) -> "Scene2D":
        """A copy with one more clutter reflector."""
        return replace(self, clutter=self.clutter + (reflector,))

    def without_clutter(self) -> "Scene2D":
        """A copy with all clutter removed (anechoic-chamber condition)."""
        return replace(self, clutter=())

    # --- geometry queries -------------------------------------------------------

    def node(self, node_id: str | None = None) -> NodePlacement:
        """Fetch a node by id (or the only node when unambiguous)."""
        if not self.nodes:
            raise ChannelError("scene has no nodes")
        if node_id is None:
            if len(self.nodes) > 1:
                raise ChannelError("scene has multiple nodes; specify node_id")
            return self.nodes[0]
        for placement in self.nodes:
            if placement.node_id == node_id:
                return placement
        raise ChannelError(f"no node with id {node_id!r}")

    def node_distance_m(self, node_id: str | None = None) -> float:
        """AP↔node distance."""
        return self.ap_pose.distance_to(self.node(node_id).pose)

    def node_azimuth_deg(self, node_id: str | None = None) -> float:
        """Azimuth of the node relative to the AP's boresight."""
        return self.ap_pose.relative_bearing_to(self.node(node_id).pose)

    def node_orientation_deg(self, node_id: str | None = None) -> float:
        """The node's orientation with respect to the AP (0 = facing it)."""
        placement = self.node(node_id)
        return placement.pose.relative_bearing_to(self.ap_pose)

    def clutter_geometry(self) -> list[tuple[Reflector, float, float]]:
        """[(reflector, distance from AP, azimuth off AP boresight)] for
        every clutter element."""
        out = []
        for reflector in self.clutter:
            pose = Pose2D(reflector.position, 0.0)
            out.append(
                (
                    reflector,
                    self.ap_pose.distance_to(pose),
                    self.ap_pose.relative_bearing_to(pose),
                )
            )
        return out
