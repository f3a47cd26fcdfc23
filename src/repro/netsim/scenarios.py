"""Named, versioned fleet scenarios.

A scenario is a frozen spec in a registry, looked up by name; bumping a
spec's ``version`` signals that its tables are expected to change. All
geometry and traffic derive from per-entity RNG streams under a seed
folded with the scenario name: node *i*'s streams are row *i* of one
:func:`repro.utils.rng.indexed_rng_rows` block per fleet, bit for bit
what :func:`repro.utils.rng.indexed_rngs` derives for that row alone.
So a scenario run is a pure function of ``(name, seed)`` — the matrix
runner can fan scenarios across workers in any order and the tables
come back byte-identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.channel.mobility import Waypoint, WaypointTrajectory
from repro.errors import NetworkSimError
from repro.utils.geometry import Pose2D
from repro.utils.rng import indexed_rng_rows

from repro.netsim.fleet import FleetAp, FleetNode

__all__ = [
    "ScenarioSpec",
    "SCENARIOS",
    "get_scenario",
    "scenario_seed",
    "build_fleet",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named fleet configuration.

    ``version`` is part of the scenario's published identity: any change
    that alters the spec's tables must bump it, so downstream
    comparisons (CI diffs, regression baselines) never silently compare
    across semantics.
    """

    name: str
    version: int
    description: str
    n_nodes: int
    n_aps: int = 1
    ap_spacing_m: float = 24.0
    min_radius_m: float = 1.5
    max_radius_m: float = 16.0
    heading_jitter_deg: float = 30.0
    mobile_fraction: float = 0.0
    speed_mps: float = 1.4
    horizon_s: float | None = None
    frame_cap: int = 64
    max_rounds: int = 32
    slot_s: float = 25e-6
    payload_bytes: int = 32
    max_attempts: int = 4
    transfers: bool = True
    roam_interval_s: float = 0.05
    hysteresis_db: float = 3.0
    trace_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise NetworkSimError("scenario needs at least one node")
        if self.n_aps < 1:
            raise NetworkSimError("scenario needs at least one AP")
        if not 0.0 < self.min_radius_m < self.max_radius_m:
            raise NetworkSimError("need 0 < min radius < max radius")
        if not 0.0 <= self.mobile_fraction <= 1.0:
            raise NetworkSimError("mobile fraction must be within [0, 1]")
        if not self.speed_mps > 0.0:
            raise NetworkSimError("walking speed must be positive")
        if self.n_aps > 1 and self.horizon_s is None:
            raise NetworkSimError("multi-AP scenarios need a horizon")
        if self.horizon_s is not None and not self.horizon_s > 0.0:
            raise NetworkSimError("horizon must be positive")
        if self.max_attempts < 1:
            raise NetworkSimError("a transfer needs at least one attempt")

    @property
    def streams_per_node(self) -> int:
        """RNG streams each node entity consumes (geometry, link)."""
        return 2


#: The published scenario registry. Keep descriptions to one line; the
#: CLI lists them verbatim.
SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="five-node-crosscheck",
            version=1,
            description="5 static tags, 1 AP — pins netsim to SlottedInventory",
            n_nodes=5,
            max_radius_m=8.0,
        ),
        ScenarioSpec(
            name="single-ap-100",
            version=1,
            description="100 static tags around one AP, inventory + ARQ uplinks",
            n_nodes=100,
            frame_cap=256,
        ),
        ScenarioSpec(
            name="single-ap-500",
            version=1,
            description="500 static tags around one AP, inventory + ARQ uplinks",
            n_nodes=500,
            max_radius_m=17.0,
            frame_cap=1024,
        ),
        ScenarioSpec(
            name="single-ap-1000",
            version=1,
            description="1000 static tags around one AP, inventory + ARQ uplinks",
            n_nodes=1000,
            max_radius_m=17.0,
            frame_cap=2048,
            trace_capacity=4096,
        ),
        ScenarioSpec(
            name="three-ap-roaming",
            version=1,
            description="3 APs on a 24 m corridor, mobile tags roam on RSS",
            n_nodes=120,
            n_aps=3,
            max_radius_m=14.0,
            mobile_fraction=0.3,
            horizon_s=30.0,
            frame_cap=256,
            trace_capacity=8192,
        ),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise NetworkSimError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_seed(seed: int, name: str) -> int:
    """A stable per-scenario seed folded from the run seed and the name.

    Hash-derived (not ``seed + index``) so adding or reordering registry
    entries never shifts another scenario's streams.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _ap_poses(spec: ScenarioSpec) -> list[Pose2D]:
    """APs on a line along +x, each facing +y into the served area."""
    return [
        Pose2D.at(i * spec.ap_spacing_m, 0.0, 90.0) for i in range(spec.n_aps)
    ]


def build_fleet(
    spec: ScenarioSpec, run_seed: int
) -> tuple[list[FleetAp], dict[str, FleetNode]]:
    """Materialize a scenario's APs and nodes.

    Node ``i`` consumes exactly ``spec.streams_per_node`` streams at
    entity index ``i``: one for geometry (placement, mobility), one for
    the link layer (packet-success draws during ARQ). The fleet's streams
    come from one :func:`indexed_rng_rows` block, the same bits as a
    per-node :func:`repro.utils.rng.indexed_rngs` call, so a fleet is
    identical at any worker count.
    """
    derived = scenario_seed(run_seed, spec.name)
    ap_poses = _ap_poses(spec)
    aps = [FleetAp(f"ap-{i}", pose) for i, pose in enumerate(ap_poses)]
    nodes: dict[str, FleetNode] = {}
    streams = indexed_rng_rows(derived, range(spec.n_nodes), spec.streams_per_node)
    radius_span_m = spec.max_radius_m - spec.min_radius_m
    jitter_low_deg = -spec.heading_jitter_deg
    jitter_span_deg = spec.heading_jitter_deg - jitter_low_deg
    for i, (geom_rng, link_rng) in enumerate(streams):
        anchor = ap_poses[i % spec.n_aps].position
        # One draw of four doubles, scaled as Generator.uniform scales its
        # double (low + (high - low) * u): the same values, and the stream
        # left in the same place, as three uniform() calls and a random().
        angle_u, radius_u, jitter_u, mobile_u = geom_rng.random(4).tolist()
        angle_deg = 180.0 * angle_u
        radius_m = spec.min_radius_m + radius_span_m * radius_u
        x = anchor.x + radius_m * math.cos(math.radians(angle_deg))
        y = anchor.y + radius_m * math.sin(math.radians(angle_deg))
        # Face roughly back at the anchor AP, with bounded jitter.
        jitter = jitter_low_deg + jitter_span_deg * jitter_u
        heading = math.atan2(anchor.y - y, anchor.x - x) * 180.0 / math.pi + jitter
        pose = Pose2D.at(x, y, heading)
        node_id = f"node-{i:04d}"
        trajectory = None
        if mobile_u < spec.mobile_fraction:
            trajectory = _corridor_walk(spec, geom_rng, pose, ap_poses)
        nodes[node_id] = FleetNode(
            node_id=node_id,
            index=i,
            pose=pose,
            rng=link_rng,
            trajectory=trajectory,
        )
    return aps, nodes


def _corridor_walk(
    spec: ScenarioSpec, geom_rng, start: Pose2D, ap_poses: list[Pose2D]
) -> WaypointTrajectory:
    """A walk from the node's pose toward a different AP's neighbourhood."""
    horizon_s = spec.horizon_s or 30.0
    target_ap = ap_poses[int(geom_rng.integers(0, len(ap_poses)))]
    offset_m = float(geom_rng.uniform(2.0, spec.max_radius_m / 2))
    side = 1.0 if geom_rng.random() < 0.5 else -1.0
    end_x = target_ap.position.x + side * offset_m
    end_y = target_ap.position.y + float(geom_rng.uniform(2.0, spec.max_radius_m / 2))
    distance_m = math.hypot(end_x - start.position.x, end_y - start.position.y)
    travel_s = max(distance_m / spec.speed_mps, 1e-3)
    end_heading = Pose2D.at(end_x, end_y).bearing_to(target_ap)
    waypoints = [
        Waypoint(0.0, start),
        Waypoint(travel_s, Pose2D.at(end_x, end_y, end_heading)),
    ]
    if travel_s < horizon_s:
        waypoints.append(
            Waypoint(horizon_s, Pose2D.at(end_x, end_y, end_heading))
        )
    return WaypointTrajectory(waypoints)
