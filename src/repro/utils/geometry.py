"""2-D geometry for the MilBack scene model.

The paper evaluates localization in a 2-D plane (range + azimuth), so the
world model is planar. Angles follow the AP-centric convention used in the
paper's figures:

* the AP sits at the origin looking along +x (its "boresight");
* azimuth of a point is measured from the AP boresight,
  counter-clockwise positive, in degrees;
* a node's *orientation* is the angle between the node's FSA broadside and
  the node→AP direction (0° = node facing the AP squarely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Point2D",
    "Pose2D",
    "deg_to_rad",
    "rad_to_deg",
    "wrap_angle_rad",
    "wrap_angle_deg",
    "angle_between_deg",
    "relative_bearing_deg",
]


def deg_to_rad(deg: float) -> float:
    """Degrees to radians."""
    return deg * math.pi / 180.0


def rad_to_deg(rad: float) -> float:
    """Radians to degrees."""
    return rad * 180.0 / math.pi


def wrap_angle_rad(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def wrap_angle_deg(angle: float) -> float:
    """Wrap an angle to (-180, 180]."""
    return rad_to_deg(wrap_angle_rad(deg_to_rad(angle)))


def angle_between_deg(a: float, b: float) -> float:
    """Smallest signed difference ``a - b`` wrapped to (-180, 180]."""
    return wrap_angle_deg(a - b)


def relative_bearing_deg(
    x: float, y: float, heading_deg: float, to_x: float, to_y: float
) -> float:
    """Azimuth [deg] of the point ``(to_x, to_y)`` seen from ``(x, y)``,
    relative to ``heading_deg`` and wrapped to (-180, 180].

    It is ``wrap_angle_deg(azimuth - heading_deg)``, with the azimuth as
    :meth:`Point2D.azimuth_to` computes it, written out in one frame with
    the same operations in the same order, so it returns the same bits.
    :meth:`Pose2D.relative_bearing_to` and the fleet link model's key pass
    (:meth:`repro.netsim.linkmodel.FleetLinkModel.observe_grid`) call it.
    """
    bearing_deg = math.atan2(to_y - y, to_x - x) * 180.0 / math.pi
    angle_rad = (bearing_deg - heading_deg) * math.pi / 180.0
    wrapped = math.fmod(angle_rad + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return (wrapped - math.pi) * 180.0 / math.pi


@dataclass(frozen=True)
class Point2D:
    """A point in the 2-D scene plane, in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point2D") -> float:
        """Euclidean distance to ``other`` [m]."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def azimuth_to(self, other: "Point2D") -> float:
        """Azimuth of ``other`` as seen from this point, degrees CCW from +x."""
        return rad_to_deg(math.atan2(other.y - self.y, other.x - self.x))

    def translated(self, dx: float, dy: float) -> "Point2D":
        """A copy shifted by (dx, dy)."""
        return Point2D(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        """(x, y) tuple, convenient for numpy interop."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Pose2D:
    """A position plus a facing direction.

    ``heading_deg`` is the direction the device's broadside points,
    degrees CCW from the +x axis.
    """

    position: Point2D
    heading_deg: float = 0.0

    @classmethod
    def at(cls, x: float, y: float, heading_deg: float = 0.0) -> "Pose2D":
        """Build a pose from raw coordinates."""
        return cls(Point2D(x, y), heading_deg)

    def distance_to(self, other: "Pose2D") -> float:
        """Distance between the two poses' positions [m]."""
        return self.position.distance_to(other.position)

    def bearing_to(self, other: "Pose2D") -> float:
        """World-frame azimuth of ``other`` from this pose [deg]."""
        return self.position.azimuth_to(other.position)

    def relative_bearing_to(self, other: "Pose2D") -> float:
        """Azimuth of ``other`` relative to this pose's heading [deg].

        This is the angle a beam must steer off broadside to face ``other``;
        for a node it is exactly the paper's "orientation with respect to
        the AP".

        It returns the bits of
        ``wrap_angle_deg(self.bearing_to(other) - self.heading_deg)``
        (:func:`relative_bearing_deg`).
        """
        here, there = self.position, other.position
        return relative_bearing_deg(here.x, here.y, self.heading_deg, there.x, there.y)

    def rotated(self, delta_deg: float) -> "Pose2D":
        """A copy rotated in place by ``delta_deg``."""
        return Pose2D(self.position, wrap_angle_deg(self.heading_deg + delta_deg))

    def moved_to(self, x: float, y: float) -> "Pose2D":
        """A copy relocated to (x, y) keeping the heading."""
        return Pose2D(Point2D(x, y), self.heading_deg)
