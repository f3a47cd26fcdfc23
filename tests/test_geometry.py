"""2-D geometry tests (repro.utils.geometry)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.geometry import (
    Point2D,
    Pose2D,
    angle_between_deg,
    deg_to_rad,
    rad_to_deg,
    wrap_angle_deg,
    wrap_angle_rad,
)

finite_angle = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestAngleConversions:
    def test_deg_to_rad(self):
        assert deg_to_rad(180.0) == pytest.approx(math.pi)

    def test_rad_to_deg(self):
        assert rad_to_deg(math.pi / 2) == pytest.approx(90.0)

    @given(finite_angle)
    def test_roundtrip(self, angle):
        assert rad_to_deg(deg_to_rad(angle)) == pytest.approx(angle, rel=1e-9, abs=1e-9)


class TestWrapping:
    def test_wrap_inside_range_unchanged(self):
        assert wrap_angle_deg(45.0) == pytest.approx(45.0)

    def test_wrap_270_to_minus_90(self):
        assert wrap_angle_deg(270.0) == pytest.approx(-90.0)

    def test_wrap_minus_190(self):
        assert wrap_angle_deg(-190.0) == pytest.approx(170.0)

    def test_wrap_boundary_is_positive_180(self):
        assert wrap_angle_deg(180.0) == pytest.approx(180.0)
        assert wrap_angle_deg(-180.0) == pytest.approx(180.0)

    @given(finite_angle)
    def test_wrapped_range(self, angle):
        wrapped = wrap_angle_deg(angle)
        assert -180.0 < wrapped <= 180.0 + 1e-9

    @given(finite_angle)
    def test_wrap_preserves_angle_mod_360(self, angle):
        wrapped = wrap_angle_deg(angle)
        assert math.isclose(
            math.cos(deg_to_rad(wrapped)), math.cos(deg_to_rad(angle)), abs_tol=1e-6
        )
        assert math.isclose(
            math.sin(deg_to_rad(wrapped)), math.sin(deg_to_rad(angle)), abs_tol=1e-6
        )

    def test_wrap_rad_range(self):
        assert wrap_angle_rad(3 * math.pi) == pytest.approx(math.pi)

    def test_angle_between(self):
        assert angle_between_deg(170.0, -170.0) == pytest.approx(-20.0)


class TestPoint2D:
    def test_distance(self):
        assert Point2D(0, 0).distance_to(Point2D(3, 4)) == pytest.approx(5.0)

    def test_azimuth_east(self):
        assert Point2D(0, 0).azimuth_to(Point2D(1, 0)) == pytest.approx(0.0)

    def test_azimuth_north(self):
        assert Point2D(0, 0).azimuth_to(Point2D(0, 2)) == pytest.approx(90.0)

    def test_translated(self):
        p = Point2D(1, 1).translated(2, -1)
        assert (p.x, p.y) == (3, 0)

    def test_as_tuple(self):
        assert Point2D(1.5, -2.0).as_tuple() == (1.5, -2.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Point2D(0, 0).x = 5


class TestPose2D:
    def test_at_constructor(self):
        pose = Pose2D.at(1.0, 2.0, 30.0)
        assert pose.position == Point2D(1.0, 2.0)
        assert pose.heading_deg == 30.0

    def test_bearing_to(self):
        a = Pose2D.at(0, 0)
        b = Pose2D.at(0, 5)
        assert a.bearing_to(b) == pytest.approx(90.0)

    def test_relative_bearing_subtracts_heading(self):
        a = Pose2D.at(0, 0, heading_deg=90.0)
        b = Pose2D.at(0, 5)
        assert a.relative_bearing_to(b) == pytest.approx(0.0)

    def test_relative_bearing_is_the_composed_form_bit_for_bit(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(-20.0, 20.0, size=(4000, 4)).tolist()
        headings = rng.uniform(-2000.0, 2000.0, size=4000).tolist()
        headings[:8] = [720.0, -720.0, 900.5, -1080.0, 180.0, -180.0, 540.0, -540.0]
        cases = [
            (Pose2D.at(x0, y0, heading), Pose2D.at(x1, y1, -heading))
            for (x0, y0, x1, y1), heading in zip(coords, headings)
        ]
        # Relative bearings of exactly ±180° (a target straight behind).
        cases += [
            (Pose2D.at(0.0, 0.0, heading), Pose2D.at(-1.0, 0.0))
            for heading in (0.0, 360.0, -360.0, 720.0, -720.0, 1e-300, -1e-300)
        ]
        cases += [(Pose2D.at(0.0, 0.0, 180.0), Pose2D.at(1.0, 0.0))]
        cases += [(Pose2D.at(0.0, 0.0, -180.0), Pose2D.at(1.0, 0.0))]
        for a, b in cases:
            for me, other in ((a, b), (b, a)):
                expected = wrap_angle_deg(me.bearing_to(other) - me.heading_deg)
                assert me.relative_bearing_to(other) == expected
        assert Pose2D.at(0.0, 0.0, 0.0).relative_bearing_to(Pose2D.at(-1.0, 0.0)) == 180.0

    def test_rotated_wraps(self):
        pose = Pose2D.at(0, 0, 170.0).rotated(20.0)
        assert pose.heading_deg == pytest.approx(-170.0)

    def test_moved_to_keeps_heading(self):
        pose = Pose2D.at(0, 0, 45.0).moved_to(3, 3)
        assert pose.heading_deg == 45.0
        assert pose.position == Point2D(3, 3)

    def test_node_orientation_convention(self):
        # A node 2 m down +x whose broadside faces the AP has zero
        # relative bearing to the AP; rotating it by theta changes the
        # orientation by exactly -theta... i.e. the scene convention.
        ap = Pose2D.at(0, 0, 0.0)
        node = Pose2D.at(2, 0, 180.0)  # facing the AP
        assert node.relative_bearing_to(ap) == pytest.approx(0.0)
        rotated = node.rotated(-15.0)
        assert rotated.relative_bearing_to(ap) == pytest.approx(15.0)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        finite_angle,
    )
    def test_distance_symmetric(self, x, y, heading):
        a = Pose2D.at(0.0, 0.0, heading)
        b = Pose2D.at(x, y, 0.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))
