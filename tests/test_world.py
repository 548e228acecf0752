import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import distance
from uwbio.geometry import Angle, Rotation3Z
from uwbio.world import Pose4, RobotTruth, VelocityCommand, frame_offset, frame_yaw, step

yaws = st.floats(-3.0, 3.0, allow_nan=False)
coords = st.floats(-10.0, 10.0, allow_nan=False)


class TestStep:
    def test_zero_command_is_identity(self):
        r = RobotTruth.spawn(0, 1.0, 2.0, 3.0, 0.5)
        out = step(r, VelocityCommand(0.0, 0.0, 0.0), 0.05)
        assert out.world_pose == r.world_pose
        assert out.odom_pose == r.odom_pose

    def test_straight_line(self):
        r = RobotTruth.spawn(0, 0, 0, 0, 0)
        out = step(r, VelocityCommand(1.0, 0.0, 0.0), 1.0)
        assert out.world_pose.x == pytest.approx(1.0)
        assert out.world_pose.y == 0.0

    def test_closed_circle(self):
        # v = r*w closes a circle over one period; the exact-arc integrator
        # must return to the start to near machine precision.
        r_c, w = 2.0, 0.1
        period = 2 * math.pi / w
        n = 1000
        r = RobotTruth.spawn(0, 0, 0, 0, 0)
        for _ in range(n):
            r = step(r, VelocityCommand(r_c * w, 0.0, w), period / n)
        assert np.linalg.norm(r.world_pose.position()) < 1e-9
        assert r.world_pose.yaw.radians == pytest.approx(2 * math.pi, abs=1e-9)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            step(RobotTruth.spawn(0, 0, 0, 0, 0), VelocityCommand(0.0, 0.0, 0.0), 0.0)

    def test_odometry_ignores_world_pose(self):
        # Identical commands from different world starts give bitwise equal
        # odometry traces.
        cmds = [VelocityCommand(0.3, 0.1, 0.4), VelocityCommand(0.2, -0.1, -0.6)] * 40
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(0, 17.0, -4.0, 2.0, 2.4)
        for c in cmds:
            a, b = step(a, c, 0.05), step(b, c, 0.05)
            assert a.odom_pose == b.odom_pose


def relative_yaw(a: RobotTruth, b: RobotTruth) -> float:
    """Yaw of b's body frame measured in a's."""
    return b.world_pose.yaw.radians - a.world_pose.yaw.radians


class TestRelativeTruth:
    """`frame_offset` gives a - b in a's initial odometry frame."""

    def test_identical_poses(self):
        a = RobotTruth.spawn(0, 1, 2, 3, 0.7)
        b = RobotTruth.spawn(1, 1, 2, 3, 0.7)
        p, theta = frame_offset(a.as_row(), b.as_row(), a.as_row()), relative_yaw(a, b)
        assert np.allclose(p, 0.0, atol=0)
        assert theta == 0.0

    def test_sign_convention(self):
        # p_ab = p_a - p_b expressed in a's odometry frame.
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 1, 0, 0, 0)
        p = frame_offset(a.as_row(), b.as_row(), a.as_row())
        assert np.allclose(p, [-1, 0, 0], atol=0)

    @given(coords, coords, yaws, coords, coords, yaws)
    def test_distance_matches_world_norm(self, ax, ay, ayaw, bx, by, byaw):
        a = RobotTruth.spawn(0, ax, ay, 0.5, ayaw)
        b = RobotTruth.spawn(1, bx, by, -0.3, byaw)
        p = frame_offset(a.as_row(), b.as_row(), a.as_row())
        brute = np.linalg.norm([ax - bx, ay - by, 0.8])
        assert np.linalg.norm(p) == pytest.approx(brute, abs=1e-12 * max(1, brute))

    def test_frame_rotation_maps_b_to_a(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0.3)
        b = RobotTruth.spawn(1, 1, 1, 0, 1.0)
        # A vector fixed in the world, expressed in both odometry frames.
        v_world = np.array([0.4, -0.2, 0.9])
        va = np.array([math.cos(-0.3) * 0.4 - math.sin(-0.3) * -0.2,
                       math.sin(-0.3) * 0.4 + math.cos(-0.3) * -0.2, 0.9])
        vb = np.array([math.cos(-1.0) * 0.4 - math.sin(-1.0) * -0.2,
                       math.sin(-1.0) * 0.4 + math.cos(-1.0) * -0.2, 0.9])
        # The rotation taking b's odometry-frame coordinates into a's.
        R = Rotation3Z.from_angle(frame_yaw(b.as_row()) - frame_yaw(a.as_row()))
        assert np.allclose(R.apply(vb), va, atol=1e-12)


class TestFrameConsistency:
    def test_odometry_bookkeeping_matches_world_distance(self):
        # Master consistency check: |p_ij| propagated through odometry-frame
        # bookkeeping equals the world-frame distance at every tick.
        a = RobotTruth.spawn(0, 0.5, -0.4, 0.0, 0.9)
        b = RobotTruth.spawn(1, 2.0, 1.0, 0.5, -1.7)
        p0 = frame_offset(a.as_row(), b.as_row(), a.as_row())
        R = Rotation3Z.from_angle(frame_yaw(b.as_row()) - frame_yaw(a.as_row()))
        dt = 0.05
        for k in range(400):
            t = k * dt
            ca = VelocityCommand(0.15, 0.05 * math.sin(0.3 * t), -0.5)
            cb = VelocityCommand(0.2, -0.04 * math.sin(0.2 * t), 0.4)
            a, b = step(a, ca, dt), step(b, cb, dt)
            p_ij = p0 + a.odom_pose.position() - R.apply(b.odom_pose.position())
            assert abs(np.linalg.norm(p_ij) - distance(a, b)) < 1e-9

    def test_relative_yaw_composition(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0.9)
        b = RobotTruth.spawn(1, 2, 1, 0, -1.7)
        theta0 = Rotation3Z.from_angle(frame_yaw(b.as_row()) - frame_yaw(a.as_row())).yaw()
        for _ in range(200):
            a = step(a, VelocityCommand(0.1, 0, 0.3), 0.05)
            b = step(b, VelocityCommand(0.2, 0, -0.2), 0.05)
        theta = relative_yaw(a, b)
        composed = theta0 + b.odom_pose.yaw.radians - a.odom_pose.yaw.radians
        assert theta == pytest.approx(composed, abs=1e-12)


def test_pose4_accessors():
    p = Pose4(1.0, 2.0, 3.0, yaw=Angle(0.5))
    assert np.allclose(p.position(), [1, 2, 3], atol=0)
    assert p.yaw.radians == 0.5
