import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwbio.geometry import DegenerateRotation, Rotation3Z, cross2, unit_pair
from uwbio.world import RobotTruth

angles = st.floats(-50.0, 50.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


class TestNormProject:
    """`unit_pair`: a trig pair projected onto the unit circle by its norm."""

    def test_identity_passthrough(self):
        assert unit_pair(1.0, 0.0) == (1.0, 0.0)

    def test_positive_scaling(self):
        assert unit_pair(2.0, 0.0) == (1.0, 0.0)

    def test_scaled_rotation(self):
        c, s = unit_pair(3 * math.cos(0.7), 3 * math.sin(0.7))
        assert abs(c - math.cos(0.7)) < 1e-12
        assert abs(s - math.sin(0.7)) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateRotation):
            unit_pair(1e-10, -1e-10)

    @given(angles, st.floats(1e-6, 1e6))
    def test_idempotent(self, ang, scale):
        c1, s1 = unit_pair(scale * math.cos(ang), scale * math.sin(ang))
        c2, s2 = unit_pair(c1, s1)
        assert abs(c1 - c2) < 1e-12 and abs(s1 - s2) < 1e-12

    @given(angles, st.floats(1e-6, 1e6))
    def test_angle_preserved(self, ang, scale):
        c_raw, s_raw = scale * math.cos(ang), scale * math.sin(ang)
        r = Rotation3Z(*unit_pair(c_raw, s_raw))
        assert r.yaw() == pytest.approx(math.atan2(s_raw, c_raw), abs=1e-12)

    @given(angles, st.floats(1e-6, 1e6))
    def test_unit_norm(self, ang, scale):
        c, s = unit_pair(scale * math.cos(ang), scale * math.sin(ang))
        assert abs(c ** 2 + s ** 2 - 1.0) < 1e-12


class TestCross2:
    def test_unit_basis(self):
        assert cross2((1, 0), (0, 1)) == 1.0

    def test_parallel(self):
        assert cross2((1, 2), (1, 2)) == 0.0

    def test_hand_expansion(self):
        assert cross2((2, 3), (5, 7)) == -1.0

    @given(coords, coords, coords, coords)
    def test_antisymmetric(self, ax, ay, bx, by):
        assert cross2((ax, ay), (bx, by)) == -cross2((bx, by), (ax, ay))


class TestRotateH:
    """Rotation3Z.apply on horizontal (x, y, 0) vectors."""

    def test_identity(self):
        v = Rotation3Z.identity().apply((1.0, 2.0, 0.0))
        assert np.allclose(v, [1.0, 2.0, 0.0], atol=0)

    def test_quarter_turn(self):
        v = Rotation3Z.from_angle(math.pi / 2).apply((1.0, 0.0, 0.0))
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)

    def test_matrix_oracle(self):
        r = Rotation3Z.from_angle(0.3)
        v = np.array([0.4, -0.2, 0.0])
        expected = np.array([[math.cos(0.3), -math.sin(0.3), 0.0],
                             [math.sin(0.3), math.cos(0.3), 0.0],
                             [0.0, 0.0, 1.0]]) @ v
        assert np.allclose(r.apply(v), expected, atol=1e-15)

    @given(angles, coords, coords)
    def test_norm_preserved(self, ang, x, y):
        v = np.array([x, y, 0.0])
        out = Rotation3Z.from_angle(ang).apply(v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * max(1, np.linalg.norm(v))

    @given(angles, coords, coords, coords, coords)
    def test_rotation_identity_pins_orientation(self, ang, ux, uy, px, py):
        # u' R(theta) p = cos(theta) (u.p) + sin(theta) cross2(p, u)
        u, p = np.array([ux, uy, 0.0]), np.array([px, py, 0.0])
        lhs = u @ Rotation3Z.from_angle(ang).apply(p)
        rhs = math.cos(ang) * (u @ p) + math.sin(ang) * cross2(p, u)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


class TestAngle:
    @given(angles)
    def test_wrapped_in_range(self, a):
        # The one bounded reading of an angle is a rotation's.
        w = Rotation3Z.from_angle(a).yaw()
        assert -math.pi < w <= math.pi
        # Same direction as the unwrapped angle.
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)

    def test_cumulative_arithmetic(self):
        a = RobotTruth.spawn(0, 0.0, 0.0, 0.0, 4.0)
        b = RobotTruth.spawn(1, 0.0, 0.0, 0.0, 7.0)
        assert b.world_pose.yaw.radians == 7.0   # unwrapped storage
        # The relative yaw of a's body frame measured in b's.
        assert a.world_pose.yaw.radians - b.world_pose.yaw.radians == -3.0


class TestRotation3Z:
    def test_z_untouched(self):
        r = Rotation3Z.from_angle(1.1)
        v = r.apply([1.0, 2.0, 3.0])
        assert v[2] == 3.0

    @given(angles, coords, coords, coords)
    def test_inverse_roundtrip(self, ang, x, y, z):
        r = Rotation3Z.from_angle(ang)
        v = np.array([x, y, z])
        assert np.allclose(r.apply_inverse(r.apply(v)), v, atol=1e-9)

    @given(angles, angles)
    def test_compose_matches_angle_sum(self, a, b):
        # R(a) applied to the direction of angle b points along a + b.
        r = Rotation3Z.from_angle(a).apply([math.cos(b), math.sin(b), 0.0])
        assert r[0] == pytest.approx(math.cos(a + b), abs=1e-12)
        assert r[1] == pytest.approx(math.sin(a + b), abs=1e-12)

    def test_matrix_is_orthonormal(self):
        # The matrix whose columns are the rotated basis vectors.
        m = np.column_stack([Rotation3Z.from_angle(0.77).apply(e) for e in np.eye(3)])
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-15)
        assert np.linalg.det(m) == pytest.approx(1.0)

    @given(st.lists(st.tuples(angles, coords, coords, coords), min_size=1, max_size=6), angles)
    def test_row_stack_equals_per_row_bit_for_bit(self, rows, ang):
        # A (rows, 3) stack with one (c, s) per row, or one shared (c, s),
        # rotates every row exactly as the 3-vector call on that row does.
        yaw = np.array([r[0] for r in rows])
        v = np.array([r[1:] for r in rows])
        per_row = Rotation3Z(np.cos(yaw), np.sin(yaw))
        shared = Rotation3Z.from_angle(ang)
        for name in ("apply", "apply_inverse"):
            stacked, stacked_shared = getattr(per_row, name)(v), getattr(shared, name)(v)
            assert stacked.shape == stacked_shared.shape == v.shape
            for n, row in enumerate(v):
                one = getattr(Rotation3Z(float(np.cos(yaw[n])), float(np.sin(yaw[n]))), name)(row)
                assert stacked[n].tobytes() == one.tobytes()
                assert stacked_shared[n].tobytes() == getattr(shared, name)(row).tobytes()
