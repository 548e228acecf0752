import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwbio.geometry import (Angle, DegenerateRotation, PlanarRotation, Rotation3Z,
                            cross2, norm_project, wrap_angle)

angles = st.floats(-50.0, 50.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


class TestNormProject:
    def test_identity_passthrough(self):
        r = norm_project(1.0, 0.0)
        assert (r.c, r.s) == (1.0, 0.0)

    def test_positive_scaling(self):
        r = norm_project(2.0, 0.0)
        assert (r.c, r.s) == (1.0, 0.0)

    def test_scaled_rotation(self):
        r = norm_project(3 * math.cos(0.7), 3 * math.sin(0.7))
        assert abs(r.c - math.cos(0.7)) < 1e-12
        assert abs(r.s - math.sin(0.7)) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateRotation):
            norm_project(1e-10, -1e-10)

    @given(angles, st.floats(1e-6, 1e6))
    def test_idempotent(self, ang, scale):
        r1 = norm_project(scale * math.cos(ang), scale * math.sin(ang))
        r2 = norm_project(r1.c, r1.s)
        assert abs(r1.c - r2.c) < 1e-12 and abs(r1.s - r2.s) < 1e-12

    @given(angles, st.floats(1e-6, 1e6))
    def test_angle_preserved(self, ang, scale):
        c_raw, s_raw = scale * math.cos(ang), scale * math.sin(ang)
        r = norm_project(c_raw, s_raw)
        assert r.angle() == pytest.approx(math.atan2(s_raw, c_raw), abs=1e-12)

    @given(angles, st.floats(1e-6, 1e6))
    def test_unit_norm(self, ang, scale):
        r = norm_project(scale * math.cos(ang), scale * math.sin(ang))
        assert abs(r.c ** 2 + r.s ** 2 - 1.0) < 1e-12


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
    """PlanarRotation.apply on horizontal 2-vectors."""

    def test_identity(self):
        v = PlanarRotation.identity().apply((1.0, 2.0))
        assert np.allclose(v, [1.0, 2.0], atol=0)

    def test_quarter_turn(self):
        v = PlanarRotation.from_angle(math.pi / 2).apply((1.0, 0.0))
        assert np.allclose(v, [0.0, 1.0], atol=1e-15)

    def test_matrix_oracle(self):
        r = PlanarRotation.from_angle(0.3)
        v = np.array([0.4, -0.2])
        expected = np.array([[math.cos(0.3), -math.sin(0.3)],
                             [math.sin(0.3), math.cos(0.3)]]) @ v
        assert np.allclose(r.apply(v), expected, atol=1e-15)

    @given(angles, coords, coords)
    def test_norm_preserved(self, ang, x, y):
        v = np.array([x, y])
        out = PlanarRotation.from_angle(ang).apply(v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * max(1, np.linalg.norm(v))

    @given(angles, coords, coords, coords, coords)
    def test_rotation_identity_pins_orientation(self, ang, ux, uy, px, py):
        # u' R(theta) p = cos(theta) (u.p) + sin(theta) cross2(p, u)
        u, p = np.array([ux, uy]), np.array([px, py])
        lhs = u @ PlanarRotation.from_angle(ang).apply(p)
        rhs = math.cos(ang) * (u @ p) + math.sin(ang) * cross2(p, u)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


class TestAngle:
    def test_wrap_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    @given(angles)
    def test_wrapped_in_range(self, a):
        w = Angle(a).wrapped()
        assert -math.pi < w <= math.pi
        # Same direction as the unwrapped angle.
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)

    def test_cumulative_arithmetic(self):
        a = Angle(3.0) + Angle(4.0)
        assert a.radians == 7.0   # unwrapped storage
        assert (Angle(1.0) - Angle(4.0)).radians == -3.0


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
        r = Rotation3Z.from_angle(a).compose(Rotation3Z.from_angle(b))
        assert r.c == pytest.approx(math.cos(a + b), abs=1e-12)
        assert r.s == pytest.approx(math.sin(a + b), abs=1e-12)

    def test_matrix_is_orthonormal(self):
        m = Rotation3Z.from_angle(0.77).as_matrix()
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-15)
        assert np.linalg.det(m) == pytest.approx(1.0)
