"""Planar rotations, yaw-only 3D rotations and angle bookkeeping.

Yaw rotations are carried as their (cos, sin) pair rather than as an angle,
so that a scaled trig pair coming out of a linear estimator can be projected
back onto the rotation group by plain normalization, without trig round
trips.  Odometry headings are kept unwrapped (cumulative) and only wrapped
on explicit request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

# Below this magnitude a (cos, sin) pair carries no usable direction.
NORM_TOL = 1e-9


class DegenerateRotation(ValueError):
    """Trig pair is too close to (0, 0) to define a rotation."""


def wrap_angle(radians: float) -> float:
    """Map an angle to the principal interval (-pi, pi]."""
    return -((-radians + math.pi) % TAU - math.pi)


@dataclass(frozen=True)
class Angle:
    """Cumulative (unwrapped) angle in radians.

    Odometry headings accumulate past +-pi; ``wrapped()`` returns the
    principal value in (-pi, pi] when a bounded angle is needed.
    """

    radians: float

    def wrapped(self) -> float:
        return wrap_angle(self.radians)

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.radians + other.radians)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.radians - other.radians)

    def __neg__(self) -> "Angle":
        return Angle(-self.radians)


@dataclass(frozen=True)
class PlanarRotation:
    """Unit (cos, sin) pair: the horizontal block of a yaw rotation."""

    c: float
    s: float

    @classmethod
    def identity(cls) -> "PlanarRotation":
        return cls(1.0, 0.0)

    @classmethod
    def from_angle(cls, radians: float) -> "PlanarRotation":
        return cls(math.cos(radians), math.sin(radians))

    def angle(self) -> float:
        return math.atan2(self.s, self.c)

    def apply(self, v) -> np.ndarray:
        """Rotate a 2-vector."""
        v = np.asarray(v, dtype=float)
        return np.array([self.c * v[0] - self.s * v[1],
                         self.s * v[0] + self.c * v[1]])

    def apply_inverse(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.array([self.c * v[0] + self.s * v[1],
                         -self.s * v[0] + self.c * v[1]])

    def compose(self, other: "PlanarRotation") -> "PlanarRotation":
        # Renormalize so long composition chains keep c^2 + s^2 = 1.
        return norm_project(self.c * other.c - self.s * other.s,
                            self.s * other.c + self.c * other.s)

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.c, -self.s], [self.s, self.c]])


def unit_pair(c_raw: float, s_raw: float) -> tuple[float, float]:
    """Scale a (cos, sin) estimate onto the unit circle, as plain floats.

    Preserves atan2(s_raw, c_raw) exactly.  Raises DegenerateRotation when
    the pair is shorter than NORM_TOL, which signals an uninformative
    estimate; the caller keeps its previous rotation in that case.
    """
    # math.hypot, not np.hypot: the two differ in the last bit on about
    # 0.5% of random pairs.
    n = math.hypot(c_raw, s_raw)
    if n < NORM_TOL:
        raise DegenerateRotation(f"trig pair ({c_raw}, {s_raw}) has norm {n} < {NORM_TOL}")
    return c_raw / n, s_raw / n


def norm_project(c_raw: float, s_raw: float) -> PlanarRotation:
    """`unit_pair` as a PlanarRotation."""
    return PlanarRotation(*unit_pair(c_raw, s_raw))


def cross2(a, b) -> float:
    """Planar scalar cross product a_x*b_y - a_y*b_x (antisymmetric)."""
    return float(a[0]) * float(b[1]) - float(a[1]) * float(b[0])


@dataclass(frozen=True)
class Rotation3Z:
    """Yaw rotation embedded in 3D: planar block on x/y, identity on z."""

    planar: PlanarRotation

    @classmethod
    def identity(cls) -> "Rotation3Z":
        return cls(PlanarRotation.identity())

    @classmethod
    def from_angle(cls, radians: float) -> "Rotation3Z":
        return cls(PlanarRotation.from_angle(radians))

    @property
    def c(self) -> float:
        return self.planar.c

    @property
    def s(self) -> float:
        return self.planar.s

    def yaw(self) -> float:
        return self.planar.angle()

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        h = self.planar.apply(v[:2])
        return np.array([h[0], h[1], v[2]])

    def apply_inverse(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        h = self.planar.apply_inverse(v[:2])
        return np.array([h[0], h[1], v[2]])

    def compose(self, other: "Rotation3Z") -> "Rotation3Z":
        return Rotation3Z(self.planar.compose(other.planar))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(3)
        m[:2, :2] = self.planar.as_matrix()
        return m
