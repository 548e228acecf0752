"""Yaw rotations and angle bookkeeping.

Yaw rotations are carried as their (cos, sin) pair rather than as an angle,
so that a scaled trig pair coming out of a linear estimator can be projected
back onto the rotation group by plain normalization, without trig round
trips.  Odometry headings are kept unwrapped (cumulative); a bounded angle
is only ever read off a rotation (`Rotation3Z.yaw`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this magnitude a (cos, sin) pair carries no usable direction.
NORM_TOL = 1e-9


class DegenerateRotation(ValueError):
    """Trig pair is too close to (0, 0) to define a rotation."""


@dataclass(frozen=True)
class Angle:
    """Cumulative (unwrapped) angle in radians: odometry headings
    accumulate past +-pi."""

    radians: float


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


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis.  vecdot reduces each row with
    the same BLAS dot product np.linalg.norm takes on one vector, so each
    norm is bit-equal to np.linalg.norm of its row (its axis= form is not)."""
    return np.sqrt(np.vecdot(v, v))


def cross2(a, b) -> float:
    """Planar scalar cross product a_x*b_y - a_y*b_x (antisymmetric)."""
    return float(a[0]) * float(b[1]) - float(a[1]) * float(b[0])


@dataclass(frozen=True)
class Rotation3Z:
    """Yaw rotation as its unit (cos, sin) pair: planar block on x/y, identity
    on z.  `apply` and `apply_inverse` act on the last axis of a 3-vector or
    a (rows, 3) stack; `c` and `s` are scalars or hold one value per row.
    Both unpack the transposed input, so a 3-vector costs scalar arithmetic."""

    c: float
    s: float

    @classmethod
    def identity(cls) -> "Rotation3Z":
        return cls(1.0, 0.0)

    @classmethod
    def from_angle(cls, radians: float) -> "Rotation3Z":
        return cls(math.cos(radians), math.sin(radians))

    def yaw(self) -> float:
        return math.atan2(self.s, self.c)

    def apply(self, v) -> np.ndarray:
        x, y, z = np.asarray(v, dtype=float).T
        return np.ascontiguousarray(np.array([self.c * x - self.s * y,
                                              self.s * x + self.c * y, z]).T)

    def apply_inverse(self, v) -> np.ndarray:
        x, y, z = np.asarray(v, dtype=float).T
        return np.ascontiguousarray(np.array([self.c * x + self.s * y,
                                              -self.s * x + self.c * y, z]).T)
