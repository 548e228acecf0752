"""Synthetic UWB ranging and inertial odometry with seeded noise streams.

Noise is injected on per-step displacements, not on cumulative positions,
so dead-reckoned odometry drifts like a random walk, which is what real
integrated odometry does.  Every sensor stream owns its own generator
derived from (master seed, stream tag), so adding a stream never perturbs
the draws of existing ones.  The front ends `RangeStream.sample` and
`OdomStream.update`, and `MeasurementTriplet`, are kept for
`benchmarks/tracing.py` until ROADMAP item 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .world import RobotTruth


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations and outlier mixture for the synthetic sensors."""

    sigma_range: float = 0.0
    sigma_odom_pos: float = 0.0      # per-step displacement noise, per axis
    sigma_odom_yaw: float = 0.0      # per-step yaw noise
    outlier_prob: float = 0.0
    sigma_outlier: float = 3.0


@dataclass(frozen=True)
class MeasurementTriplet:
    """One synchronized sample: range plus both cumulative odometries."""

    d: float
    z_i: np.ndarray
    z_j: np.ndarray
    t_k: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("distance must be >= 0")


def pair_rng(master_seed: int, i: int, j: int) -> np.random.Generator:
    """Range-measurement stream for the ordered pair (i, j)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, 1, i, j]))


def robot_rng(master_seed: int, i: int) -> np.random.Generator:
    """Odometry stream for robot i."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, 2, i]))


class RangeStream:
    """Per-pair range sensor that also reports which draws were injected outliers."""

    def __init__(self, noise: NoiseModel, master_seed: int, i: int, j: int):
        self.noise = noise
        self.rng = pair_rng(master_seed, i, j)

    def sample(self, truth_i: RobotTruth, truth_j: RobotTruth) -> tuple[float, bool]:
        """One draw for two robots' truths: a front end to `draw`."""
        return self.draw(float(np.linalg.norm(truth_i.world_pose.position()
                                              - truth_j.world_pose.position())))

    def draw(self, distance: float) -> tuple[float, bool]:
        """Noisy range for a true distance, and whether it is an injected outlier."""
        # One uniform + one normal per call regardless of the branch, so streams
        # stay aligned between runs that differ only in noise settings.  As
        # in odom_step, random() and 0.0 + sigma*z are bit for bit the
        # uniform() (0.0 + 1.0*x) and normal(0.0, sigma) they stand for.
        injected = bool(self.rng.random() < self.noise.outlier_prob)
        sigma = self.noise.sigma_outlier if injected else self.noise.sigma_range
        d = distance + (0.0 + sigma * self.rng.standard_normal())
        return max(d, 0.0), injected


def odom_step(cum: list, prev: list, nxt: list, noise: NoiseModel, rngs: list,
              planar: bool = False) -> list[list[float]]:
    """Advance every robot's dead-reckoned odometry by one step.

    `cum` holds each robot's cumulative odometry (x, y, z, yaw), `prev` and
    `nxt` its truth rows (`RobotTruth.as_row`) before and after the step,
    `rngs` its odometry generator.  The increment is the true odometry-frame
    displacement plus independent Gaussian noise per axis, and the yaw
    increment plus noise; in planar mode the z axis is frozen entirely.
    Returns the new cumulative rows.
    """
    sp, sy = noise.sigma_odom_pos, noise.sigma_odom_yaw
    out = []
    for (cx, cy, cz, cyaw), p, n, rng in zip(cum, prev, nxt, rngs):
        # One draw of four normals, scaled as 0.0 + sigma*z: bit for bit the
        # normal(0, sp, size=3) then normal(0, sy) it stands for, and the
        # generator ends in the same state.
        z0, z1, z2, z3 = rng.standard_normal(4).tolist()
        dz = 0.0 if planar else n[6] - p[6] + (0.0 + sp * z2)
        out.append([cx + (n[4] - p[4] + (0.0 + sp * z0)),
                    cy + (n[5] - p[5] + (0.0 + sp * z1)),
                    cz + dz,
                    cyaw + (n[7] - p[7] + (0.0 + sy * z3))])
    return out


class OdomStream:
    """Dead-reckoned cumulative odometry for one robot (running noisy sum)."""

    def __init__(self, noise: NoiseModel, master_seed: int, robot_id: int, planar: bool = False):
        self.noise = noise
        self.rng = robot_rng(master_seed, robot_id)
        self.planar = planar
        self.cum_pos = np.zeros(3)
        self.cum_yaw = 0.0

    def update(self, prev: RobotTruth, nxt: RobotTruth) -> None:
        """One step: a front end to `odom_step`."""
        (x, y, z, yaw), = odom_step([(*self.cum_pos.tolist(), self.cum_yaw)], [prev.as_row()],
                                    [nxt.as_row()], self.noise, [self.rng], self.planar)
        self.cum_pos = np.array([x, y, z])
        self.cum_yaw = yaw
