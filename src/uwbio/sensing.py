"""Synthetic UWB ranging and inertial odometry with seeded noise streams.

Noise is injected on per-step displacements, not on cumulative positions,
so dead-reckoned odometry drifts like a random walk, which is what real
integrated odometry does.  Every sensor stream owns its own generator
derived from (master seed, stream tag), so adding a stream never perturbs
the draws of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Angle
from .world import RobotTruth, world_distance


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations and outlier mixture for the synthetic sensors."""

    sigma_range: float = 0.0
    sigma_odom_pos: float = 0.0      # per-step displacement noise, per axis
    sigma_odom_yaw: float = 0.0      # per-step yaw noise
    outlier_prob: float = 0.0
    sigma_outlier: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_range", "sigma_odom_pos", "sigma_odom_yaw", "sigma_outlier"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError("outlier_prob must be in [0, 1]")


@dataclass(frozen=True)
class OdomBroadcast:
    """Cumulative odometry a robot shares with its neighbors over the radio."""

    sender: int
    t_k: int
    cum_pos: np.ndarray        # p^{O_j}_j(t_k), 3-vector
    cum_yaw: Angle             # phi^{O_j}(t_k), unwrapped


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
        return self.draw(world_distance(truth_i, truth_j))

    def draw(self, distance: float) -> tuple[float, bool]:
        """Noisy range for a true distance, and whether it is an injected outlier."""
        # One uniform + one normal per call regardless of the branch, so streams
        # stay aligned between runs that differ only in noise settings.
        injected = bool(self.rng.uniform() < self.noise.outlier_prob)
        sigma = self.noise.sigma_outlier if injected else self.noise.sigma_range
        d = distance + self.rng.normal(0.0, sigma)
        return max(d, 0.0), injected


def measure_odom(prev: RobotTruth, nxt: RobotTruth, noise: NoiseModel,
                 rng: np.random.Generator, planar: bool = False) -> tuple[np.ndarray, Angle]:
    """Noisy per-step odometry increment between consecutive truths of one robot.

    Returns the displacement in the robot's odometry frame plus independent
    Gaussian noise per axis, and the yaw increment plus noise.  In planar
    mode the z axis is frozen entirely.
    """
    delta = nxt.odom_pose.position() - prev.odom_pose.position()
    delta = delta + rng.normal(0.0, noise.sigma_odom_pos, size=3)
    if planar:
        delta[2] = 0.0
    dyaw = (nxt.odom_pose.yaw.radians - prev.odom_pose.yaw.radians
            + rng.normal(0.0, noise.sigma_odom_yaw))
    return delta, Angle(dyaw)


class OdomStream:
    """Dead-reckoned cumulative odometry for one robot (running noisy sum)."""

    def __init__(self, noise: NoiseModel, master_seed: int, robot_id: int, planar: bool = False):
        self.noise = noise
        self.rng = robot_rng(master_seed, robot_id)
        self.robot_id = robot_id
        self.planar = planar
        self.cum_pos = np.zeros(3)
        self.cum_yaw = 0.0

    def update(self, prev: RobotTruth, nxt: RobotTruth) -> None:
        delta, dyaw = measure_odom(prev, nxt, self.noise, self.rng, self.planar)
        self.cum_pos = self.cum_pos + delta
        self.cum_yaw += dyaw.radians

    def broadcast(self, t_k: int) -> OdomBroadcast:
        return OdomBroadcast(self.robot_id, t_k, self.cum_pos.copy(), Angle(self.cum_yaw))
