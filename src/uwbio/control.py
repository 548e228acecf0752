"""Formation tracking errors and the two-stage controller.

Stage one drives each follower on a scripted circle (plus a vertical
sinusoid in 3D) purely to excite the pair estimators.  Once every robot's
recorded data is sufficiently excited, the whole swarm switches to the
tracking law, which feeds the estimated formation error back around the
leader's command.  The y error enters only through the w0-coupled term;
that asymmetry is part of the control law, not an omission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .geometry import Angle, PlanarRotation, Rotation3Z
from .world import RobotTruth, VelocityCommand

if TYPE_CHECKING:
    from .config import RobotConfig


class ExcitationTimeout(RuntimeError):
    """Stage one exceeded its configured maximum duration."""


@dataclass(frozen=True)
class ControlGains:
    """Tracking gains of the stage-two law, shared by all robots."""

    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self):
        # k4 = 0 is legitimate for planar runs (no altitude channel to close).
        if self.k1 <= 0 or self.k2 <= 0 or self.k3 <= 0 or self.k4 < 0:
            raise ValueError("gains must satisfy k1, k2, k3 > 0 and k4 >= 0")


@dataclass(frozen=True)
class FormationSpec:
    """Desired offset of each robot in the leader odometry frame."""

    offsets: Mapping[int, np.ndarray]

    def __post_init__(self):
        for rid, off in self.offsets.items():
            off = np.asarray(off, dtype=float)
            if off.shape != (3,) or not np.all(np.isfinite(off)):
                raise ValueError(f"offset for robot {rid} must be a finite 3-vector")
        if 0 in self.offsets and np.linalg.norm(self.offsets[0]) > 0:
            raise ValueError("leader offset must be zero")

    def offset(self, robot: int) -> np.ndarray:
        return np.asarray(self.offsets.get(robot, np.zeros(3)), dtype=float)


@dataclass(frozen=True)
class TrackingError:
    """Body-frame position error plus the (1 - cos, sin) yaw error pair."""

    e_p: np.ndarray
    e_c: float
    e_s: float

    def yaw_error(self) -> float:
        """Relative yaw angle recovered from the trig error pair."""
        return math.atan2(self.e_s, 1.0 - self.e_c)


def tracking_error_truth(robot: RobotTruth, leader: RobotTruth,
                         offset: np.ndarray) -> TrackingError:
    """Ground-truth formation error: truth scoring, and the controller input
    of the truth_feedback ablation."""
    psi_00 = leader.initial_world_yaw()
    psi_i = robot.world_pose.yaw.radians
    p_i0 = Rotation3Z.from_angle(psi_00).apply_inverse(
        robot.world_pose.position() - leader.world_pose.position())
    e_p = Rotation3Z.from_angle(psi_i - psi_00).apply_inverse(p_i0 - np.asarray(offset, dtype=float))
    theta = psi_i - leader.world_pose.yaw.radians
    return TrackingError(e_p, 1.0 - math.cos(theta), math.sin(theta))


def tracking_error_estimated(q_hat: np.ndarray, Q0_hat: Rotation3Z,
                             c_sigma: float, s_sigma: float,
                             own_cum_yaw: Angle, offset: np.ndarray) -> TrackingError:
    """Formation error from the leader-relative estimate.

    q_hat is the real-time leader-relative position in the robot's odometry
    frame, (c_sigma, s_sigma) the body-frame relative yaw trig pair, and
    Q0_hat the estimated odometry-frame rotation to the leader.
    """
    phi_i = own_cum_yaw.radians
    c0, s0 = Q0_hat.c, Q0_hat.s
    # Trig of the robot's body yaw measured in the leader's odometry frame.
    c_os = c0 * math.cos(phi_i) + s0 * math.sin(phi_i)
    s_os = c0 * math.sin(phi_i) - s0 * math.cos(phi_i)
    arg = Q0_hat.apply_inverse(q_hat) - np.asarray(offset, dtype=float)
    e_p = Rotation3Z(PlanarRotation(c_os, s_os)).apply_inverse(arg)
    return TrackingError(e_p, 1.0 - c_sigma, s_sigma)


def stage1_command(robot: RobotConfig, t: float) -> VelocityCommand:
    """Scripted excitation circle from the robot's own stage-one parameters:
    v_h = r*c_w, sinusoidal climb, constant yaw rate."""
    return VelocityCommand(robot.r * robot.c_w,
                           robot.c_v * math.sin(robot.c_v * t),
                           robot.c_w)


def stage2_command(leader_cmd: VelocityCommand, e_hat: TrackingError,
                   gains: ControlGains) -> VelocityCommand:
    """Tracking law around the leader command using the estimated error."""
    v_h = leader_cmd.v_h - gains.k1 * e_hat.e_p[0] + gains.k2 * leader_cmd.w * e_hat.e_p[1]
    v_z = leader_cmd.v_z - gains.k4 * e_hat.e_p[2]
    w = leader_cmd.w - gains.k3 * e_hat.e_s
    return VelocityCommand(v_h, v_z, w)


class StageTracker:
    """Per-robot stage-one completion flags behind a global barrier.

    A robot is done once the excitation ratio of every one of its pruned
    neighbor records has reached the threshold.  Stage two starts globally
    at the first tick when every robot is done; the barrier is checked
    omnisciently by the harness.
    """

    def __init__(self, robots: Sequence[int], threshold: float = 0.1,
                 timeout_ticks: int | None = None):
        self.threshold = threshold
        self.timeout_ticks = timeout_ticks
        self.done = {r: False for r in robots}
        self.transition_tick: int | None = None

    @property
    def stage2_active(self) -> bool:
        return self.transition_tick is not None

    def update(self, t_k: int, ratios: Mapping[int, Sequence[float]]) -> bool:
        """Feed this tick's per-robot neighbor excitation ratios.

        Returns True once stage two is active (from the tick after all
        robots finish).  Raises ExcitationTimeout when the configured
        stage-one budget is exhausted first.
        """
        if self.stage2_active:
            return True
        for robot, rs in ratios.items():
            # Vacuously done for robots with nothing to excite (the leader).
            if not self.done[robot] and all(r >= self.threshold for r in rs):
                self.done[robot] = True
        if all(self.done.values()):
            self.transition_tick = t_k + 1
            return False  # stage two begins next tick
        if self.timeout_ticks is not None and t_k >= self.timeout_ticks:
            pending = [r for r, d in self.done.items() if not d]
            raise ExcitationTimeout(
                f"robots {pending} not sufficiently excited after {t_k} ticks")
        return False

    def in_stage2(self, t_k: int) -> bool:
        return self.transition_tick is not None and t_k >= self.transition_tick
