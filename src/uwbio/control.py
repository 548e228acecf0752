"""Formation tracking errors and the two-stage controller.

Stage one drives each follower on a scripted circle (plus a vertical
sinusoid in 3D) purely to excite the pair estimators.  Once every robot's
recorded data is sufficiently excited, the whole swarm switches to the
tracking law, which feeds the estimated formation error back around the
leader's command.  The y error enters only through the w0-coupled term;
that asymmetry is part of the control law, not an omission.  The front ends
`stage1_command`, `stage2_command`, `tracking_error_estimated` and
`tracking_error_truth` of the `*_rows` passes, and their `TrackingError`,
are kept for `benchmarks/tracing.py` until ROADMAP item 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .geometry import Angle, Rotation3Z
from .world import RobotTruth, VelocityCommand, frame_offset, frame_yaw

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


def tracking_error_truth_rows(robots, leader, offsets) -> np.ndarray:
    """Ground-truth formation error of m robots from their (m, 8)
    `RobotTruth.as_row` rows, the leader's row and the desired offsets (the
    leader row and the offset each one for all or one per robot), as one
    (e_p x, y, z, e_c, e_s) row per robot: truth scoring, and the controller
    input of the truth_feedback ablation."""
    robots = np.asarray(robots, dtype=float)
    leader = np.asarray(leader, dtype=float)
    p_i0 = frame_offset(robots, leader, leader)
    ang = robots[:, 3] - frame_yaw(leader)
    e_p = Rotation3Z(np.cos(ang), np.sin(ang)).apply_inverse(
        p_i0 - np.asarray(offsets, dtype=float))
    theta = robots[:, 3] - leader[..., 3]
    return np.column_stack((e_p, 1.0 - np.cos(theta), np.sin(theta)))


def tracking_error_truth(robot: RobotTruth, leader: RobotTruth,
                         offset: np.ndarray) -> TrackingError:
    """One robot's true formation error: a front end to
    `tracking_error_truth_rows`."""
    row, = tracking_error_truth_rows([robot.as_row()], leader.as_row(), offset).tolist()
    return TrackingError(np.array(row[:3]), row[3], row[4])


def tracking_error_rows(rt: list, lead: list, odom: list, offsets: list) -> list[list[float]]:
    """Formation error of every robot from its leader-relative estimate.

    Per robot: `rt` holds the real-time leader-relative position q_hat in
    its odometry frame and the body-frame relative yaw trig pair
    (c_sigma, s_sigma) (`cooploc.leader_realtime_rows`), `lead` its leader
    estimate row, whose trig pair is the estimated odometry-frame rotation
    Q0_hat to the leader, `odom` its cumulative odometry (x, y, z, yaw) and
    `offsets` its desired offset.  Returns one (e_p x, y, z, e_c, e_s) row
    per robot.
    """
    out = []
    for (qx, qy, qz, c_sigma, s_sigma), lrow, orow, (fx, fy, fz) in zip(rt, lead, odom, offsets):
        c0, s0 = lrow[3], lrow[4]
        phi = orow[3]
        cp, sp = math.cos(phi), math.sin(phi)
        # Trig of the robot's body yaw measured in the leader's odometry frame.
        c_os = c0 * cp + s0 * sp
        s_os = c0 * sp - s0 * cp
        ax = c0 * qx + s0 * qy - fx
        ay = -s0 * qx + c0 * qy - fy
        az = qz - fz
        out.append([c_os * ax + s_os * ay, -s_os * ax + c_os * ay, az,
                    1.0 - c_sigma, s_sigma])
    return out


def tracking_error_estimated(q_hat: np.ndarray, Q0_hat: Rotation3Z,
                             c_sigma: float, s_sigma: float,
                             own_cum_yaw: Angle, offset: np.ndarray) -> TrackingError:
    """One robot's formation error from its leader-relative estimate: a
    front end to `tracking_error_rows`."""
    row, = tracking_error_rows(
        [(*np.asarray(q_hat, dtype=float).tolist(), c_sigma, s_sigma)],
        [(0.0, 0.0, 0.0, Q0_hat.c, Q0_hat.s)], [(0.0, 0.0, 0.0, own_cum_yaw.radians)],
        [np.asarray(offset, dtype=float).tolist()])
    return TrackingError(np.array(row[:3]), row[3], row[4])


def stage1_rows(robots: Sequence[RobotConfig], t: float) -> list[tuple[float, float, float]]:
    """Scripted excitation circle of every robot from its own stage-one
    parameters, as (v_h, v_z, w): v_h = r*c_w, sinusoidal climb, constant
    yaw rate."""
    return [(r.r * r.c_w, r.c_v * math.sin(r.c_v * t), r.c_w) for r in robots]


def stage1_command(robot: RobotConfig, t: float) -> VelocityCommand:
    """One robot's stage-one command: a front end to `stage1_rows`."""
    return VelocityCommand(*stage1_rows([robot], t)[0])


def stage2_rows(lead: tuple[float, float, float], errors: list,
                gains: ControlGains) -> list[tuple[float, float, float]]:
    """Tracking law around the leader command (v_h, v_z, w) for every
    robot's estimated error row (e_p x, y, z, e_c, e_s), as (v_h, v_z, w)."""
    v_h, v_z, w = lead
    k1, k2, k3, k4 = gains.k1, gains.k2, gains.k3, gains.k4
    return [(v_h - k1 * e[0] + k2 * w * e[1], v_z - k4 * e[2], w - k3 * e[4]) for e in errors]


def stage2_command(leader_cmd: VelocityCommand, e_hat: TrackingError,
                   gains: ControlGains) -> VelocityCommand:
    """One robot's stage-two command: a front end to `stage2_rows`."""
    e = (*e_hat.e_p.tolist(), e_hat.e_c, e_hat.e_s)
    return VelocityCommand(*stage2_rows((leader_cmd.v_h, leader_cmd.v_z, leader_cmd.w),
                                        [e], gains)[0])


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
