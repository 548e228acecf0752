"""Ground-truth kinematics for a swarm of unicycle robots.

Each robot carries two poses that advance together: the world pose, used
only to synthesize sensor data and to score estimates, and the odometry
pose, i.e. the cumulative displacement in the frame fixed at the robot's
own start pose (x-axis along the initial heading).  Integration uses exact
circular arcs so that frame-consistency identities hold to near machine
precision over long runs.  Every ground truth is computed from truth rows
(`RobotTruth.as_row`) by `frame_offset`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Angle, Rotation3Z

# Below this yaw rate the arc degenerates to a straight segment.
OMEGA_EPS = 1e-8


@dataclass(frozen=True)
class Pose4:
    """Planar position, altitude and yaw in some named frame."""

    x: float
    y: float
    z: float
    yaw: Angle

    @classmethod
    def zero(cls) -> "Pose4":
        return cls(0.0, 0.0, 0.0, Angle(0.0))

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class VelocityCommand:
    """Body-frame command: forward speed, vertical speed, yaw rate."""

    v_h: float
    v_z: float
    w: float


@dataclass(frozen=True)
class RobotTruth:
    """World pose plus odometry-frame bookkeeping for one robot."""

    id: int
    world_pose: Pose4
    odom_pose: Pose4

    @classmethod
    def spawn(cls, id: int, x: float, y: float, z: float, yaw: float) -> "RobotTruth":
        """New robot at a world pose; odometry starts exactly at zero."""
        return cls(id, Pose4(x, y, z, Angle(yaw)), Pose4.zero())

    @classmethod
    def from_row(cls, id: int, row) -> "RobotTruth":
        """Inverse of `as_row`."""
        wx, wy, wz, wyaw, ox, oy, oz, oyaw = (float(v) for v in row)
        return cls(id, Pose4(wx, wy, wz, Angle(wyaw)), Pose4(ox, oy, oz, Angle(oyaw)))

    def as_row(self) -> tuple[float, ...]:
        """World pose then odometry pose, each as x, y, z, yaw."""
        w, o = self.world_pose, self.odom_pose
        return (w.x, w.y, w.z, w.yaw.radians, o.x, o.y, o.z, o.yaw.radians)


def advance(rows: list, cmds: list, dt: float) -> list[list[float]]:
    """Integrate the unicycle kinematics of every robot over one step.

    `rows` holds one `RobotTruth.as_row` per robot, `cmds` its body-frame
    command as (v_h, v_z, w); returns the stepped rows.  The same
    heading-relative displacement is applied to the world pose and to the
    odometry pose, each expressed through its own current yaw, which keeps
    the two books exactly consistent up to rounding.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = []
    for (wx, wy, wz, wyaw, ox, oy, oz, oyaw), (v_h, v_z, w) in zip(rows, cmds):
        # Planar displacement over dt relative to the heading at the start
        # of the step: an exact arc, or a straight segment at a tiny yaw rate.
        if abs(w) > OMEGA_EPS:
            dlx = (v_h / w) * math.sin(w * dt)
            dly = (v_h / w) * (1.0 - math.cos(w * dt))
        else:
            dlx, dly = v_h * dt, 0.0
        dz = v_z * dt
        dyaw = w * dt
        cw, sw = math.cos(wyaw), math.sin(wyaw)
        co, so = math.cos(oyaw), math.sin(oyaw)
        # Evaluated left to right: x + c*dlx - s*dly is (x + c*dlx) - s*dly.
        out.append([wx + cw * dlx - sw * dly, wy + sw * dlx + cw * dly, wz + dz, wyaw + dyaw,
                    ox + co * dlx - so * dly, oy + so * dlx + co * dly, oz + dz, oyaw + dyaw])
    return out


def step(state: RobotTruth, cmd: VelocityCommand, dt: float) -> RobotTruth:
    """One robot's step: a front end to `advance`."""
    row, = advance([state.as_row()], [(cmd.v_h, cmd.v_z, cmd.w)], dt)
    return RobotTruth.from_row(state.id, row)


def frame_yaw(rows) -> np.ndarray:
    """World yaw of the initial odometry frame of truth rows
    (`RobotTruth.as_row`, one or a stack): yaw minus odometry yaw."""
    rows = np.asarray(rows, dtype=float)
    return rows[..., 3] - rows[..., 7]


def frame_offset(a, b, frame) -> np.ndarray:
    """World position offset a - b of truth rows (one each, or (m, 8)
    stacks) in the initial odometry frame of the truth row `frame`, one
    for all rows or one per row.  Truth scoring and truth feedback only;
    estimators never see this."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    psi0 = frame_yaw(frame)
    return Rotation3Z(np.cos(psi0), np.sin(psi0)).apply_inverse(a[..., :3] - b[..., :3])
