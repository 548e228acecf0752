"""Linear-in-parameters range regression and the recorded-data matrix.

Two consecutive range measurements plus both robots' odometry increments
pin one linear equation  y = Theta' Phi  in the 7 unknowns

    Theta = [p0 (3), R(theta0)' p0_h (2), cos(theta0), sin(theta0)]

where p0 is the initial relative position in the observing robot's
odometry frame and theta0 the initial relative frame yaw.  Expanding the
squared-distance difference between the two samples:

    ybar = (d_{k+1}^2 - d_k^2 - |u_i|^2 - |u_j|^2)/2
           - u_i.p_i - u_j.p_j + u_iz*p_jz + p_iz*u_jz + u_iz*u_jz
    Psi  = [u_ih, u_iz - u_jz, -u_jh, -a, -b]
    a    = u_ih.p_jh + p_ih.u_jh + u_ih.u_jh
    b    = cross2(p_jh, u_ih) + cross2(u_jh, p_ih) + cross2(u_jh, u_ih)

with u the per-interval displacement and p the cumulative displacement at
the interval start, each in the robot's own odometry frame.  The stored
sample is the normalized pair (Phi, y) = (Psi, ybar)/|Psi|.  On noise-free
data y = Theta' Phi holds to machine precision; the test suite enforces
this end to end, so any sign or term error here cannot survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import cross2
from .world import RobotTruth, VelocityCommand, step, world_distance

THETA_DIM = 7

# Samples with a shorter regressor carry no information and would divide by zero.
PSI_EPS = 1e-8


class EmptyRecord(ValueError):
    """Eigenvalue ratio requested from a record with no samples."""


@dataclass(frozen=True)
class RegressorSample:
    """Unit-norm regressor and matching scalar observation for one interval."""

    phi: np.ndarray
    y: float
    t_k: int


def build_sample(d_k: float, d_k1: float,
                 odom_i: tuple[np.ndarray, np.ndarray],
                 odom_j: tuple[np.ndarray, np.ndarray],
                 t_k: int = 0) -> RegressorSample | None:
    """Assemble one normalized sample from consecutive-tick data.

    odom_i / odom_j are (cumulative position at t_k, displacement over
    [t_k, t_k+1]) in each robot's own odometry frame.  Returns None when
    |Psi| < PSI_EPS (degenerate interval, e.g. both robots stationary);
    the caller skips the estimator update for that tick.
    """
    p_i, u_i = (np.asarray(v, dtype=float) for v in odom_i)
    p_j, u_j = (np.asarray(v, dtype=float) for v in odom_j)

    a = float(u_i[:2] @ p_j[:2] + p_i[:2] @ u_j[:2] + u_i[:2] @ u_j[:2])
    b = cross2(p_j[:2], u_i[:2]) + cross2(u_j[:2], p_i[:2]) + cross2(u_j[:2], u_i[:2])

    psi = np.array([u_i[0], u_i[1], u_i[2] - u_j[2], -u_j[0], -u_j[1], -a, -b])
    ybar = (0.5 * (d_k1 ** 2 - d_k ** 2 - u_i @ u_i - u_j @ u_j)
            - u_i @ p_i - u_j @ p_j
            + u_i[2] * p_j[2] + p_i[2] * u_j[2] + u_i[2] * u_j[2])

    norm = float(np.linalg.norm(psi))
    if norm < PSI_EPS:
        return None
    return RegressorSample(psi / norm, float(ybar / norm), t_k)


@dataclass(frozen=True)
class RecordPolicy:
    """Retention policy for the recorded-data history.

    At capacity a candidate replaces the lowest-leverage sample only when
    the swap strictly grows the information volume det(S + eps I); the
    criterion targets the weak directions first (the determinant gain of a
    sample is largest where the record is thinnest), so a rank-deficient
    record always accepts samples that open new directions.
    """

    hist_cap: int = 64
    # Regularizer for the volume criterion; far below any meaningful eigenvalue.
    eps: float = 1e-8
    # Required relative determinant gain for a swap; suppresses churn.
    min_gain: float = 1e-9


class DataRecord:
    """Recorded samples with incrementally maintained information matrix.

    S = sum(phi phi') over the retained history drives the eigenvalue
    bookkeeping; the stacked (phi, y) arrays are kept alongside so the
    estimator can replay innovations over the raw samples (which keeps the
    zero-innovation fixed point exact).  In planar (2D) scenarios the z row
    of the regressor is identically zero, so the eigenvalue summary is
    taken over the remaining 6 active dimensions; otherwise full rank could
    never be reached.

    The samples live in preallocated (hist_cap, 7) and (hist_cap,) buffers,
    sized by the largest policy hist_cap seen, one row per retained sample
    in history order: an accepted sample is written into the next free row,
    and an eviction shifts the rows after the evicted one up by one and
    writes the new sample last.  `phis` and `ys` are views of the filled
    rows, valid until the next `add`.
    """

    def __init__(self, planar: bool = False):
        self.history: list[RegressorSample] = []
        self.S = np.zeros((THETA_DIM, THETA_DIM))
        self._phi_buf = np.zeros((0, THETA_DIM))
        self._y_buf = np.zeros(0)
        self.phis = self._phi_buf
        self.ys = self._y_buf
        self.lambda_min = 0.0
        self.lambda_max = 0.0
        if planar:
            self.active = np.array([0, 1, 3, 4, 5, 6])
        else:
            self.active = np.arange(THETA_DIM)
        self._active_block = np.ix_(self.active, self.active)

    def __len__(self) -> int:
        return len(self.history)

    def _eigs(self, S: np.ndarray) -> tuple[float, float]:
        w = np.linalg.eigvalsh(S[self._active_block])
        return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)

    def _reserve(self, cap: int) -> None:
        """Grow the sample buffers to `cap` rows, keeping the filled ones."""
        n = len(self.history)
        phi_buf = np.zeros((cap, THETA_DIM))
        y_buf = np.zeros(cap)
        phi_buf[:n] = self._phi_buf[:n]
        y_buf[:n] = self._y_buf[:n]
        self._phi_buf, self._y_buf = phi_buf, y_buf
        self.phis, self.ys = phi_buf[:n], y_buf[:n]

    def _write_last(self, sample: RegressorSample) -> None:
        """Store the sample in the row of the last history entry, then
        refresh the views and the eigenvalue summary."""
        n = len(self.history)
        self._phi_buf[n - 1] = sample.phi
        self._y_buf[n - 1] = sample.y
        self.phis = self._phi_buf[:n]
        self.ys = self._y_buf[:n]
        self.lambda_min, self.lambda_max = self._eigs(self.S)

    def add(self, sample: RegressorSample, policy: RecordPolicy = RecordPolicy()) -> bool:
        """Record a sample, enforcing the retention policy.  Returns True if kept."""
        if len(self._phi_buf) < policy.hist_cap:
            self._reserve(policy.hist_cap)
        if len(self.history) < policy.hist_cap:
            self.history.append(sample)
            self.S += np.outer(sample.phi, sample.phi)
            self._write_last(sample)
            return True

        # Volume criterion on the active block.  gain_add = phi' P phi is the
        # determinant ratio of adding the candidate; the leverage of each
        # retained sample under the grown matrix prices its removal.
        act = self.active
        phi_a = sample.phi[act]
        S_grown = self.S[self._active_block] + np.outer(phi_a, phi_a)
        P = np.linalg.inv(S_grown + policy.eps * np.eye(len(act)))
        hist_a = self.phis[:, act]
        leverages = np.einsum("ij,jk,ik->i", hist_a, P, hist_a)
        cand_lev = float(phi_a @ P @ phi_a)
        idx = int(np.argmin(leverages))
        if leverages[idx] >= cand_lev:
            return False
        gain_add = cand_lev / max(1.0 - cand_lev, policy.eps)
        swap_gain = (1.0 + gain_add) * (1.0 - leverages[idx])
        if swap_gain <= 1.0 + policy.min_gain:
            return False
        evicted = self.history.pop(idx)
        self.history.append(sample)
        self.S += np.outer(sample.phi, sample.phi) - np.outer(evicted.phi, evicted.phi)
        # Same row order as the history list: close the gap, append last.
        n = len(self.history)
        self._phi_buf[idx:n - 1] = self._phi_buf[idx + 1:n]
        self._y_buf[idx:n - 1] = self._y_buf[idx + 1:n]
        self._write_last(sample)
        return True

    def rebuilt_S(self) -> np.ndarray:
        """Information matrix recomputed from scratch (reconstruction check)."""
        S = np.zeros((THETA_DIM, THETA_DIM))
        for s in self.history:
            S += np.outer(s.phi, s.phi)
        return S


def excitation_ratio(data: DataRecord) -> float:
    """lambda_min / lambda_max of the recorded information matrix, in [0, 1]."""
    if len(data) == 0:
        raise EmptyRecord("no recorded samples")
    if data.lambda_max <= 0.0:
        return 0.0
    return data.lambda_min / data.lambda_max


@dataclass(frozen=True)
class ThetaTrue:
    """Ground-truth parameter vector for one ordered pair (test/metrics only)."""

    p0: np.ndarray          # initial relative position in frame O_i
    q0_h: np.ndarray        # R(theta0)' applied to the horizontal part of p0
    c0: float
    s0: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.p0[0], self.p0[1], self.p0[2],
                         self.q0_h[0], self.q0_h[1], self.c0, self.s0])

    @classmethod
    def from_truths(cls, truth_i: RobotTruth, truth_j: RobotTruth) -> "ThetaTrue":
        """Built from the robots' initial states (odometry must still be zero)."""
        for t in (truth_i, truth_j):
            if float(np.linalg.norm(t.odom_pose.position())) > 0 or t.odom_pose.yaw.radians != 0:
                raise ValueError("ThetaTrue must be computed from initial states")
        psi_i0 = truth_i.initial_world_yaw()
        psi_j0 = truth_j.initial_world_yaw()
        theta0 = psi_j0 - psi_i0
        diff = truth_i.world_pose.position() - truth_j.world_pose.position()
        c, s = np.cos(psi_i0), np.sin(psi_i0)
        p0 = np.array([c * diff[0] + s * diff[1], -s * diff[0] + c * diff[1], diff[2]])
        c0, s0 = np.cos(theta0), np.sin(theta0)
        q0_h = np.array([c0 * p0[0] + s0 * p0[1], -s0 * p0[0] + c0 * p0[1]])
        return cls(p0, q0_h, float(c0), float(s0))


@dataclass(frozen=True)
class RankDiagnosis:
    """Zero-row / rank summary of an information matrix."""

    zero_rows: tuple[int, ...]      # 0-based indices of identically zero rows
    rank: int
    position_block_rank: int        # rank of S[0:3, 0:3]
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class MotionProfile:
    """Scripted pairwise motion: initial truths plus per-tick commands."""

    truth_i: RobotTruth
    truth_j: RobotTruth
    command_i: Callable[[float], VelocityCommand]
    command_j: Callable[[float], VelocityCommand]


def observability_probe(profile: MotionProfile, ticks: int = 100,
                        dt: float = 0.05, zero_tol: float = 1e-12) -> RankDiagnosis:
    """Run a noise-free scripted pair and classify what the data can observe.

    Accumulates the uncapped information matrix over the run and reports
    its identically-zero rows and rank structure.  Degenerate relative
    motion shows up as zero blocks: a stationary observer kills the
    position and yaw rows, a stationary neighbor the yaw rows, matched
    vertical motion the z row, and straight-line motion collapses the
    position block to rank one.
    """
    ti, tj = profile.truth_i, profile.truth_j
    S = np.zeros((THETA_DIM, THETA_DIM))
    for k in range(ticks):
        t = k * dt
        ni = step(ti, profile.command_i(t), dt)
        nj = step(tj, profile.command_j(t), dt)
        sample = build_sample(
            world_distance(ti, tj), world_distance(ni, nj),
            (ti.odom_pose.position(), ni.odom_pose.position() - ti.odom_pose.position()),
            (tj.odom_pose.position(), nj.odom_pose.position() - tj.odom_pose.position()),
            t_k=k)
        if sample is not None:
            S += np.outer(sample.phi, sample.phi)
        ti, tj = ni, nj

    row_mag = np.abs(S).max(axis=1)
    zero_rows = tuple(int(r) for r in np.flatnonzero(row_mag <= zero_tol))
    eig = np.linalg.eigvalsh(S)
    rank = int(np.sum(eig > 1e-9 * max(eig[-1], 1.0)))
    pos_eig = np.linalg.eigvalsh(S[:3, :3])
    pos_rank = int(np.sum(pos_eig > 1e-9 * max(pos_eig[-1], 1.0)))
    return RankDiagnosis(zero_rows, rank, pos_rank,
                         max(float(eig[0]), 0.0), max(float(eig[-1]), 0.0))
