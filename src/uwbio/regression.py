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

Both the sample build and the record work on a leading pair axis:
`build_samples` assembles the samples of all pairs of a tick at once, and a
`RecordBank` holds the records of all pairs and takes one retention
decision for them.  `build_sample`, `DataRecord` and `excitation_ratio`
are their one-pair front ends.
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


# The dot products build_samples takes, as pairs of index lists into its
# rows [d_k^2, p_i, p_j, d_k1^2 - d_k^2, u_i, u_j] (14 wide): the
# horizontal (2-long) u_ih.p_jh, p_ih.u_jh, u_ih.u_jh and the 3-long
# u_i.u_i, u_j.u_j, u_i.p_i, u_j.p_j.
_HORIZ = np.array([[[8, 9], [1, 2], [8, 9]], [[4, 5], [11, 12], [11, 12]]])
_FULL = np.array([[[8, 9, 10], [11, 12, 13], [8, 9, 10], [11, 12, 13]],
                  [[8, 9, 10], [11, 12, 13], [1, 2, 3], [4, 5, 6]]])


def build_samples(prev: np.ndarray,
                  step: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the samples of m pairs at once.

    Row m of prev (m, 7) is [d_k^2, p_i, p_j]: the squared range and each
    robot's cumulative position at t_k; row m of step (m, 7) is
    [d_k1^2 - d_k^2, u_i, u_j]: its change and each robot's displacement
    over [t_k, t_k+1], all in the robot's own odometry frame.  Returns
    phi (m, 7), y (m,) and `valid` (m,), false where |Psi| < PSI_EPS
    (degenerate interval, e.g. both robots stationary; that row is not a
    sample).

    Every dot product is one BLAS reduction over all pairs, as `@` and
    np.linalg.norm take it on one pair's vectors; the few scalar terms
    per pair are Python float arithmetic in the one-pair order, cheaper
    than an array operation each for the pair counts of a swarm.
    """
    w = np.concatenate((prev, step), axis=1)
    horiz, full = w.take(_HORIZ, axis=1), w.take(_FULL, axis=1)
    psi, ybar = [], []
    for row, (h0, h1, h2), (uiui, ujuj, uipi, ujpj) in zip(
            w.tolist(), np.vecdot(horiz[:, 0], horiz[:, 1]).tolist(),
            np.vecdot(full[:, 0], full[:, 1]).tolist()):
        _, pix, piy, piz, pjx, pjy, pjz, ddsq, uix, uiy, uiz, ujx, ujy, ujz = row
        a = h0 + h1 + h2
        b = cross2((pjx, pjy), (uix, uiy)) + cross2((ujx, ujy), (pix, piy)) \
            + cross2((ujx, ujy), (uix, uiy))
        psi.append((uix, uiy, uiz - ujz, -ujx, -ujy, -a, -b))
        ybar.append(0.5 * (ddsq - uiui - ujuj) - uipi - ujpj
                    + uiz * pjz + piz * ujz + uiz * ujz)
    psi = np.array(psi).reshape(-1, THETA_DIM)
    norm = np.sqrt(np.vecdot(psi, psi))
    # Rows below PSI_EPS are no sample; dividing them by PSI_EPS instead
    # keeps them finite.
    scale = np.maximum(norm, PSI_EPS)
    return psi / scale[:, None], np.array(ybar) / scale, norm >= PSI_EPS


def build_sample(d_k: float, d_k1: float,
                 odom_i: tuple[np.ndarray, np.ndarray],
                 odom_j: tuple[np.ndarray, np.ndarray],
                 t_k: int = 0) -> RegressorSample | None:
    """Assemble one normalized sample from consecutive-tick data.

    odom_i / odom_j are (cumulative position at t_k, displacement over
    [t_k, t_k+1]) in each robot's own odometry frame.  Returns None when
    |Psi| < PSI_EPS (degenerate interval, e.g. both robots stationary);
    the caller skips the estimator update for that tick.  A front end to
    `build_samples` with one pair.
    """
    prev = np.concatenate(([d_k ** 2], odom_i[0], odom_j[0]), dtype=float)
    step = np.concatenate(([d_k1 ** 2 - d_k ** 2], odom_i[1], odom_j[1]), dtype=float)
    phi, y, valid = build_samples(prev[None], step[None])
    if not valid[0]:
        return None
    return RegressorSample(phi[0], float(y[0]), t_k)


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


def pair_index(rows: list[int], pairs: int) -> list[int] | slice:
    """Numpy index of ascending, distinct rows of a `pairs`-long pair
    axis: a slice when every pair is in, which reads views, not copies."""
    return slice(None) if len(rows) == pairs else rows


class RecordBank:
    """The recorded-data matrices of several pairs, stacked on a leading
    pair axis, with one retention decision for all of them.

    Pair p keeps its retained samples, oldest first, in `history[p]` and
    their (phi, y) in rows 0..n[p]-1 of `phis[p]` and `ys[p]`, next to its
    incrementally maintained information matrix S[p] = sum(phi phi') and
    the eigenvalue summary `lambda_min[p]`, `lambda_max[p]`.  The
    zero-innovation fixed point of the estimator stays exact because it
    replays innovations over these raw rows, not over S.  In planar (2D)
    scenarios the z row of the regressor is identically zero, so the
    eigenvalue summary and the retention decision use the remaining 6
    active dimensions; otherwise full rank could never be reached.

    `add_all` takes one candidate for each of several pairs.  A pair below
    `hist_cap` appends it; the pairs at capacity decide together, with one
    stacked inverse and leverage evaluation, whether the candidate replaces
    their lowest-leverage sample (see RecordPolicy).  An eviction shifts
    the rows after the evicted one up and writes the new sample last, the
    row order of `history`.  The buffers grow to the largest hist_cap seen.
    """

    def __init__(self, pairs: int, planar: bool = False):
        self.history: list[list[RegressorSample]] = [[] for _ in range(pairs)]
        self.phis = np.zeros((pairs, 0, THETA_DIM))
        self.ys = np.zeros((pairs, 0))
        self.S = np.zeros((pairs, THETA_DIM, THETA_DIM))
        self.n = [0] * pairs
        self.lambda_min = np.zeros(pairs)
        self.lambda_max = np.zeros(pairs)
        self.active = np.array([0, 1, 3, 4, 5, 6]) if planar else np.arange(THETA_DIM)
        # Index of the active dimensions: a view where all are active.
        self._act = self.active if planar else slice(None)
        self._block = (slice(None), self.active[:, None], self.active) if planar else ()
        self._eye = np.eye(len(self.active))

    def _reserve(self, cap: int) -> None:
        """Grow the sample buffers to `cap` rows, keeping the filled ones."""
        grow = cap - self.phis.shape[1]
        self.phis = np.pad(self.phis, ((0, 0), (0, grow), (0, 0)))
        self.ys = np.pad(self.ys, ((0, 0), (0, grow)))

    def add_all(self, rows: list[int], samples: list[RegressorSample],
                policy: RecordPolicy = RecordPolicy()) -> list[bool]:
        """Offer samples[m] to pair rows[m] (ascending pair rows); returns
        which were kept."""
        if self.phis.shape[1] < policy.hist_cap:
            self._reserve(policy.hist_cap)
        full = [m for m, r in enumerate(rows) if self.n[r] >= policy.hist_cap]
        # Candidate -> the row it replaces, or None, for the full records.
        swaps = dict(zip(full, self._retention([rows[m] for m in full],
                                               [samples[m] for m in full], policy)))
        kept = [swaps.get(m, m) is not None for m in range(len(rows))]
        new = [m for m, keep in enumerate(kept) if keep]
        if not new:
            return kept
        rows_k = [rows[m] for m in new]
        phi = np.array([samples[m].phi for m in new], dtype=float)
        delta = phi[:, :, None] * phi[:, None, :]
        for j, (r, m) in enumerate(zip(rows_k, new)):
            e, slot = swaps.get(m), self.n[r]
            if e is None:
                self.n[r] += 1
            else:
                delta[j] -= np.outer(self.phis[r, e], self.phis[r, e])
                # Same row order as the history list: close the gap, append last.
                del self.history[r][e]
                slot -= 1
                self.phis[r, e:slot] = self.phis[r, e + 1:slot + 1]
                self.ys[r, e:slot] = self.ys[r, e + 1:slot + 1]
            self.history[r].append(samples[m])
            self.phis[r, slot] = phi[j]
            self.ys[r, slot] = samples[m].y
        ix = pair_index(rows_k, len(self.n))
        self.S[ix] += delta
        w = np.linalg.eigvalsh(self.S[ix][self._block])
        for r, lo, hi in zip(rows_k, w[:, 0].tolist(), w[:, -1].tolist()):
            self.lambda_min[r] = max(lo, 0.0)
            self.lambda_max[r] = max(hi, 0.0)
        return kept

    def _retention(self, rows: list[int], samples: list[RegressorSample],
                   policy: RecordPolicy) -> list[int | None]:
        """Volume criterion on the active block for pairs at capacity: the
        row each candidate replaces, or None.  gain_add = phi' P phi is the
        determinant ratio of adding the candidate; the leverage of each
        retained sample under the grown matrix prices its removal."""
        if not rows:
            return []
        ix = pair_index(rows, len(self.n))
        phi_a = np.array([s.phi for s in samples], dtype=float)[:, self._act]
        S_grown = self.S[ix][self._block] + phi_a[:, :, None] * phi_a[:, None, :]
        P = np.linalg.inv(S_grown + policy.eps * self._eye)
        lengths = [self.n[r] for r in rows]
        hist_a = self.phis[ix, :max(lengths)][:, :, self._act]
        leverages = np.einsum("pij,pjk,pik->pi", hist_a, P, hist_a)
        if min(lengths) < max(lengths):
            # Records past hist_cap (a policy shrank between adds) differ in length.
            for lev, n in zip(leverages, lengths):
                lev[n:] = np.inf
        cand = np.vecdot(np.matmul(phi_a[:, None, :], P)[:, 0], phi_a).tolist()
        out = []
        for lev, idx, cand_lev in zip(leverages, leverages.argmin(axis=1).tolist(), cand):
            if lev[idx] >= cand_lev:
                out.append(None)
                continue
            gain_add = cand_lev / max(1.0 - cand_lev, policy.eps)
            swap_gain = (1.0 + gain_add) * (1.0 - lev[idx])
            out.append(None if swap_gain <= 1.0 + policy.min_gain else idx)
        return out


class DataRecord:
    """One pair's recorded samples: a view of one row of a RecordBank.

    A record made with `DataRecord(planar)` owns a bank of one pair;
    `DataRecord(bank=bank, row=p)` reads pair p of a shared bank.
    `history` lists the retained samples oldest first, `phis`/`ys` are
    views of their rows (valid until the next add), and `S`, `lambda_min`
    and `lambda_max` are the bank's entries for the pair.
    """

    def __init__(self, planar: bool = False, bank: RecordBank | None = None, row: int = 0):
        self._bank = RecordBank(1, planar) if bank is None else bank
        self._row = row

    def __len__(self) -> int:
        return self._bank.n[self._row]

    @property
    def history(self) -> list[RegressorSample]:
        return self._bank.history[self._row]

    @property
    def phis(self) -> np.ndarray:
        return self._bank.phis[self._row, :len(self)]

    @property
    def ys(self) -> np.ndarray:
        return self._bank.ys[self._row, :len(self)]

    @property
    def S(self) -> np.ndarray:
        return self._bank.S[self._row]

    @property
    def active(self) -> np.ndarray:
        return self._bank.active

    @property
    def lambda_min(self) -> float:
        return float(self._bank.lambda_min[self._row])

    @lambda_min.setter
    def lambda_min(self, value: float) -> None:
        self._bank.lambda_min[self._row] = value

    @property
    def lambda_max(self) -> float:
        return float(self._bank.lambda_max[self._row])

    @lambda_max.setter
    def lambda_max(self, value: float) -> None:
        self._bank.lambda_max[self._row] = value

    def add(self, sample: RegressorSample, policy: RecordPolicy = RecordPolicy()) -> bool:
        """Record a sample, enforcing the retention policy.  Returns True if kept."""
        return self._bank.add_all([self._row], [sample], policy)[0]

    def rebuilt_S(self) -> np.ndarray:
        """Information matrix recomputed from scratch (reconstruction check)."""
        S = np.zeros((THETA_DIM, THETA_DIM))
        for s in self.history:
            S += np.outer(s.phi, s.phi)
        return S


def excitation_ratios(bank: RecordBank) -> list[float]:
    """lambda_min / lambda_max of every pair's recorded information
    matrix, in [0, 1]; 0 where lambda_max is 0 (an empty record)."""
    return [0.0 if hi <= 0.0 else lo / hi
            for lo, hi in zip(bank.lambda_min.tolist(), bank.lambda_max.tolist())]


def excitation_ratio(data: DataRecord) -> float:
    """lambda_min / lambda_max of one record, in [0, 1]."""
    if len(data) == 0:
        raise EmptyRecord("no recorded samples")
    return excitation_ratios(data._bank)[data._row]


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
