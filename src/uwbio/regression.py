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
`RecordBank` holds the records of all pairs, as rows of (phi, y, t_k)
arrays, and takes one retention decision for them.  A `DataRecord` views
one pair's rows; its `history` builds `RegressorSample`s from them, a list
valid until the pair's next sample.  `true_thetas` gives the Theta each
pair is scored against, from tick-0 truth rows via `world.frame_offset`.
The one-pair front ends `build_sample`, `DataRecord.add` and
`excitation_ratio` are kept for `benchmarks/tracing.py` until ROADMAP
item 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Rotation3Z, cross2, row_norms
from .world import RobotTruth, VelocityCommand, advance, frame_offset, frame_yaw

THETA_DIM = 7

# Samples with a shorter regressor carry no information and would divide by zero.
PSI_EPS = 1e-8

# Default number of samples a record retains.
HIST_CAP = 64
# Regularizer of the retention volume criterion; far below any meaningful eigenvalue.
VOLUME_EPS = 1e-8
# Relative determinant gain a retention swap must exceed; suppresses churn.
MIN_SWAP_GAIN = 1e-9


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
    norm = row_norms(psi)
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


def pair_index(rows: list[int], pairs: int) -> list[int] | slice:
    """Numpy index of ascending, distinct rows of a `pairs`-long pair
    axis: a slice when every pair is in, which reads views, not copies."""
    return slice(None) if len(rows) == pairs else rows


class RecordBank:
    """The recorded-data matrices of several pairs, stacked on a leading
    pair axis, with one retention decision for all of them.

    Pair p keeps each retained sample once, oldest first, as one of rows
    0..n[p]-1 of `phis[p]`, `ys[p]` and `t_ks[p]`, next to its
    incrementally maintained information matrix S[p] = sum(phi phi') and
    the eigenvalue summary `lambda_min[p]`, `lambda_max[p]`.  The
    zero-innovation fixed point of the estimator stays exact because it
    replays innovations over these raw rows, not over S.  In planar (2D)
    scenarios the z row of the regressor is identically zero, so the
    eigenvalue summary and the retention decision use the remaining 6
    active dimensions; otherwise full rank could never be reached.

    `add_all` takes one candidate for each of several pairs, stacked as
    `build_samples` returns them.  A pair below `hist_cap` appends it; the
    pairs at capacity decide together, with one stacked inverse and
    leverage evaluation, whether the candidate replaces their
    lowest-leverage sample.  It does so only when the swap strictly grows
    the information volume det(S + VOLUME_EPS I), by more than
    MIN_SWAP_GAIN relative to it; the criterion targets the weak directions
    first (the determinant gain of a sample is largest where the record is
    thinnest), so a rank-deficient record always accepts samples that open
    new directions.  An eviction shifts the rows after the evicted one up
    and writes the new sample last, so the rows stay oldest first.
    """

    def __init__(self, pairs: int, planar: bool = False, hist_cap: int = HIST_CAP):
        self.hist_cap = hist_cap
        self.phis = np.zeros((pairs, hist_cap, THETA_DIM))
        self.ys = np.zeros((pairs, hist_cap))
        self.t_ks = np.zeros((pairs, hist_cap), dtype=int)
        self.S = np.zeros((pairs, THETA_DIM, THETA_DIM))
        self.n = [0] * pairs
        self.lambda_min = np.zeros(pairs)
        self.lambda_max = np.zeros(pairs)
        self.active = np.array([0, 1, 3, 4, 5, 6]) if planar else np.arange(THETA_DIM)
        # Index of the active dimensions: a view where all are active.
        self._act = self.active if planar else slice(None)
        self._block = (slice(None), self.active[:, None], self.active) if planar else ()
        self._eye = np.eye(len(self.active))
        self._views: dict[int, list[RegressorSample]] = {}   # DataRecord.history

    def add_all(self, rows: list[int], phi: np.ndarray, y: np.ndarray, t_k: int) -> list[bool]:
        """Offer the sample (phi[m], y[m]) of tick t_k to pair rows[m]
        (ascending pair rows); returns which were kept."""
        full = [m for m, r in enumerate(rows) if self.n[r] == self.hist_cap]
        # Candidate -> the row it replaces, or None, for the full records.
        swaps = dict(zip(full, self._retention([rows[m] for m in full],
                                               phi[pair_index(full, len(rows))])))
        kept = [swaps.get(m, m) is not None for m in range(len(rows))]
        new = [m for m, keep in enumerate(kept) if keep]
        if not new:
            return kept
        rows_k, sel = [rows[m] for m in new], pair_index(new, len(rows))
        phi, y = phi[sel], y[sel]
        delta = phi[:, :, None] * phi[:, None, :]
        for j, (r, m) in enumerate(zip(rows_k, new)):
            e, slot = swaps.get(m), self.n[r]
            if e is None:
                self.n[r] += 1
            else:
                delta[j] -= np.outer(self.phis[r, e], self.phis[r, e])
                # Keep the rows oldest first: close the gap, append last.
                slot -= 1
                self.phis[r, e:slot] = self.phis[r, e + 1:slot + 1]
                self.ys[r, e:slot] = self.ys[r, e + 1:slot + 1]
                self.t_ks[r, e:slot] = self.t_ks[r, e + 1:slot + 1]
            self.phis[r, slot], self.ys[r, slot], self.t_ks[r, slot] = phi[j], y[j], t_k
            self._views.pop(r, None)
        ix = pair_index(rows_k, len(self.n))
        self.S[ix] += delta
        w = np.linalg.eigvalsh(self.S[ix][self._block])
        for r, lo, hi in zip(rows_k, w[:, 0].tolist(), w[:, -1].tolist()):
            self.lambda_min[r] = max(lo, 0.0)
            self.lambda_max[r] = max(hi, 0.0)
        return kept

    def _retention(self, rows: list[int], phi: np.ndarray) -> list[int | None]:
        """Volume criterion on the active block for pairs at capacity: the
        row candidate phi[m] replaces in pair rows[m], or None.  gain_add =
        phi' P phi is the determinant ratio of adding the candidate; the
        same quadratic form of each retained row, its leverage under the
        grown matrix, prices its removal."""
        if not rows:
            return []
        ix = pair_index(rows, len(self.n))
        phi_a = phi[:, self._act]
        S_grown = self.S[ix][self._block] + phi_a[:, :, None] * phi_a[:, None, :]
        P = np.linalg.inv(S_grown + VOLUME_EPS * self._eye)
        hist_a = self.phis[ix][:, :, self._act]
        leverages = np.vecdot(hist_a @ P, hist_a)
        cand = np.vecdot(np.matmul(phi_a[:, None, :], P)[:, 0], phi_a).tolist()
        out = []
        for lev, idx, cand_lev in zip(leverages, leverages.argmin(axis=1).tolist(), cand):
            if lev[idx] >= cand_lev:
                out.append(None)
                continue
            gain_add = cand_lev / max(1.0 - cand_lev, VOLUME_EPS)
            swap_gain = (1.0 + gain_add) * (1.0 - lev[idx])
            out.append(None if swap_gain <= 1.0 + MIN_SWAP_GAIN else idx)
        return out


class DataRecord:
    """One pair's recorded samples: a view of row `row` of the RecordBank `bank`.
    `phis`/`ys` view the retained rows, oldest first (valid until the pair's
    next sample); `S`, `lambda_min` and `lambda_max` are the bank's entries
    for the pair.  `history` lists them as `RegressorSample`s: the same list,
    edits included, until the pair next takes a sample; edits never reach rows."""

    def __init__(self, bank: RecordBank, row: int):
        self.bank = bank
        self.row = row

    def __len__(self) -> int:
        return self.bank.n[self.row]

    @property
    def history(self) -> list[RegressorSample]:
        bank, row = self.bank, self.row
        if row not in bank._views:
            bank._views[row] = [RegressorSample(*s) for s in zip(
                self.phis.copy(), self.ys.tolist(), bank.t_ks[row, :len(self)].tolist())]
        return bank._views[row]

    @property
    def phis(self) -> np.ndarray:
        return self.bank.phis[self.row, :len(self)]

    @property
    def ys(self) -> np.ndarray:
        return self.bank.ys[self.row, :len(self)]

    @property
    def S(self) -> np.ndarray:
        return self.bank.S[self.row]

    @property
    def lambda_min(self) -> float:
        return float(self.bank.lambda_min[self.row])

    # Writable so the benchmark's self-test can corrupt a finished run's
    # eigenvalue and see its checks catch it.
    @lambda_min.setter
    def lambda_min(self, value: float) -> None:
        self.bank.lambda_min[self.row] = value

    @property
    def lambda_max(self) -> float:
        return float(self.bank.lambda_max[self.row])

    def add(self, sample: RegressorSample) -> bool:
        """Offer the pair one sample; returns whether it was kept (`RecordBank.add_all`)."""
        return self.bank.add_all([self.row], np.array([sample.phi], dtype=float),
                                  np.array([sample.y]), sample.t_k)[0]


def excitation_ratios(bank: RecordBank) -> list[float]:
    """lambda_min / lambda_max of every pair's recorded information
    matrix, in [0, 1]; 0 where lambda_max is 0 (an empty record)."""
    return [0.0 if hi <= 0.0 else lo / hi
            for lo, hi in zip(bank.lambda_min.tolist(), bank.lambda_max.tolist())]


def excitation_ratio(data: DataRecord) -> float:
    """lambda_min / lambda_max of one record, in [0, 1]: a front end to
    `excitation_ratios`, which reads 0 where this raises EmptyRecord."""
    if len(data) == 0:
        raise EmptyRecord("no recorded samples")
    return excitation_ratios(data.bank)[data.row]


def true_thetas(start, pairs) -> np.ndarray:
    """Ground-truth parameter vector of every ordered pair (i, j) of
    `pairs`, one (pairs, 7) row each, from the robots' truth rows `start`
    (`RobotTruth.as_row`) at tick 0: p0 is i's offset from j in i's
    initial odometry frame, theta0 the yaw of j's frame in i's (test and
    metrics path only).  Raises ValueError unless those robots' odometry is
    still zero."""
    start = np.asarray(start, dtype=float)
    a, b = start[[i for i, _ in pairs]], start[[j for _, j in pairs]]
    if np.any(a[:, 4:] != 0) or np.any(b[:, 4:] != 0):
        raise ValueError("true_thetas must be computed from initial states")
    p0 = frame_offset(a, b, a)
    theta0 = frame_yaw(b) - frame_yaw(a)
    c0, s0 = np.cos(theta0), np.sin(theta0)
    q0_h = Rotation3Z(c0, s0).apply_inverse(p0)[:, :2]
    return np.column_stack((p0, q0_h, c0, s0))


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

    Steps both robots with `world.advance`, builds every interval's sample
    in one `build_samples` call, sums the uncapped information matrix over
    them and reports its identically-zero rows and rank structure.
    Degenerate relative motion shows up as zero blocks: a stationary
    observer kills the position and yaw rows, a stationary neighbor the yaw
    rows, matched vertical motion the z row, and straight-line motion
    collapses the position block to rank one.
    """
    rows = [profile.truth_i.as_row(), profile.truth_j.as_row()]
    truth = np.empty((ticks + 1, 2, 8))
    truth[0] = rows
    for k in range(ticks):
        cmds = [profile.command_i(k * dt), profile.command_j(k * dt)]
        rows = truth[k + 1] = advance(rows, [(c.v_h, c.v_z, c.w) for c in cmds], dt)
    diff = truth[:, 0, :3] - truth[:, 1, :3]
    # [d^2, p_i, p_j] at every instant, each robot in its own odometry frame.
    at = np.column_stack((np.vecdot(diff, diff), truth[:, 0, 4:7], truth[:, 1, 4:7]))
    phi, _, valid = build_samples(at[:-1], np.diff(at, axis=0))
    S = phi[valid].T @ phi[valid]

    row_mag = np.abs(S).max(axis=1)
    zero_rows = tuple(int(r) for r in np.flatnonzero(row_mag <= zero_tol))
    eig = np.linalg.eigvalsh(S)
    rank = int(np.sum(eig > 1e-9 * max(eig[-1], 1.0)))
    pos_eig = np.linalg.eigvalsh(S[:3, :3])
    pos_rank = int(np.sum(pos_eig > 1e-9 * max(pos_eig[-1], 1.0)))
    return RankDiagnosis(zero_rows, rank, pos_rank,
                         max(float(eig[0]), 0.0), max(float(eig[-1]), 0.0))
