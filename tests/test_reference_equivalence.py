"""The stacked screen, record and estimator, and the per-robot row passes,
against their loop versions.

`JudgeBank` keeps every pair's accepted triplets in a fixed ring and votes
for all pairs with one array expression; `RecordBank` keeps every pair's
samples in preallocated buffers, shifts rows on an eviction and takes one
retention decision for all full records; `cl_update_all` steps all pairs
that got a sample at once.  None of them changes the arithmetic, so they
must reproduce the plain one-pair loop versions below bit for bit on any
input, for one pair (`JudgeBank(1, ...)`, a one-row `RecordBank`) and for
several pairs at different fill states side by side: the same
verdicts and queue contents, the same stacked samples, S, eigenvalues and
estimates.  The reference classes are copies of the implementations the
array versions replaced, without their argument checks and docstrings.
Truth scoring likewise takes the row norms of a whole log at once, where
the tick loop once took them one row at a time, and the tracking errors of
all ticks at once, where it once called the one-robot truth error per tick.
The per-robot layers (physics and odometry, layered composition, real-time
estimate and tracking error, commands, truth feedback) run as one pass over
float rows per tick, against copies of the one-robot object code they
replaced, and the observability probe steps and samples its pair with the
same passes, against its per-tick loop.  Every ground truth goes through
`world.frame_offset` and `regression.true_thetas`, against copies of the
one-robot and one-pair truth code they replaced.
"""

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import Verdict, circle_cmd, distance, random_dag
from test_golden import GOLDEN, csv_digests
from uwbio import control, cooploc, estimation, harness, outliers, regression, sensing, world
from uwbio.config import RandomInit, RobotConfig, Saturation
from uwbio.control import ControlGains, tracking_error_rows
from uwbio.cooploc import assign_layers, compose_layers, composition_plan, leader_realtime_rows
from uwbio.estimation import cl_update_all, learning_rate, reconstruct_poses
from uwbio.geometry import NORM_TOL, Angle, DegenerateRotation, Rotation3Z, cross2, row_norms
from uwbio.harness import run
from uwbio.outliers import JudgeBank
from uwbio.regression import (MIN_SWAP_GAIN, PSI_EPS, THETA_DIM, VOLUME_EPS, DataRecord,
                              MotionProfile, RankDiagnosis, RecordBank, RegressorSample,
                              observability_probe, true_thetas)
from uwbio.scenarios import chain_swarm, four_robot_formation
from uwbio.sensing import NoiseModel, RangeStream, odom_step
from uwbio.world import OMEGA_EPS, Pose4, RobotTruth, VelocityCommand, advance, frame_offset


@dataclass(frozen=True)
class Triplet:
    """One synchronized sample: range plus both cumulative odometries."""

    d: float
    z_i: np.ndarray
    z_j: np.ndarray
    t_k: int


class Err(NamedTuple):
    """Body-frame position error plus the (1 - cos, sin) yaw error pair."""

    e_p: np.ndarray
    e_c: float
    e_s: float


class ReferenceJudgeQueue:
    """Bounded queue of accepted triplets used to vote on new candidates."""

    def __init__(self, capacity: int = 20, threshold: float = 0.5):
        self.capacity = capacity
        self.threshold = threshold
        self.entries: deque[Triplet] = deque(maxlen=capacity)

    def screen(self, candidate: Triplet) -> Verdict:
        votes = 0
        for entry in self.entries:
            slack = (np.linalg.norm(candidate.z_i - entry.z_i)
                     + np.linalg.norm(candidate.z_j - entry.z_j))
            if abs(candidate.d - entry.d) >= slack:
                votes += 1
        size = len(self.entries)
        is_outlier = size > 0 and votes / size > self.threshold
        if not is_outlier:
            self.entries.append(candidate)   # deque evicts the oldest at capacity
        return Verdict(is_outlier, votes, size)


class ReferenceDataRecord:
    """Recorded samples, re-stacked from the history on every kept sample."""

    def __init__(self, planar: bool = False, hist_cap: int = 64):
        self.hist_cap = hist_cap
        self.history: list[RegressorSample] = []
        self.S = np.zeros((THETA_DIM, THETA_DIM))
        self.phis = np.zeros((0, THETA_DIM))
        self.ys = np.zeros(0)
        self.lambda_min = 0.0
        self.lambda_max = 0.0
        if planar:
            self.active = np.array([0, 1, 3, 4, 5, 6])
        else:
            self.active = np.arange(THETA_DIM)

    def _eigs(self, S: np.ndarray) -> tuple[float, float]:
        w = np.linalg.eigvalsh(S[np.ix_(self.active, self.active)])
        return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)

    def _restack(self) -> None:
        if self.history:
            self.phis = np.stack([s.phi for s in self.history])
            self.ys = np.array([s.y for s in self.history])
        else:
            self.phis = np.zeros((0, THETA_DIM))
            self.ys = np.zeros(0)
        self.lambda_min, self.lambda_max = self._eigs(self.S)

    def add(self, sample: RegressorSample) -> bool:
        outer = np.outer(sample.phi, sample.phi)
        if len(self.history) < self.hist_cap:
            self.history.append(sample)
            self.S += outer
            self._restack()
            return True
        act = self.active
        phi_a = sample.phi[act]
        S_grown = self.S[np.ix_(act, act)] + np.outer(phi_a, phi_a)
        P = np.linalg.inv(S_grown + VOLUME_EPS * np.eye(len(act)))
        hist_a = self.phis[:, act]
        leverages = np.einsum("ij,jk,ik->i", hist_a, P, hist_a)
        cand_lev = float(phi_a @ P @ phi_a)
        idx = int(np.argmin(leverages))
        if leverages[idx] >= cand_lev:
            return False
        gain_add = cand_lev / max(1.0 - cand_lev, VOLUME_EPS)
        swap_gain = (1.0 + gain_add) * (1.0 - leverages[idx])
        if swap_gain <= 1.0 + MIN_SWAP_GAIN:
            return False
        evicted = self.history.pop(idx)
        self.history.append(sample)
        self.S += outer - np.outer(evicted.phi, evicted.phi)
        self._restack()
        return True


def reference_cl_update(theta: np.ndarray, data: ReferenceDataRecord,
                        current: RegressorSample, variant: str) -> np.ndarray:
    """One concurrent-learning step of one pair, as a loop over pairs took it."""
    lam_u = float(current.phi @ current.phi)
    if variant == "stated":
        denom = lam_u + data.lambda_max ** 2
    else:
        denom = (lam_u + data.lambda_max) ** 2
    eta = 0.0 if denom <= 0.0 else data.lambda_min / denom
    if eta == 0.0:
        return theta
    resid = data.phis @ theta - data.ys
    grad = data.phis.T @ resid
    grad += current.phi * (current.phi @ theta - current.y)
    return theta - eta * grad


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def triplet_stream(seed: int, n: int, coarse: bool) -> list[Triplet]:
    """Random triplets; `coarse` draws every value from {0, 1}, so that
    exact ties between range difference and odometry slack are common."""
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.integers(0, 2, size) * 1.0 if coarse else rng.normal(0.0, 2.0, size)

    return [Triplet(float(abs(draw(None))), draw(3), draw(3), k) for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), threshold=st.floats(0.05, 0.95),
       n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), coarse=st.booleans())
def test_judge_queue_matches_reference(capacity, threshold, n, seed, coarse):
    bank = JudgeBank(1, capacity, threshold)
    ref = ReferenceJudgeQueue(capacity, threshold)
    for cand in triplet_stream(seed, n, coarse):
        want = ref.screen(cand)
        out, votes, size = bank.screen_all(np.array([cand.d]),
                                           np.concatenate((cand.z_i, cand.z_j))[None])
        assert Verdict(out[0], votes[0], size[0]) == want
        assert bank.size[0] == len(ref.entries)
    assert queued(bank, 0) == [(e.d, bits(e.z_i), bits(e.z_j)) for e in ref.entries]


def sample_stream(seed: int, n: int, planar: bool) -> list[RegressorSample]:
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(n):
        phi = rng.normal(size=THETA_DIM) * rng.uniform(0.05, 1.0, THETA_DIM)
        if planar:
            phi[2] = 0.0    # planar regressors have no z component
        phi /= np.linalg.norm(phi)
        samples.append(RegressorSample(phi, float(rng.normal()), k))
    return samples


@settings(max_examples=100, deadline=None)
@given(hist_cap=st.integers(7, 12), n=st.integers(0, 50),
       seed=st.integers(0, 2**32 - 1), planar=st.booleans())
def test_data_record_matches_reference(hist_cap, n, seed, planar):
    bank, ref = RecordBank(1, planar, hist_cap), ReferenceDataRecord(planar, hist_cap)
    rec = DataRecord(bank, 0)
    for s in sample_stream(seed, n, planar):
        assert bank.add_all([0], s.phi[None], np.array([s.y]), s.t_k) == [ref.add(s)]
        assert bits(rec.phis) == bits(ref.phis)
        assert bits(rec.ys) == bits(ref.ys)
        assert bits(rec.S) == bits(ref.S)
        assert (rec.lambda_min, rec.lambda_max) == (ref.lambda_min, ref.lambda_max)
    assert [(bits(s.phi), s.y, s.t_k) for s in rec.history] == \
        [(bits(s.phi), s.y, s.t_k) for s in ref.history]


def test_data_record_streams_evict():
    # The generated streams really reach the eviction path, in both modes.
    for planar in (False, True):
        bank = RecordBank(1, planar, hist_cap=7)
        kept = [bank.add_all([0], s.phi[None], np.array([s.y]), s.t_k)[0]
                for s in sample_stream(1, 50, planar)]
        assert bank.n == [7]
        assert sum(kept[7:]) > 0


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 7]), st.lists(st.lists(finite, min_size=7, max_size=7), max_size=30),
       st.lists(st.booleans(), max_size=30))
def test_row_norms_equal_per_row_norm(width, rows, nan_rows):
    """Truth scoring takes all row norms at once; every row, NaN rows (ticks
    before an estimate exists) included, must equal np.linalg.norm of it."""
    d = np.array(rows, dtype=float).reshape(-1, 7)[:, :width]
    d[[i for i, nan in enumerate(nan_rows[:len(d)]) if nan]] = np.nan
    got = row_norms(d)
    want = np.array([np.linalg.norm(row) for row in d])
    assert got.tobytes() == want.tobytes()


def padded_cl_update_all(theta, bank, rows, phi, y, variant="stated"):
    """cl_update_all with every record zero-padded to the longest one and
    one stacked product for all pairs, instead of one per record length."""
    lam_min, lam_max = bank.lambda_min.tolist(), bank.lambda_max.tolist()
    eta = [learning_rate(lam_min[r], lam_max[r], lam_u, variant)
           for r, lam_u in zip(rows, np.vecdot(phi, phi).tolist())]
    sel = [m for m, rate in enumerate(eta) if rate != 0.0]
    if sel:
        r = [rows[m] for m in sel]
        length = max(bank.n[p] for p in r)
        phis, th = bank.phis[r, :length], theta[r]
        resid = np.matmul(phis, th[:, :, None])[:, :, 0] - bank.ys[r, :length]
        grad = np.matmul(phis.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]
        grad += phi[sel] * (np.vecdot(phi[sel], th) - y[sel])[:, None]
        theta[r] = th - np.array([eta[m] for m in sel])[:, None] * grad
    return [rate != 0.0 for rate in eta]


def queued(judges: JudgeBank, p: int) -> list:
    """Pair p's queued triplets, oldest first, as (d, z_i, z_j) bits."""
    ring = np.roll(judges.ring[p, :judges.size[p]], -(judges.count[p] % judges.capacity),
                   axis=0)
    return [(r[0], bits(r[1:4]), bits(r[4:7])) for r in ring]


def check_pairs_against_reference(seed: int, n_pairs: int, planar: bool, hist_cap: int,
                                  variant: str, steps: int,
                                  cl_step=cl_update_all) -> tuple[list[int], int]:
    """Drive a JudgeBank, a RecordBank and a stacked estimate for n_pairs
    pairs, each pair prefilled to its own length (some below hist_cap, some
    full and evicting) and then offered samples in random subsets, and
    check every step bit for bit against one loop reference per pair.
    Returns the prefilled lengths and the number of evictions."""
    rng = np.random.default_rng(seed)
    bank = RecordBank(n_pairs, planar, hist_cap)
    refs = [ReferenceDataRecord(planar, hist_cap) for _ in range(n_pairs)]
    theta = rng.normal(size=(n_pairs, THETA_DIM))
    ref_theta = [row.copy() for row in theta]
    streams = [iter(sample_stream(int(rng.integers(2**32)), 4 * hist_cap + steps, planar))
               for _ in range(n_pairs)]
    for p in range(n_pairs):
        for _ in range(int(rng.integers(0, 2 * hist_cap))):
            s = next(streams[p])
            assert bank.add_all([p], s.phi[None], np.array([s.y]), s.t_k) == [refs[p].add(s)]
    prefilled, evictions = list(bank.n), 0
    judges = JudgeBank(n_pairs, int(rng.integers(1, 7)), float(rng.uniform(0.05, 0.95)))
    ref_judges = [ReferenceJudgeQueue(judges.capacity, judges.threshold) for _ in range(n_pairs)]
    triplets = [triplet_stream(int(rng.integers(2**32)), steps, bool(rng.integers(2)))
                for _ in range(n_pairs)]
    for k in range(steps):
        cands = [triplets[p][k] for p in range(n_pairs)]
        got = judges.screen_all(np.array([c.d for c in cands]),
                                np.array([np.concatenate((c.z_i, c.z_j)) for c in cands]))
        want = [ref_judges[p].screen(c) for p, c in enumerate(cands)]
        assert [Verdict(*r) for r in zip(*got)] == want

        rows = sorted(int(p) for p in
                      rng.choice(n_pairs, int(rng.integers(1, n_pairs + 1)), replace=False))
        samples = [next(streams[p]) for p in rows]
        full = [bank.n[p] == hist_cap for p in rows]
        phi, y = np.array([s.phi for s in samples]), np.array([s.y for s in samples])
        kept = bank.add_all(rows, phi, y, k)
        evictions += sum(keep and f for keep, f in zip(kept, full))
        assert kept == [refs[p].add(s) for p, s in zip(rows, samples)]
        cl_step(theta, bank, rows, phi, y, variant)
        for p, s in zip(rows, samples):
            ref_theta[p] = reference_cl_update(ref_theta[p], refs[p], s, variant)
        for p in range(n_pairs):
            rec = DataRecord(bank, p)
            assert bits(rec.phis) == bits(refs[p].phis)
            assert bits(rec.ys) == bits(refs[p].ys)
            assert bits(rec.S) == bits(refs[p].S)
            assert (rec.lambda_min, rec.lambda_max) == (refs[p].lambda_min, refs[p].lambda_max)
            assert bits(theta[p]) == bits(ref_theta[p])
    for p in range(n_pairs):
        assert queued(judges, p) == [(e.d, bits(e.z_i), bits(e.z_j))
                                     for e in ref_judges[p].entries]
    return prefilled, evictions


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(1, 5), planar=st.booleans(),
       hist_cap=st.integers(7, 16), variant=st.sampled_from(["stated", "proof"]))
def test_stacked_pairs_match_reference(seed, n_pairs, planar, hist_cap, variant):
    check_pairs_against_reference(seed, n_pairs, planar, hist_cap, variant, steps=40)


def test_stacked_pairs_reach_every_fill_state():
    # A five-pair run holds records below capacity and full ones side by
    # side, and the full ones evict, in both modes.
    for planar in (False, True):
        prefilled, evictions = check_pairs_against_reference(3, 5, planar, 8, "stated", 40)
        assert min(prefilled) < 8 <= max(prefilled)
        assert evictions > 0


def test_cl_update_on_a_run_record_matches_reference():
    """A run's final estimators are views of one row of its stacked state;
    `cl_update_all` steps that pair alone, on an estimate array of the
    bank's pair axis, bit for bit as the loop reference, and leaves the
    run's estimate untouched."""
    res = run(chain_swarm(3, seed=1, noise=NoiseModel(0.05, 0.002, 0.001), duration_s=20.0))
    assert len(res.final_estimators) > 1
    for pair, est in res.final_estimators.items():
        rec = est.data
        ref = ReferenceDataRecord()
        ref.phis, ref.ys = rec.phis.copy(), rec.ys.copy()
        ref.lambda_min, ref.lambda_max = rec.lambda_min, rec.lambda_max
        before = est.theta_hat.copy()
        s = res.last_sample[pair]
        theta = np.zeros((len(rec.bank.n), THETA_DIM))
        theta[rec.row] = before
        assert cl_update_all(theta, rec.bank, [rec.row], s.phi[None], np.array([s.y]),
                             est.rate_variant) == [True]
        assert bits(theta[rec.row]) == bits(reference_cl_update(before, ref, s, est.rate_variant))
        assert bits(est.theta_hat) == bits(before)


def test_zero_padded_cl_fails_the_reference():
    """Stacking records of different lengths by zero-padding them to the
    longest sums some of them in another order (OpenBLAS, 7, 11, 15 rows
    against a longer record), which the check above sees."""
    failures = 0
    for seed in range(20):
        check_pairs_against_reference(seed, 5, False, 16, "stated", 40)
        try:
            check_pairs_against_reference(seed, 5, False, 16, "stated", 40,
                                          cl_step=padded_cl_update_all)
        except AssertionError:
            failures += 1
    assert failures > 0


def reference_tracking_error_truth(robot: RobotTruth, leader: RobotTruth,
                                   offset: np.ndarray) -> Err:
    """One robot's ground-truth formation error through Rotation3Z.from_angle
    and math.cos/math.sin."""
    psi_00 = leader.world_pose.yaw.radians - leader.odom_pose.yaw.radians
    psi_i = robot.world_pose.yaw.radians
    p_i0 = Rotation3Z.from_angle(psi_00).apply_inverse(
        robot.world_pose.position() - leader.world_pose.position())
    e_p = Rotation3Z.from_angle(psi_i - psi_00).apply_inverse(p_i0 - np.asarray(offset, dtype=float))
    theta = psi_i - leader.world_pose.yaw.radians
    return Err(e_p, 1.0 - math.cos(theta), math.sin(theta))


@pytest.mark.parametrize("config", [
    chain_swarm(3, seed=1, noise=NoiseModel(0.05, 0.002, 0.001), duration_s=10.0),
    four_robot_formation(noise=NoiseModel(0.05, 0.002, 0.001), seed=2, duration_s=10.0),
], ids=["chain3d", "formation_planar"])
def test_track_truth_equals_tracking_error_truth(config):
    """Truth scoring computes the tracking error of every tick at once; each
    row must equal the one-robot truth error on that tick's logged true
    poses."""
    res = run(config)
    for i, track in res.track_truth.items():
        want = []
        for row in res.truth:
            e = reference_tracking_error_truth(RobotTruth.from_row(i, row[i]),
                                               RobotTruth.from_row(0, row[0]),
                                               np.array(config.formation[i]))
            want.append([e.e_p[0], e.e_p[1], e.e_p[2], e.e_c, e.e_s])
        assert track.tobytes() == np.array(want).tobytes()


# -- ground truth ----------------------------------------------------------------
#
# Every truth the program scores against is an offset between truth rows in
# some robot's initial odometry frame, computed by `world.frame_offset`.  The
# references below are copies of the one-robot and one-pair code it
# replaced: `relative_truth`, `ThetaTrue.from_truths` and the lines of
# `_score_truth` that took each follower's frame from its tick-0 truth.


def reference_relative_truth(a: RobotTruth, b: RobotTruth) -> tuple[np.ndarray, Angle]:
    """Ground-truth relative position of (a minus b) in frame O_a, and
    the relative orientation of b's body frame measured in a's."""
    psi_a0 = a.world_pose.yaw.radians - a.odom_pose.yaw.radians
    diff = a.world_pose.position() - b.world_pose.position()
    p = Rotation3Z.from_angle(psi_a0).apply_inverse(diff)
    theta = b.world_pose.yaw.radians - a.world_pose.yaw.radians
    return p, Angle(theta)


def reference_theta_true(truth_i: RobotTruth, truth_j: RobotTruth) -> np.ndarray:
    """The ground-truth parameter vector of one pair from the robots'
    initial states (odometry must still be zero)."""
    for t in (truth_i, truth_j):
        if float(np.linalg.norm(t.odom_pose.position())) > 0 or t.odom_pose.yaw.radians != 0:
            raise ValueError("ThetaTrue must be computed from initial states")
    psi_i0 = truth_i.world_pose.yaw.radians - truth_i.odom_pose.yaw.radians
    theta0 = (truth_j.world_pose.yaw.radians - truth_j.odom_pose.yaw.radians) - psi_i0
    diff = truth_i.world_pose.position() - truth_j.world_pose.position()
    p0 = Rotation3Z(np.cos(psi_i0), np.sin(psi_i0)).apply_inverse(diff)
    r0 = Rotation3Z(float(np.cos(theta0)), float(np.sin(theta0)))
    q0_h = r0.apply_inverse(p0)[:2]
    return np.array([p0[0], p0[1], p0[2], q0_h[0], q0_h[1], r0.c, r0.s])


def reference_follower_truth(truth: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Follower i's true leader-relative position at every tick, in the
    frame of its tick-0 truth, and its true yaw relative to the leader."""
    lead = truth[:, 0]
    start = RobotTruth.from_row(i, truth[0, i])
    psi_i0 = start.world_pose.yaw.radians - start.odom_pose.yaw.radians
    q_true = Rotation3Z.from_angle(psi_i0).apply_inverse(truth[:, i, :3] - lead[:, :3])
    yaw = truth[:, i, 3] - lead[:, 3]
    return q_true, yaw


# Truth rows: yaws well past +-pi, and nonzero odometry (a frame yaw other
# than the world yaw) unless `still`.
wide_yaw = st.floats(-12.0, 12.0, allow_nan=False)
planar_coord = st.floats(-50, 50, allow_nan=False)


def truth_row(still: bool = False):
    pos = st.tuples(planar_coord, planar_coord, st.floats(-3, 3))
    odom = st.just((0.0, 0.0, 0.0, 0.0)) if still else \
        st.tuples(planar_coord, planar_coord, st.floats(-3, 3), wide_yaw)
    return st.builds(lambda p, yaw, o: (*p, yaw, *o), pos, wide_yaw, odom)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(truth_row(), min_size=1, max_size=6), data=st.data())
def test_frame_offset_matches_reference(a, data):
    """`frame_offset` against `relative_truth`, per row with one frame row
    per row and as one stack, and against `_score_truth`'s lines with one
    frame row for all rows."""
    b = data.draw(st.lists(truth_row(), min_size=len(a), max_size=len(a)))
    frame = data.draw(truth_row())
    objs = [(RobotTruth.from_row(0, ra), RobotTruth.from_row(1, rb)) for ra, rb in zip(a, b)]
    want = [reference_relative_truth(ta, tb)[0] for ta, tb in objs]
    for ra, rb, w in zip(a, b, want):
        assert bits(frame_offset(ra, rb, ra)) == bits(w)
    assert bits(frame_offset(a, b, a)) == bits(np.array(want))
    ft = RobotTruth.from_row(2, frame)
    psi = ft.world_pose.yaw.radians - ft.odom_pose.yaw.radians
    want_one = Rotation3Z.from_angle(psi).apply_inverse(np.array(a)[:, :3] - np.array(b)[:, :3])
    assert bits(frame_offset(a, b, frame)) == bits(want_one)


@settings(max_examples=200, deadline=None)
@given(start=st.lists(truth_row(still=True), min_size=2, max_size=6), data=st.data())
def test_true_thetas_match_reference(start, data):
    """`true_thetas` over any list of ordered pairs against
    `ThetaTrue.from_truths(...).vector` per pair."""
    n = len(start)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    truths = [RobotTruth.from_row(r, row) for r, row in enumerate(start)]
    got = true_thetas(start, pairs)
    assert got.shape == (len(pairs), THETA_DIM)
    assert bits(got) == bits(np.array([reference_theta_true(truths[i], truths[j])
                                       for i, j in pairs]))


@given(rows=st.lists(truth_row(), min_size=2, max_size=2))
def test_true_thetas_guard_matches_reference(rows):
    """Both raise ValueError on nonzero odometry of either robot.  (An
    odometry position whose squares underflow, 1e-200 say, has norm 0 and
    passed the reference's guard; `true_thetas` rejects it too.)"""
    assume(any(abs(v) > 1e-100 for row in rows for v in row[4:]))
    truths = [RobotTruth.from_row(r, row) for r, row in enumerate(rows)]
    with pytest.raises(ValueError):
        reference_theta_true(*truths)
    with pytest.raises(ValueError):
        true_thetas(rows, [(0, 1)])


@pytest.mark.parametrize("config", [
    chain_swarm(4, seed=2, noise=NoiseModel(0.05, 0.002, 0.001), duration_s=20.0),
    four_robot_formation(noise=NoiseModel(0.05, 0.002, 0.001), seed=2, duration_s=10.0),
], ids=["chain3d", "formation_planar"])
def test_score_truth_matches_reference(config):
    """Every truth field of a run against the reference truth of its logged
    truth rows, bit for bit: theta_true per pair, and q0_true, q0_err,
    q_rt_err and trig_rt_err per follower, each follower's frame read off
    its tick-0 row.  Its frame yaw read per tick would move q_rt_err: yaw
    minus odometry yaw drifts in its last bit over a run."""
    res = run(config)
    start = [RobotTruth.from_row(r, row) for r, row in enumerate(res.truth[0])]
    for (i, j), theta in res.theta_true.items():
        assert bits(theta) == bits(reference_theta_true(start[i], start[j]))
        assert bits(res.theta_err[i, j]) == bits(np.array(
            [np.linalg.norm(row - theta) for row in res.theta_log[i, j]]))
    drift = False
    for i, rt in res.rt_hat.items():
        q_true, yaw = reference_follower_truth(res.truth, i)
        assert bits(res.q0_true[i]) == bits(q_true[0])
        assert bits(res.q0_err[i]) == bits(np.array(
            [np.linalg.norm(row - q_true[0]) for row in res.q0_hat[i]]))
        assert bits(res.q_rt_err[i]) == bits(np.array(
            [np.linalg.norm(row - q) for row, q in zip(rt[:, :3], q_true)]))
        assert bits(res.trig_rt_err[i]) == bits(np.array(
            [math.hypot(c - math.cos(y), s - math.sin(y))
             for c, s, y in zip(rt[:, 3], rt[:, 4], yaw)]))
        per_tick = frame_offset(res.truth[:, i], res.truth[:, 0], res.truth[:, i])
        drift |= bits(per_tick) != bits(q_true)
    assert drift, "no follower's frame yaw drifts: the tick-0 frame is untested"


# -- per-robot layers ----------------------------------------------------------
#
# Each per-robot layer runs once per tick as one pass over float rows.  The
# references below are copies of the one-robot object code the passes
# replaced (Pose4/Angle/Rotation3Z/LeaderPoseEstimate/TrackingError/
# VelocityCommand per robot and per tick), and the passes must match them
# bit for bit.


def reference_step(state: RobotTruth, cmd: VelocityCommand, dt: float) -> RobotTruth:
    """One robot's unicycle step over exact arcs, through Pose4 objects."""
    if abs(cmd.w) > OMEGA_EPS:
        dlx, dly = (cmd.v_h / cmd.w) * math.sin(cmd.w * dt), \
            (cmd.v_h / cmd.w) * (1.0 - math.cos(cmd.w * dt))
    else:
        dlx, dly = cmd.v_h * dt, 0.0
    dz, dyaw = cmd.v_z * dt, cmd.w * dt

    def advance_pose(pose: Pose4) -> Pose4:
        c, s = math.cos(pose.yaw.radians), math.sin(pose.yaw.radians)
        return Pose4(pose.x + c * dlx - s * dly, pose.y + s * dlx + c * dly, pose.z + dz,
                     Angle(pose.yaw.radians + dyaw))

    return RobotTruth(state.id, advance_pose(state.world_pose), advance_pose(state.odom_pose))


def reference_odom_update(cum_pos, cum_yaw, prev: RobotTruth, nxt: RobotTruth,
                          noise: NoiseModel, rng, planar: bool):
    """One robot's dead-reckoning step, drawing its noise as normal(size=3)
    then normal()."""
    delta = nxt.odom_pose.position() - prev.odom_pose.position()
    delta = delta + rng.normal(0.0, noise.sigma_odom_pos, size=3)
    if planar:
        delta[2] = 0.0
    dyaw = (nxt.odom_pose.yaw.radians - prev.odom_pose.yaw.radians
            + rng.normal(0.0, noise.sigma_odom_yaw))
    return cum_pos + delta, cum_yaw + dyaw


coord = st.floats(-50, 50, allow_nan=False)
yaw_rate = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, OMEGA_EPS, -OMEGA_EPS, 2e-8]),
                     st.floats(-2, 2, allow_nan=False))
sigma = st.one_of(st.just(0.0), st.floats(1e-4, 0.2))


@settings(max_examples=150, deadline=None)
@given(robots=st.lists(st.tuples(st.lists(coord, min_size=8, max_size=8),
                                 st.floats(-2, 2), st.floats(-1, 1), yaw_rate),
                       min_size=1, max_size=4),
       dt=st.floats(0.01, 0.2), substeps=st.integers(1, 3), planar=st.booleans(),
       sp=sigma, sy=sigma, seed=st.integers(0, 2**32 - 1), ticks=st.integers(1, 3))
def test_physics_and_odometry_match_reference(robots, dt, substeps, planar, sp, sy, seed,
                                              ticks):
    """`world.advance` over sub-steps, then `sensing.odom_step`, as the tick
    runs them, against per-robot `step` and odometry loops."""
    noise = NoiseModel(sigma_odom_pos=sp, sigma_odom_yaw=sy)
    rows = [row for row, *_ in robots]
    cmds = [(v_h, v_z, w) for _, v_h, v_z, w in robots]
    cum = [[0.0] * 4 for _ in robots]
    rngs = [np.random.default_rng([seed, r]) for r in range(len(robots))]
    ref_truths = [RobotTruth.from_row(r, row) for r, row in enumerate(rows)]
    ref_cum = [(np.zeros(3), 0.0) for _ in robots]
    ref_rngs = [np.random.default_rng([seed, r]) for r in range(len(robots))]
    for _ in range(ticks):
        after = rows
        for _ in range(substeps):
            after = advance(after, cmds, dt / substeps)
        cum = odom_step(cum, rows, after, noise, rngs, planar)
        rows = after
        for r, (v_h, v_z, w) in enumerate(cmds):
            nt = ref_truths[r]
            for _ in range(substeps):
                nt = reference_step(nt, VelocityCommand(v_h, v_z, w), dt / substeps)
            ref_cum[r] = reference_odom_update(*ref_cum[r], ref_truths[r], nt, noise,
                                               ref_rngs[r], planar)
            ref_truths[r] = nt
    assert bits(rows) == bits([t.as_row() for t in ref_truths])
    assert bits(cum) == bits([[*pos, yaw] for pos, yaw in ref_cum])
    assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in ref_rngs]


def reference_unit(c_raw, s_raw):
    n = math.hypot(c_raw, s_raw)
    if n < NORM_TOL:
        raise DegenerateRotation(f"{c_raw}, {s_raw}")
    return c_raw / n, s_raw / n


def reference_rotate(c, s, v) -> np.ndarray:
    """Rotation3Z.apply."""
    h = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
    return np.array([h[0], h[1], v[2]])


def reference_leader_initial_estimate(robot, graph, pairwise, leader_estimates, t_k):
    """One robot's composition over (p0, c, s) pairwise and (q0, c, s, fresh)
    leader estimates; None where a needed input is missing."""
    neighbors = graph.out_edges[robot]
    if graph.layers[robot] == 1:
        rpe = pairwise.get((robot, 0))
        return None if rpe is None else (rpe[0].copy(), rpe[1], rpe[2], t_k)
    q_sum, c_sum, s_sum = np.zeros(3), 0.0, 0.0
    for j in neighbors:
        rpe = pairwise.get((robot, j))
        lpe = (np.zeros(3), 1.0, 0.0, 0) if j == 0 else leader_estimates.get(j)
        if rpe is None or lpe is None:
            return None
        q_sum += rpe[0] + reference_rotate(rpe[1], rpe[2], lpe[0])
        c, s = reference_unit(rpe[1] * lpe[1] - rpe[2] * lpe[2],
                              rpe[2] * lpe[1] + rpe[1] * lpe[2])
        c_sum += c
        s_sum += s
    n = len(neighbors)
    return (q_sum / n, *reference_unit(c_sum / n, s_sum / n), t_k)


def reference_compose_tick(graph, theta, leader_estimates, t_k) -> None:
    """Reconstruct every pair's pose, then update the robots layer by layer,
    keeping a robot's previous estimate when an input is missing."""
    pairwise = {}
    for n, p in enumerate(graph.ordered_pairs()):
        try:
            pairwise[p] = (theta[n, :3].copy(), *reference_unit(theta[n, 5], theta[n, 6]))
        except DegenerateRotation:
            pass
    for layer in range(1, graph.max_layer + 1):
        for i in graph.nodes_in_layer(layer):
            est = reference_leader_initial_estimate(i, graph, pairwise, leader_estimates, t_k)
            if est is not None:
                leader_estimates[i] = est


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ticks=st.integers(1, 6),
       degenerate=st.floats(0.0, 0.5), zeros=st.floats(0.0, 0.5))
def test_layered_composition_matches_reference(seed, ticks, degenerate, zeros):
    """`reconstruct_poses` then `compose_layers` over random DAGs and random
    estimates, some of whose trig pairs are shorter than NORM_TOL (the pair
    is missing that tick, and robots that need it keep their stale
    estimate and tick) and some of whose positions are +-0.0 (a sum that
    started from -0.0 would keep a -0.0 term), against the per-robot loop."""
    rng = np.random.default_rng(seed)
    n, edges = random_dag(rng)
    graph = assign_layers(edges, n)
    plan = composition_plan(graph)
    lead = [[0.0, 0.0, 0.0, 1.0, 0.0]] + [[math.nan] * 5 for _ in range(n - 1)]
    fresh = [0] + [-1] * (n - 1)
    ref: dict = {}
    for k in range(ticks):
        theta = rng.normal(size=(len(graph.ordered_pairs()), THETA_DIM))
        tiny = rng.uniform(size=len(theta)) < degenerate
        theta[tiny, 5:] *= 1e-10
        zero = rng.uniform(size=(len(theta), 3)) < zeros
        theta[:, :3][zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
        compose_layers(plan, reconstruct_poses(theta), lead, fresh, k)
        reference_compose_tick(graph, theta, ref, k)
        for i in range(1, n):
            if i in ref:
                q, c, s, tick = ref[i]
                assert (bits(lead[i]), fresh[i]) == (bits([*q, c, s]), tick)
            else:
                assert fresh[i] == -1 and all(math.isnan(v) for v in lead[i])


def test_composition_cases_are_reached():
    """The generated DAGs and estimates reach a robot with two neighbours, a
    degenerate pair, and a robot left stale by a missing input."""
    two, stale = 0, 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, edges = random_dag(rng)
        graph = assign_layers(edges, n)
        two += any(len(graph.out_edges[i]) > 1 for i in range(n))
        plan = composition_plan(graph)
        lead = [[0.0, 0.0, 0.0, 1.0, 0.0]] + [[math.nan] * 5 for _ in range(n - 1)]
        fresh = [0] + [-1] * (n - 1)
        for k in range(3):
            theta = rng.normal(size=(len(graph.ordered_pairs()), THETA_DIM))
            theta[rng.uniform(size=len(theta)) < 0.3, 5:] *= 1e-10
            compose_layers(plan, reconstruct_poses(theta), lead, fresh, k)
            stale += sum(0 <= f < k for f in fresh[1:])
    assert two > 0 and stale > 0


def reference_realtime_and_error(q0, c0, s0, own_pos, own_yaw, lead_pos, lead_yaw, offset):
    """leader_realtime_estimate then tracking_error_estimated for one robot."""
    q = q0 + own_pos - reference_rotate(c0, s0, lead_pos)
    dphi = own_yaw - lead_yaw
    c = float(c0 * np.cos(dphi) + s0 * np.sin(dphi))
    s = float(c0 * np.sin(dphi) - s0 * np.cos(dphi))
    c_os = c0 * math.cos(own_yaw) + s0 * math.sin(own_yaw)
    s_os = c0 * math.sin(own_yaw) - s0 * math.cos(own_yaw)
    arg = np.array([c0 * q[0] + s0 * q[1], -s0 * q[0] + c0 * q[1], q[2]]) - offset
    e_p = np.array([c_os * arg[0] + s_os * arg[1], -s_os * arg[0] + c_os * arg[1], arg[2]])
    return [*q, c, s], [*e_p, 1.0 - c, s]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_realtime_estimate_and_tracking_error_match_reference(seed, n):
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-4, 4, n)
    lead = [[*rng.normal(0, 10, 3).tolist(), math.cos(a), math.sin(a)] for a in angle]
    odom = [[*rng.normal(0, 20, 3).tolist(), float(rng.uniform(-30, 30))] for _ in range(n)]
    leader = [*rng.normal(0, 20, 3).tolist(), float(rng.uniform(-30, 30))]
    offsets = [rng.normal(0, 2, 3).tolist() for _ in range(n)]
    rt = leader_realtime_rows(lead, odom, leader)
    track = tracking_error_rows(rt, lead, odom, offsets)
    for m in range(n):
        want_rt, want_e = reference_realtime_and_error(
            np.array(lead[m][:3]), lead[m][3], lead[m][4], np.array(odom[m][:3]), odom[m][3],
            np.array(leader[:3]), leader[3], np.array(offsets[m]))
        assert bits(rt[m]) == bits(want_rt)
        assert bits(track[m]) == bits(want_e)


def reference_commands(cfg, k, truths, errors, stage2_active, events):
    """Every robot's command for interval k as the per-robot loop issued it:
    VelocityCommand objects, one stage-one or stage-two law per follower, PE
    excitation, planar z freeze and saturation with its event log."""
    t = k * cfg.dt
    planar = cfg.mode_2d
    gains, pe, sat = cfg.gains, cfg.pe_excitation, cfg.saturation
    cruise = cfg.leader_cruise
    if cruise is None:
        lead = cfg.robots[0]
        cruise = VelocityCommand(lead.r * lead.c_w, 0.0, lead.c_w)

    def stage1(robot):
        return VelocityCommand(robot.r * robot.c_w, robot.c_v * math.sin(robot.c_v * t),
                               robot.c_w)

    def saturate(r, cmd):
        if sat is None:
            return cmd
        v_h = min(max(cmd.v_h, -sat.v_h_max), sat.v_h_max)
        v_z = min(max(cmd.v_z, -sat.v_z_max), sat.v_z_max)
        w = min(max(cmd.w, -sat.w_max), sat.w_max)
        if (v_h, v_z, w) != (cmd.v_h, cmd.v_z, cmd.w):
            events.append((k, r, cmd.v_h, cmd.v_z, cmd.w))
            return VelocityCommand(v_h, v_z, w)
        return cmd

    stage2 = cfg.pe_baseline or stage2_active
    lead_cmd = cruise if stage2 else stage1(cfg.robots[0])
    if planar:
        lead_cmd = VelocityCommand(lead_cmd.v_h, 0.0, lead_cmd.w)
    lead_cmd = saturate(0, lead_cmd)
    out = [lead_cmd]
    for i in range(1, cfg.n_robots):
        if not cfg.pe_baseline and not stage2:
            cmd = stage1(cfg.robots[i])
        else:
            if cfg.truth_feedback:
                e = reference_tracking_error_truth(truths[i], truths[0],
                                                   np.array(cfg.formation.get(i, (0.0,) * 3)))
            else:
                e = errors[i - 1] or Err(np.zeros(3), 0.0, 0.0)
            cmd = VelocityCommand(
                lead_cmd.v_h - gains.k1 * e.e_p[0] + gains.k2 * lead_cmd.w * e.e_p[1],
                lead_cmd.v_z - gains.k4 * e.e_p[2], lead_cmd.w - gains.k3 * e.e_s)
            if cfg.pe_baseline:
                ph = harness._PHASE * i
                v_h = cmd.v_h + pe.amplitude * math.sin(pe.frequency * t + ph)
                w = cmd.w + pe.amplitude * math.cos(pe.frequency * t + ph)
                v_z = cmd.v_z
                if not planar:
                    v_z += 0.5 * pe.amplitude * math.sin(0.8 * pe.frequency * t + ph)
                cmd = VelocityCommand(v_h, v_z, w)
        if planar:
            cmd = VelocityCommand(cmd.v_h, 0.0, cmd.w)
        out.append(saturate(i, cmd))
    return [(c.v_h, c.v_z, c.w) for c in out]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), k=st.integers(0, 500),
       saturated=st.booleans(), pe_baseline=st.booleans(), truth_feedback=st.booleans(),
       planar=st.booleans(), stage2=st.booleans(), cruise=st.booleans())
def test_commands_match_reference(seed, n, k, saturated, pe_baseline, truth_feedback, planar,
                                  stage2, cruise):
    """The tick's command pass (stage one or two, the PE baseline, truth
    feedback, the planar z freeze, saturation on and off) against the
    per-robot loop."""
    rng = np.random.default_rng(seed)
    cfg = replace(chain_swarm(n, seed=seed % 1000), mode_2d=planar, pe_baseline=pe_baseline,
                  truth_feedback=truth_feedback,
                  saturation=Saturation(0.3, 0.05, 0.4) if saturated else None,
                  leader_cruise=VelocityCommand(0.4, 0.1, -0.3) if cruise else None,
                  formation={i: tuple(rng.normal(0, 2, 3).tolist()) for i in range(1, n)})
    state = harness._initial_state(cfg, 0)
    state.truth = [[*rng.normal(0, 5, 4).tolist(), *rng.normal(0, 5, 4).tolist()]
                   for _ in range(n)]
    errors = [None if rng.uniform() < 0.3 else
              Err(rng.normal(0, 1, 3), float(rng.normal()), float(rng.normal()))
              for _ in range(n - 1)]
    state.errors = [harness._COLD_START if e is None else (*e.e_p.tolist(), e.e_c, e.e_s)
                    for e in errors]
    if stage2:
        state.stage.transition_tick = k
    events: list = []
    want = reference_commands(cfg, k, [RobotTruth.from_row(r, row)
                                       for r, row in enumerate(state.truth)],
                              errors, stage2, events)
    assert bits(harness._commands(state, k)) == bits(want)
    assert bits(state.logs.saturation_events) == bits(events)


@contextmanager
def forbidden(*targets):
    """Make each (owner, attribute) of `targets` raise when called."""
    def forbid(*args, **kwargs):
        raise AssertionError("a row pass called a one-pair or one-robot front end")

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in targets:
            mp.setattr(owner, name, forbid)
        yield


# The one-pair and one-robot front ends of the tick's passes, under every
# name the program could reach them by (their module and, for the functions,
# `harness`'s tracer imports), the constructors of the one-entity types only
# they build, and the RobotTruth constructors the passes replaced.
FRONT_ENDS = (
    *((module, name) for name, module in (
        ("build_sample", regression), ("excitation_ratio", regression),
        ("cl_update", estimation), ("reconstruct_pose", estimation),
        ("leader_initial_estimate", cooploc), ("leader_realtime_estimate", cooploc),
        ("tracking_error_estimated", control), ("tracking_error_truth", control),
        ("stage1_command", control), ("stage2_command", control), ("step", world))
      for module in (module, harness)),
    (outliers.JudgeQueue, "screen"), (regression.DataRecord, "add"),
    (sensing.RangeStream, "sample"), (sensing.OdomStream, "update"),
    (outliers.ScreenResult, "__init__"), (sensing.MeasurementTriplet, "__init__"),
    (estimation.RelativePoseEstimate, "__init__"), (control.TrackingError, "__init__"),
    (RobotTruth, "spawn"), (RobotTruth, "from_row"))


@pytest.mark.parametrize("planar", [False, True], ids=["3d", "planar"])
@pytest.mark.parametrize("cruise", [None, VelocityCommand(0.3, 0.05, -0.2)],
                         ids=["default_cruise", "cruise"])
def test_truth_feedback_tick_builds_no_one_robot_objects(planar, cruise):
    """Truth feedback from tick 0 (stage two from the start under the PE
    baseline), from a random start: the initial state, the observation and
    the ticks build no RobotTruth or VelocityCommand and call no one-robot
    or one-pair front end, and feed back the one-robot truth error."""
    cfg = replace(chain_swarm(4, seed=3, duration_s=2.0), truth_feedback=True,
                  pe_baseline=True, mode_2d=planar, leader_cruise=cruise,
                  random_init=RandomInit(4.0, 1.0))
    ticks = 30
    with forbidden(*FRONT_ENDS, (VelocityCommand, "__init__")):
        state = harness._initial_state(cfg, 5)
        harness._observe(state, 0)
        for k in range(ticks):
            harness.tick(state, k)
    assert state.logs.stage2[:ticks].all()
    for k in range(ticks):
        truths = [RobotTruth.from_row(r, row) for r, row in enumerate(state.logs.truth[k])]
        assert bits(state.logs.commands[k]) == bits(reference_commands(cfg, k, truths, None,
                                                                       False, []))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_runs_call_no_front_end(name, tmp_path):
    """Each golden config's initial state, observation and every tick run
    with every front end forbidden; the result and the logs, made outside
    the fence, still hash to the golden digests."""
    cfg = GOLDEN[name][0]()
    with forbidden(*FRONT_ENDS, (VelocityCommand, "__init__")):
        state = harness._initial_state(cfg, cfg.seed)
        harness._observe(state, 0)
        for k in range(cfg.n_ticks):
            harness.tick(state, k)
    res = harness._result(state, cfg.seed)
    harness._score_truth(res)
    res.metrics = harness._compute_metrics(res)
    harness.write_run(res, tmp_path)
    assert csv_digests(tmp_path) == GOLDEN[name][1]


def reference_build_sample(d_k: float, d_k1: float, odom_i, odom_j,
                           t_k: int = 0) -> RegressorSample | None:
    """One pair's sample from consecutive-tick data, as the one-pair loop
    built it: (cumulative position at t_k, displacement over [t_k, t_k+1])
    per robot; None for a degenerate interval."""
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


def reference_observability_probe(profile: MotionProfile, ticks: int = 100,
                                  dt: float = 0.05, zero_tol: float = 1e-12) -> RankDiagnosis:
    """The probe as a per-tick loop: one-robot `reference_step`s, one
    `reference_build_sample` per interval from the robots' world distance,
    S summed one outer product at a time."""
    ti, tj = profile.truth_i, profile.truth_j
    S = np.zeros((THETA_DIM, THETA_DIM))
    for k in range(ticks):
        t = k * dt
        ni = reference_step(ti, profile.command_i(t), dt)
        nj = reference_step(tj, profile.command_j(t), dt)
        sample = reference_build_sample(
            distance(ti.as_row(), tj.as_row()), distance(ni.as_row(), nj.as_row()),
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


def check_probe_against_reference(profile: MotionProfile, **kwargs) -> None:
    """The probe, run with the front ends forbidden, against the loop: the
    same zero rows and ranks, and eigenvalues to 1e-12 relative.  S summed
    at once may round differently from the per-tick sum, which moves every
    eigenvalue by up to the rounding of S's largest (Weyl), so a singular
    S's lambda_min, rounding noise of either sign (0 once clipped), agrees
    only to 1e-12 of lambda_max."""
    with forbidden(*FRONT_ENDS):
        got = observability_probe(profile, **kwargs)
    want = reference_observability_probe(profile, **kwargs)
    assert (got.zero_rows, got.rank, got.position_block_rank) == \
        (want.zero_rows, want.rank, want.position_block_rank)
    assert got.lambda_min == pytest.approx(want.lambda_min, rel=1e-12,
                                           abs=1e-12 * want.lambda_max)
    assert got.lambda_max == pytest.approx(want.lambda_max, rel=1e-12, abs=0.0)


def still(t: float) -> VelocityCommand:
    return VelocityCommand(0.0, 0.0, 0.0)


_OBS, _NBR = RobotTruth.spawn(1, 0, 0, 0, 0.3), RobotTruth.spawn(0, 2, 1, 0, 1.0)
_SAME = circle_cmd(0.4, 0.2, 0.5)


@pytest.mark.parametrize("profile, kwargs", [
    (MotionProfile(_OBS, _NBR, still, circle_cmd(0.4, 0.0, 0.5)), {"ticks": 100}),
    (MotionProfile(_OBS, _NBR, circle_cmd(0.4, 0.2, 0.5), still), {"ticks": 100}),
    (MotionProfile(_OBS, _NBR, _SAME, _SAME), {"ticks": 100}),
    (MotionProfile(_OBS, _NBR, lambda t: VelocityCommand(0.3, 0.05, 0.0),
                   lambda t: VelocityCommand(0.2, -0.03, 0.0)), {"ticks": 100}),
    (MotionProfile(RobotTruth.spawn(1, 1.5, 1.0, 0, 2.0), RobotTruth.spawn(0, 0, 0, 0, 0),
                   circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5)),
     {"ticks": 400, "dt": 0.1}),
], ids=["observer_still", "neighbor_still", "matched_motion", "straight_lines", "excited"])
def test_criterion_10_profiles_match_reference_probe(profile, kwargs):
    check_probe_against_reference(profile, **kwargs)


def drawn_command(v_h: float, c_v: float, w: float):
    """Forward speed v_h, yaw rate w (0 for a straight line), vertical
    speed c_v * sin(c_v * t)."""
    return lambda t: VelocityCommand(v_h, c_v * math.sin(c_v * t), w)


command = st.one_of(st.just((0.0, 0.0, 0.0)),
                    st.tuples(st.floats(-0.6, 0.6), st.floats(-0.4, 0.4),
                              st.one_of(st.just(0.0), st.floats(-1.0, 1.0))))
start = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-1, 1), st.floats(-3.2, 3.2))


@settings(max_examples=100, deadline=None)
@given(start_i=start, start_j=start, cmd_i=command, cmd_j=command, same=st.booleans(),
       ticks=st.integers(0, 200), dt=st.floats(0.01, 0.2))
def test_drawn_profiles_match_reference_probe(start_i, start_j, cmd_i, cmd_j, same, ticks, dt):
    """Still, straight, circling and matched motion from random starts."""
    profile = MotionProfile(RobotTruth.spawn(1, *start_i), RobotTruth.spawn(0, *start_j),
                            drawn_command(*cmd_i), drawn_command(*(cmd_i if same else cmd_j)))
    check_probe_against_reference(profile, ticks=ticks, dt=dt)


# -- front ends ------------------------------------------------------------------
#
# The one-pair and one-robot front ends stay only for benchmarks/tracing.py,
# until ROADMAP item 1; every other test drives the stacked passes.  This
# table keeps each front end checked, bit for bit, against the pass it wraps
# on one row, until both go.

seeds = st.integers(0, 2**32 - 1)
small = st.floats(-20, 20, allow_nan=False)
vec3 = st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(small, small, small)).map(np.array)


def record_of(data, planar: bool) -> RecordBank:
    """A one-row bank offered a drawn stream of samples, empty or evicting."""
    bank = RecordBank(1, planar, data.draw(st.integers(7, 10)))
    for s in sample_stream(data.draw(seeds), data.draw(st.integers(0, 25)), planar):
        bank.add_all([0], s.phi[None], np.array([s.y]), s.t_k)
    return bank


class TestFrontEndsMatchTheirPasses:
    """One entry per front end: draw its inputs, run it and its pass on one
    row, and check that they agree bit for bit, including where the front
    end raises or returns its input for what the pass reports as missing."""

    def judge_queue_screen(self, data):
        capacity, threshold = data.draw(st.integers(1, 6)), data.draw(st.floats(0.05, 0.95))
        q, bank = outliers.JudgeQueue(capacity, threshold), JudgeBank(1, capacity, threshold)
        for t in triplet_stream(data.draw(seeds), data.draw(st.integers(0, 30)),
                                data.draw(st.booleans())):
            got = q.screen(sensing.MeasurementTriplet(t.d, t.z_i, t.z_j, t.t_k))
            want = bank.screen_all(np.array([t.d]), np.concatenate((t.z_i, t.z_j))[None])
            assert (got.is_outlier, got.votes, got.queue_size) == tuple(w[0] for w in want)
        assert queued(q._bank, 0) == queued(bank, 0)

    def data_record_add(self, data):
        planar, cap = data.draw(st.booleans()), data.draw(st.integers(7, 10))
        rec, bank = DataRecord(RecordBank(1, planar, cap), 0), RecordBank(1, planar, cap)
        for s in sample_stream(data.draw(seeds), data.draw(st.integers(0, 30)), planar):
            assert [rec.add(s)] == bank.add_all([0], s.phi[None], np.array([s.y]), s.t_k)
        for name in ("phis", "ys", "t_ks", "S", "lambda_min", "lambda_max"):
            assert bits(getattr(rec.bank, name)) == bits(getattr(bank, name))
        assert rec.bank.n == bank.n

    def build_sample(self, data):
        d_k, d_k1 = data.draw(st.floats(0, 20)), data.draw(st.floats(0, 20))
        (p_i, u_i, p_j, u_j), t_k = data.draw(st.tuples(vec3, vec3, vec3, vec3)), 7
        got = regression.build_sample(d_k, d_k1, (p_i, u_i), (p_j, u_j), t_k)
        phi, y, valid = regression.build_samples(np.array([[d_k ** 2, *p_i, *p_j]]),
                                                 np.array([[d_k1 ** 2 - d_k ** 2, *u_i, *u_j]]))
        assert (got is not None) == valid[0]
        if got is not None:
            assert (bits(got.phi), got.y, got.t_k) == (bits(phi[0]), y[0], t_k)

    def cl_update(self, data):
        bank = record_of(data, planar=False)
        theta = np.array([data.draw(st.tuples(*[small] * THETA_DIM))])
        s = sample_stream(data.draw(seeds), 1, False)[0]
        variant = data.draw(st.sampled_from(["stated", "proof"]))
        est = estimation.ThetaEstimate(theta[0].copy(), DataRecord(bank, 0), variant)
        moved = cl_update_all(theta, bank, [0], s.phi[None], np.array([s.y]), variant)
        if bank.n == [0]:
            with pytest.raises(ValueError):
                estimation.cl_update(est, s)
            assert moved == [False]
            return
        out = estimation.cl_update(est, s)
        assert (out is est) == (not moved[0])
        assert bits(out.theta_hat) == bits(theta[0])

    def excitation_ratio(self, data):
        bank = record_of(data, data.draw(st.booleans()))
        ratio, = regression.excitation_ratios(bank)
        if bank.n == [0]:
            with pytest.raises(regression.EmptyRecord):
                regression.excitation_ratio(DataRecord(bank, 0))
            assert ratio == 0.0
        else:
            assert regression.excitation_ratio(DataRecord(bank, 0)) == ratio

    def range_stream_sample(self, data):
        noise = NoiseModel(sigma_range=data.draw(st.floats(0, 1)),
                           outlier_prob=data.draw(st.floats(0, 1)))
        seed, i, j = data.draw(seeds), data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        one, stacked = RangeStream(noise, seed, i, j), RangeStream(noise, seed, i, j)
        for a, b in data.draw(st.lists(st.tuples(truth_row(), truth_row()), max_size=5)):
            d, = row_norms(np.array([a[:3]]) - np.array([b[:3]])).tolist()
            assert one.sample(RobotTruth.from_row(i, a), RobotTruth.from_row(j, b)) == \
                stacked.draw(d)

    def step(self, data):
        row, dt = data.draw(truth_row()), data.draw(st.floats(-0.05, 0.2))
        cmd = (data.draw(st.floats(-2, 2)), data.draw(st.floats(-1, 1)), data.draw(yaw_rate))
        if dt <= 0.0:
            with pytest.raises(ValueError):
                world.step(RobotTruth.from_row(3, row), VelocityCommand(*cmd), dt)
            with pytest.raises(ValueError):
                advance([row], [cmd], dt)
            return
        got = world.step(RobotTruth.from_row(3, row), VelocityCommand(*cmd), dt)
        assert got.id == 3 and bits(got.as_row()) == bits(advance([row], [cmd], dt)[0])

    def odom_stream_update(self, data):
        noise = NoiseModel(sigma_odom_pos=data.draw(sigma), sigma_odom_yaw=data.draw(sigma))
        seed, robot, planar = data.draw(seeds), data.draw(st.integers(0, 5)), \
            data.draw(st.booleans())
        stream = sensing.OdomStream(noise, seed, robot, planar)
        rngs = [sensing.robot_rng(seed, robot)]
        cum = [[0.0] * 4]
        for prev, nxt in data.draw(st.lists(st.tuples(truth_row(), truth_row()), max_size=4)):
            stream.update(RobotTruth.from_row(robot, prev), RobotTruth.from_row(robot, nxt))
            cum = odom_step(cum, [prev], [nxt], noise, rngs, planar)
            assert bits([*stream.cum_pos, stream.cum_yaw]) == bits(cum[0])

    def reconstruct_pose(self, data):
        theta = np.array(data.draw(st.tuples(*[small] * THETA_DIM)))
        theta[5:] *= data.draw(st.sampled_from([1.0, 1e-10]))
        pose, = reconstruct_poses(theta[None])
        est = estimation.ThetaEstimate(theta, None)
        if pose is None:
            with pytest.raises(DegenerateRotation):
                estimation.reconstruct_pose(est)
            return
        got = estimation.reconstruct_pose(est)
        assert bits([*got.p0_hat, got.R0_hat.c, got.R0_hat.s]) == bits(pose)

    def leader_initial_estimate(self, data):
        rng = np.random.default_rng(data.draw(seeds))
        graph = assign_layers(*random_dag(rng)[::-1])
        n, pairs = graph.n_robots, graph.ordered_pairs()
        lead = [[0.0, 0.0, 0.0, 1.0, 0.0]] + [[math.nan] * 5 for _ in range(n - 1)]
        fresh = [0] + [-1] * (n - 1)
        estimates: dict = {}
        for k in range(data.draw(st.integers(1, 4))):
            theta = rng.normal(size=(len(pairs), THETA_DIM))
            theta[rng.uniform(size=len(pairs)) < 0.3, 5:] *= 1e-10
            poses = reconstruct_poses(theta)
            compose_layers(composition_plan(graph), poses, lead, fresh, k)
            pairwise = {p: estimation.RelativePoseEstimate(np.array(pose[:3]),
                                                           Rotation3Z(*pose[3:]))
                        for p, pose in zip(pairs, poses) if pose is not None}
            for layer in range(1, graph.max_layer + 1):
                for i in graph.nodes_in_layer(layer):
                    try:
                        estimates[i] = cooploc.leader_initial_estimate(i, graph, pairwise,
                                                                       estimates, k)
                    except cooploc.MissingNeighborEstimate:
                        pass
            for i in range(1, n):
                e = estimates.get(i)
                assert fresh[i] == (-1 if e is None else e.fresh)
                if e is not None:
                    assert bits(lead[i]) == bits([*e.q0_hat, e.Q0_hat.c, e.Q0_hat.s])

    def leader_realtime_estimate(self, data):
        row = data.draw(st.tuples(small, small, small, st.floats(-1, 1), st.floats(-1, 1)))
        own, leader = data.draw(st.tuples(truth_row(), truth_row()))
        want, = leader_realtime_rows([row], [own[4:]], leader[4:])
        q, c, s = cooploc.leader_realtime_estimate(
            cooploc.LeaderPoseEstimate(np.array(row[:3]), Rotation3Z(*row[3:])),
            np.array(own[4:7]), Angle(own[7]), np.array(leader[4:7]), Angle(leader[7]))
        assert bits([*q, c, s]) == bits(want)

    def tracking_error_estimated(self, data):
        rt, lead = (data.draw(st.tuples(small, small, small, st.floats(-1, 1), st.floats(-1, 1)))
                    for _ in range(2))
        odom, offset = data.draw(truth_row())[4:], data.draw(vec3)
        want, = tracking_error_rows([rt], [lead], [odom], [offset.tolist()])
        got = control.tracking_error_estimated(np.array(rt[:3]), Rotation3Z(*lead[3:]), rt[3],
                                               rt[4], Angle(odom[3]), offset)
        assert bits([*got.e_p, got.e_c, got.e_s]) == bits(want)

    def tracking_error_truth(self, data):
        robot, leader, offset = data.draw(truth_row()), data.draw(truth_row()), data.draw(vec3)
        want, = control.tracking_error_truth_rows([robot], leader, offset)
        got = control.tracking_error_truth(RobotTruth.from_row(1, robot),
                                           RobotTruth.from_row(0, leader), offset)
        assert bits([*got.e_p, got.e_c, got.e_s]) == bits(want)

    def stage1_command(self, data):
        robot = RobotConfig(1, r=data.draw(small), c_v=data.draw(small), c_w=data.draw(small))
        t = data.draw(st.floats(0, 500))
        got = control.stage1_command(robot, t)
        assert bits([got.v_h, got.v_z, got.w]) == bits(control.stage1_rows([robot], t)[0])

    def stage2_command(self, data):
        lead = data.draw(st.tuples(small, small, small))
        e = data.draw(st.tuples(small, small, small, small, small))
        gains = ControlGains(*data.draw(st.tuples(*[st.floats(0.01, 5)] * 4)))
        got = control.stage2_command(VelocityCommand(*lead),
                                     control.TrackingError(np.array(e[:3]), e[3], e[4]), gains)
        assert bits([got.v_h, got.v_z, got.w]) == bits(control.stage2_rows(lead, [e], gains)[0])

    @pytest.mark.parametrize("front_end", [
        "judge_queue_screen", "data_record_add", "build_sample", "cl_update",
        "excitation_ratio", "range_stream_sample", "step", "odom_stream_update",
        "reconstruct_pose", "leader_initial_estimate", "leader_realtime_estimate",
        "tracking_error_estimated", "tracking_error_truth", "stage1_command", "stage2_command"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_front_end_matches_its_pass(self, front_end, data):
        getattr(self, front_end)(data)
