"""The stacked screen, record and estimator against their loop versions.

`JudgeBank` keeps every pair's accepted triplets in a fixed ring and votes
for all pairs with one array expression; `RecordBank` keeps every pair's
samples in preallocated buffers, shifts rows on an eviction and takes one
retention decision for all full records; `cl_update_all` steps all pairs
that got a sample at once.  None of them changes the arithmetic, so they
must reproduce the plain one-pair loop versions below bit for bit on any
input, for one pair through the front ends (`JudgeQueue`, `DataRecord`)
and for several pairs at different fill states side by side: the same
verdicts and queue contents, the same stacked samples, S, eigenvalues and
estimates.  The reference classes are copies of the implementations the
array versions replaced, without their argument checks and docstrings.
Truth scoring likewise takes the row norms of a whole log at once, where
the tick loop once took them one row at a time, and the tracking errors of
all ticks at once, where it once called `tracking_error_truth` per tick.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbio.control import tracking_error_truth
from uwbio.estimation import _rate, cl_update, cl_update_all
from uwbio.harness import _row_norms, run
from uwbio.outliers import JudgeBank, JudgeQueue, ScreenResult
from uwbio.regression import THETA_DIM, DataRecord, RecordBank, RecordPolicy, RegressorSample
from uwbio.scenarios import chain_swarm, four_robot_formation
from uwbio.sensing import MeasurementTriplet, NoiseModel
from uwbio.world import RobotTruth


class ReferenceJudgeQueue:
    """Bounded queue of accepted triplets used to vote on new candidates."""

    def __init__(self, capacity: int = 20, threshold: float = 0.5):
        self.capacity = capacity
        self.threshold = threshold
        self.entries: deque[MeasurementTriplet] = deque(maxlen=capacity)

    def screen(self, candidate: MeasurementTriplet) -> ScreenResult:
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
        return ScreenResult(is_outlier, votes, size)


class ReferenceDataRecord:
    """Recorded samples, re-stacked from the history on every kept sample."""

    def __init__(self, planar: bool = False):
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

    def add(self, sample: RegressorSample, policy: RecordPolicy = RecordPolicy()) -> bool:
        outer = np.outer(sample.phi, sample.phi)
        if len(self.history) < policy.hist_cap:
            self.history.append(sample)
            self.S += outer
            self._restack()
            return True
        act = self.active
        phi_a = sample.phi[act]
        S_grown = self.S[np.ix_(act, act)] + np.outer(phi_a, phi_a)
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


def triplet_stream(seed: int, n: int, coarse: bool) -> list[MeasurementTriplet]:
    """Random triplets; `coarse` draws every value from {0, 1}, so that
    exact ties between range difference and odometry slack are common."""
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.integers(0, 2, size) * 1.0 if coarse else rng.normal(0.0, 2.0, size)

    return [MeasurementTriplet(float(abs(draw(None))), draw(3), draw(3), k)
            for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), threshold=st.floats(0.05, 0.95),
       n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), coarse=st.booleans())
def test_judge_queue_matches_reference(capacity, threshold, n, seed, coarse):
    q = JudgeQueue(capacity, threshold)
    ref = ReferenceJudgeQueue(capacity, threshold)
    for cand in triplet_stream(seed, n, coarse):
        assert q.screen(cand) == ref.screen(cand)
        assert len(q) == len(ref.entries)
    got, want = q.entries, tuple(ref.entries)
    assert [(e.d, bits(e.z_i), bits(e.z_j), e.t_k) for e in got] == \
        [(e.d, bits(e.z_i), bits(e.z_j), e.t_k) for e in want]


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
    rec, ref = DataRecord(planar), ReferenceDataRecord(planar)
    policy = RecordPolicy(hist_cap=hist_cap)
    for s in sample_stream(seed, n, planar):
        assert rec.add(s, policy) == ref.add(s, policy)
        assert bits(rec.phis) == bits(ref.phis)
        assert bits(rec.ys) == bits(ref.ys)
        assert bits(rec.S) == bits(ref.S)
        assert (rec.lambda_min, rec.lambda_max) == (ref.lambda_min, ref.lambda_max)
    assert len(rec.history) == len(ref.history)
    assert all(a is b for a, b in zip(rec.history, ref.history))


def test_data_record_streams_evict():
    # The generated streams really reach the eviction path, in both modes.
    for planar in (False, True):
        rec = DataRecord(planar)
        policy = RecordPolicy(hist_cap=7)
        kept = [rec.add(s, policy) for s in sample_stream(1, 50, planar)]
        assert len(rec) == 7
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
    got = _row_norms(d)
    want = np.array([np.linalg.norm(row) for row in d])
    assert got.tobytes() == want.tobytes()


def padded_cl_update_all(theta, bank, rows, phi, y, variant="stated"):
    """cl_update_all with every record zero-padded to the longest one and
    one stacked product for all pairs, instead of one per record length."""
    lam_min, lam_max = bank.lambda_min.tolist(), bank.lambda_max.tolist()
    eta = [_rate(lam_min[r], lam_max[r], lam_u, variant)
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
    """Pair p's queued triplets, oldest first, as (d, z_i, z_j, t_k) bits."""
    ring = np.roll(judges.ring[p, :judges.size[p]], -(judges.count[p] % judges.capacity),
                   axis=0)
    return [(r[0], bits(r[1:4]), bits(r[4:7]), int(r[7])) for r in ring]


def check_pairs_against_reference(seed: int, n_pairs: int, planar: bool, hist_cap: int,
                                  variant: str, steps: int,
                                  cl_step=cl_update_all) -> tuple[list[int], int]:
    """Drive a JudgeBank, a RecordBank and a stacked estimate for n_pairs
    pairs, each pair prefilled to its own length (some below hist_cap, some
    full and evicting) and then offered samples in random subsets, and
    check every step bit for bit against one loop reference per pair.
    Returns the prefilled lengths and the number of evictions."""
    rng = np.random.default_rng(seed)
    policy = RecordPolicy(hist_cap=hist_cap)
    bank = RecordBank(n_pairs, planar)
    refs = [ReferenceDataRecord(planar) for _ in range(n_pairs)]
    theta = rng.normal(size=(n_pairs, THETA_DIM))
    ref_theta = [row.copy() for row in theta]
    streams = [iter(sample_stream(int(rng.integers(2**32)), 4 * hist_cap + steps, planar))
               for _ in range(n_pairs)]
    for p in range(n_pairs):
        for _ in range(int(rng.integers(0, 2 * hist_cap))):
            s = next(streams[p])
            assert bank.add_all([p], [s], policy) == [refs[p].add(s, policy)]
    prefilled, evictions = list(bank.n), 0
    judges = JudgeBank(n_pairs, int(rng.integers(1, 7)), float(rng.uniform(0.05, 0.95)))
    ref_judges = [ReferenceJudgeQueue(judges.capacity, judges.threshold) for _ in range(n_pairs)]
    triplets = [triplet_stream(int(rng.integers(2**32)), steps, bool(rng.integers(2)))
                for _ in range(n_pairs)]
    for k in range(steps):
        cands = [triplets[p][k] for p in range(n_pairs)]
        got = judges.screen_all(np.array([c.d for c in cands]),
                                np.array([np.concatenate((c.z_i, c.z_j)) for c in cands]), k)
        want = [ref_judges[p].screen(c) for p, c in enumerate(cands)]
        assert [ScreenResult(*r) for r in zip(*got)] == want

        rows = sorted(int(p) for p in
                      rng.choice(n_pairs, int(rng.integers(1, n_pairs + 1)), replace=False))
        samples = [next(streams[p]) for p in rows]
        full = [bank.n[p] == hist_cap for p in rows]
        kept = bank.add_all(rows, samples, policy)
        evictions += sum(k and f for k, f in zip(kept, full))
        assert kept == [refs[p].add(s, policy) for p, s in zip(rows, samples)]
        cl_step(theta, bank, rows, np.array([s.phi for s in samples]),
                np.array([s.y for s in samples]), variant)
        for p, s in zip(rows, samples):
            ref_theta[p] = reference_cl_update(ref_theta[p], refs[p], s, variant)
        for p in range(n_pairs):
            rec = DataRecord(bank=bank, row=p)
            assert bits(rec.phis) == bits(refs[p].phis)
            assert bits(rec.ys) == bits(refs[p].ys)
            assert bits(rec.S) == bits(refs[p].S)
            assert (rec.lambda_min, rec.lambda_max) == (refs[p].lambda_min, refs[p].lambda_max)
            assert bits(theta[p]) == bits(ref_theta[p])
    for p in range(n_pairs):
        assert queued(judges, p) == [(e.d, bits(e.z_i), bits(e.z_j), e.t_k)
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
    the one-pair front end steps that pair alone, bit for bit as the loop
    reference, and leaves the run's estimate untouched."""
    res = run(chain_swarm(3, seed=1, noise=NoiseModel(0.05, 0.002, 0.001), duration_s=20.0))
    assert len(res.final_estimators) > 1
    for pair, est in res.final_estimators.items():
        rec = est.data
        ref = ReferenceDataRecord()
        ref.phis, ref.ys = rec.phis.copy(), rec.ys.copy()
        ref.lambda_min, ref.lambda_max = rec.lambda_min, rec.lambda_max
        before = est.theta_hat.copy()
        s = res.last_sample[pair]
        out = cl_update(est, s)
        assert out is not est
        assert bits(out.theta_hat) == bits(reference_cl_update(before, ref, s, est.rate_variant))
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


@pytest.mark.parametrize("config", [
    chain_swarm(3, seed=1, noise=NoiseModel(0.05, 0.002, 0.001), duration_s=10.0),
    four_robot_formation(noise=NoiseModel(0.05, 0.002, 0.001), seed=2, duration_s=10.0),
], ids=["chain3d", "formation_planar"])
def test_track_truth_equals_tracking_error_truth(config):
    """Truth scoring computes the tracking error of every tick at once; each
    row must equal tracking_error_truth on that tick's logged true poses."""
    res = run(config)
    spec = config.formation_spec()
    for i, track in res.track_truth.items():
        want = []
        for row in res.truth:
            e = tracking_error_truth(RobotTruth.from_row(i, row[i]),
                                     RobotTruth.from_row(0, row[0]), spec.offset(i))
            want.append([e.e_p[0], e.e_p[1], e.e_p[2], e.e_c, e.e_s])
        assert track.tobytes() == np.array(want).tobytes()
