"""The array-backed screen and record against their loop versions.

`JudgeQueue` keeps its accepted triplets in a fixed ring and votes with one
array expression; `DataRecord` keeps its samples in preallocated buffers
and shifts rows on an eviction.  Neither changes the arithmetic, so both
must reproduce the plain loop versions below bit for bit on any input:
the same verdicts and queue contents, the same stacked samples, S and
eigenvalues.  The reference classes are copies of the implementations the
array versions replaced, without their argument checks and docstrings.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from uwbio.outliers import JudgeQueue, ScreenResult
from uwbio.regression import THETA_DIM, DataRecord, RecordPolicy, RegressorSample
from uwbio.sensing import MeasurementTriplet


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
