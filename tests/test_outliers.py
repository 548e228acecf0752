import numpy as np
import pytest

from conftest import circle_cmd, distance
from uwbio.outliers import JudgeBank, JudgeQueue, ScreenResult
from uwbio.sensing import MeasurementTriplet
from uwbio.world import RobotTruth, step


def triplet(d, zi, zj, t_k=0):
    return MeasurementTriplet(float(d), np.asarray(zi, dtype=float),
                              np.asarray(zj, dtype=float), t_k)


def ring_row(d, zi, zj, t_k=0) -> np.ndarray:
    """A judge ring row [d, z_i (3), z_j (3), t_k]."""
    return np.array([d, *zi, *zj, t_k], dtype=float)


def screen(bank: JudgeBank, d, zi, zj, t_k=0) -> ScreenResult:
    """Screen one candidate against a bank of one pair."""
    z = np.array([[*zi, *zj]], dtype=float)
    out, votes, size = bank.screen_all(np.array([float(d)]), z, t_k)
    return ScreenResult(out[0], votes[0], size[0])


class TestScreen:
    def test_empty_queue_accepts_and_enqueues(self):
        bank = JudgeBank(1)
        res = screen(bank, 5.0, [0, 0, 0], [1, 0, 0])
        assert not res.is_outlier and res.votes == 0 and res.queue_size == 0
        assert bank.size == [1]

    def test_inflated_candidate_rejected_unanimously(self):
        bank = JudgeBank(1, capacity=20, threshold=0.5)
        # 20 consistent entries while both robots creep < 0.1 m total.
        for k in range(20):
            screen(bank, 5.0 + 0.001 * k, [0.001 * k, 0, 0], [0, 0.001 * k, 0], k)
        assert bank.size == [20]
        res = screen(bank, 10.0, [0.021, 0, 0], [0, 0.021, 0], 21)
        assert res.is_outlier and res.votes == 20
        assert bank.size == [20]   # rejected candidates never enter the queue

    def test_exact_half_votes_is_inlier(self):
        # Ratio exactly 0.5 fails the strict inequality, so the candidate is kept.
        bank = JudgeBank(1, capacity=20, threshold=0.5)
        for k in range(10):     # voters: same place, far-off distance
            bank.accept_all([0], ring_row(50.0, [0, 0, 0], [5, 0, 0], k)[None])
        for k in range(10):     # non-voters: huge odometry slack
            bank.accept_all([0], ring_row(5.0, [500 + k, 0, 0], [-500 - k, 0, 0], 10 + k)[None])
        res = screen(bank, 5.0, [0, 0, 0], [5, 0, 0], 30)
        assert res.votes == 10 and res.queue_size == 20
        assert not res.is_outlier

    def test_queue_evicts_oldest(self):
        bank = JudgeBank(1, capacity=3, threshold=0.9)
        for k in range(5):
            screen(bank, 1.0, [0.2 * k, 0, 0], [0, 0, 0], k)
        assert bank.size == [3]
        oldest = bank.count[0] % bank.capacity
        assert np.roll(bank.ring[0, :, 7], -oldest).tolist() == [2, 3, 4]

    @pytest.mark.xfail(strict=True, reason="known fault: an empty queue accepts any "
                       "first range, so an outlier accepted first outvotes every "
                       "clean range after it")
    def test_first_range_outlier_does_not_lock_out_clean_ranges(self):
        q = JudgeQueue(capacity=20, threshold=0.5)
        q.screen(triplet(50.0, [0, 0, 0], [0, 0, 0], 0))     # injected outlier
        # Clean ranges while both robots creep a few millimetres per tick.
        verdicts = [q.screen(triplet(5.0 + 0.001 * k, [0.001 * k, 0, 0],
                                     [0, 0.001 * k, 0], k)).is_outlier
                    for k in range(1, 200)]
        assert not all(verdicts)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JudgeQueue(capacity=0)
        with pytest.raises(ValueError):
            JudgeQueue(threshold=1.0)

    def test_noise_free_soundness(self):
        # On exact data the triangle inequality can never fire: screening a
        # whole clean scenario produces zero outlier verdicts.
        ti = RobotTruth.spawn(1, 1.5, 1.0, 0.0, 2.0)
        tj = RobotTruth.spawn(0, 0.0, 0.0, 0.0, 0.0)
        ci, cj = circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5)
        q = JudgeQueue()
        dt = 0.05
        for k in range(500):
            res = q.screen(triplet(distance(ti, tj),
                                   ti.odom_pose.position(), tj.odom_pose.position(), k))
            assert not res.is_outlier
            ti, tj = step(ti, ci(k * dt), dt), step(tj, cj(k * dt), dt)

    def test_false_positive_rate_under_noise(self):
        # Gaussian sensor noise alone (sigma 0.05) must almost never trip the
        # triangle test: observed false-positive rate below 1%.
        rng = np.random.default_rng(99)
        ti = RobotTruth.spawn(1, 1.5, 1.0, 0.0, 2.0)
        tj = RobotTruth.spawn(0, 0.0, 0.0, 0.0, 0.0)
        ci, cj = circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5)
        q = JudgeQueue()
        dt, flagged, total = 0.05, 0, 0
        zi = np.zeros(3)
        zj = np.zeros(3)
        prev_i, prev_j = ti, tj
        for k in range(10_000):
            d = distance(ti, tj) + rng.normal(0, 0.05)
            zi = zi + (ti.odom_pose.position() - prev_i.odom_pose.position()) \
                + rng.normal(0, 0.05, 3)
            zj = zj + (tj.odom_pose.position() - prev_j.odom_pose.position()) \
                + rng.normal(0, 0.05, 3)
            res = q.screen(triplet(max(d, 0.0), zi, zj, k))
            flagged += res.is_outlier
            total += 1
            prev_i, prev_j = ti, tj
            ti, tj = step(ti, ci(k * dt), dt), step(tj, cj(k * dt), dt)
        assert flagged / total < 0.01
