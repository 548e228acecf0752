from dataclasses import replace

import numpy as np
import pytest

from conftest import Verdict, benchmark_pair, distance
from uwbio.config import ConfigError, config_from_dict
from uwbio.outliers import JudgeBank
from uwbio.scenarios import two_robot_benchmark


def ring_row(d, zi, zj) -> np.ndarray:
    """A judge ring row [d, z_i (3), z_j (3)]."""
    return np.array([d, *zi, *zj], dtype=float)


def screen(bank: JudgeBank, d, zi, zj) -> Verdict:
    """Screen one candidate against a bank of one pair."""
    z = np.array([[*zi, *zj]], dtype=float)
    out, votes, size = bank.screen_all(np.array([float(d)]), z)
    return Verdict(out[0], votes[0], size[0])


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
            screen(bank, 5.0 + 0.001 * k, [0.001 * k, 0, 0], [0, 0.001 * k, 0])
        assert bank.size == [20]
        res = screen(bank, 10.0, [0.021, 0, 0], [0, 0.021, 0])
        assert res.is_outlier and res.votes == 20
        assert bank.size == [20]   # rejected candidates never enter the queue

    def test_exact_half_votes_is_inlier(self):
        # Ratio exactly 0.5 fails the strict inequality, so the candidate is kept.
        bank = JudgeBank(1, capacity=20, threshold=0.5)
        for _ in range(10):     # voters: same place, far-off distance
            bank.accept_all([0], ring_row(50.0, [0, 0, 0], [5, 0, 0])[None])
        for k in range(10):     # non-voters: huge odometry slack
            bank.accept_all([0], ring_row(5.0, [500 + k, 0, 0], [-500 - k, 0, 0])[None])
        res = screen(bank, 5.0, [0, 0, 0], [5, 0, 0])
        assert res.votes == 10 and res.queue_size == 20
        assert not res.is_outlier

    def test_queue_evicts_oldest(self):
        bank = JudgeBank(1, capacity=3, threshold=0.9)
        # Entry k has range 1 + k/8, well inside the odometry slack 0.2 k.
        for k in range(5):
            screen(bank, 1.0 + 0.125 * k, [0.2 * k, 0, 0], [0, 0, 0])
        assert bank.size == [3]
        oldest = bank.count[0] % bank.capacity
        assert np.roll(bank.ring[0, :, 0], -oldest).tolist() == [1.25, 1.375, 1.5]

    @pytest.mark.xfail(strict=True, reason="known fault: an empty queue accepts any "
                       "first range, so an outlier accepted first outvotes every "
                       "clean range after it")
    def test_first_range_outlier_does_not_lock_out_clean_ranges(self):
        bank = JudgeBank(1, capacity=20, threshold=0.5)
        screen(bank, 50.0, [0, 0, 0], [0, 0, 0])     # injected outlier
        # Clean ranges while both robots creep a few millimetres per tick.
        verdicts = [screen(bank, 5.0 + 0.001 * k, [0.001 * k, 0, 0],
                           [0, 0.001 * k, 0]).is_outlier
                    for k in range(1, 200)]
        assert not all(verdicts)

    def test_parameter_validation(self):
        # The config is the only source of a bank's parameters and checks
        # them, built in Python or loaded alike.
        cfg = two_robot_benchmark()
        for name, value in (("capacity", 0), ("threshold", 1.0)):
            d = cfg.to_dict()
            d["judge"][name] = value
            for build in (lambda: replace(cfg, **{f"judge_{name}": value}),
                          lambda: config_from_dict(d)):
                with pytest.raises(ConfigError, match=rf"judge\.{name} must be"):
                    build()

    def test_noise_free_soundness(self):
        # On exact data the triangle inequality can never fire: screening a
        # whole clean scenario produces zero outlier verdicts.
        bank = JudgeBank(1)
        for k, (ti, tj) in enumerate(benchmark_pair(ticks=499)[2]):
            res = screen(bank, distance(ti.as_row(), tj.as_row()),
                         ti.odom_pose.position(), tj.odom_pose.position())
            assert not res.is_outlier

    def test_false_positive_rate_under_noise(self):
        # Gaussian sensor noise alone (sigma 0.05) must almost never trip the
        # triangle test: observed false-positive rate below 1%.
        rng = np.random.default_rng(99)
        bank = JudgeBank(1)
        flagged, total = 0, 0
        zi = np.zeros(3)
        zj = np.zeros(3)
        truths = benchmark_pair(ticks=9_999)[2]
        prev_i, prev_j = truths[0]
        for k, (ti, tj) in enumerate(truths):
            d = distance(ti.as_row(), tj.as_row()) + rng.normal(0, 0.05)
            zi = zi + (ti.odom_pose.position() - prev_i.odom_pose.position()) \
                + rng.normal(0, 0.05, 3)
            zj = zj + (tj.odom_pose.position() - prev_j.odom_pose.position()) \
                + rng.normal(0, 0.05, 3)
            res = screen(bank, max(d, 0.0), zi, zj)
            flagged += res.is_outlier
            total += 1
            prev_i, prev_j = ti, tj
        assert flagged / total < 0.01
