from dataclasses import replace

import numpy as np
import pytest

from conftest import distance, stepped
from uwbio.config import ConfigError, config_from_dict
from uwbio.scenarios import two_robot_benchmark
from uwbio.sensing import MeasurementTriplet, NoiseModel, RangeStream, odom_step, robot_rng
from uwbio.world import RobotTruth, advance


def test_noise_model_validation():
    # NoiseModel is plain data; the config that holds it checks its values,
    # built in Python or loaded alike.
    cfg = two_robot_benchmark()
    for name, value in (("sigma_range", -0.1), ("outlier_prob", 1.5)):
        d = cfg.to_dict()
        d["noise"][name] = value
        for build in (lambda: replace(cfg, noise=NoiseModel(**{name: value})),
                      lambda: config_from_dict(d)):
            with pytest.raises(ConfigError, match=rf"noise\.{name} must be"):
                build()


def test_triplet_rejects_negative_distance():
    with pytest.raises(ValueError):
        MeasurementTriplet(-0.1, np.zeros(3), np.zeros(3), 0)


class TestRange:
    def test_zero_noise_exact(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 1, 0, 0, 2.0)
        d_ab = distance(a.as_row(), b.as_row())
        d = RangeStream(NoiseModel(), 0, 0, 1).draw(d_ab)[0]
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_spread(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 3, 4, 0, 0)
        d_ab = distance(a.as_row(), b.as_row())
        noise = NoiseModel(sigma_range=0.05)
        stream = RangeStream(noise, 42, 0, 1)
        draws = np.array([stream.draw(d_ab)[0] for _ in range(10_000)])
        assert 0.045 < draws.std() < 0.055
        assert draws.mean() == pytest.approx(5.0, abs=0.01)

    def test_all_outliers_spread(self):
        # With outlier probability 1 every draw uses the wide mixture sigma.
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 30, 40, 0, 0)
        d_ab = distance(a.as_row(), b.as_row())
        noise = NoiseModel(sigma_range=0.01, outlier_prob=1.0, sigma_outlier=3.0)
        stream = RangeStream(noise, 7, 0, 1)
        draws = np.array([stream.draw(d_ab)[0] for _ in range(10_000)])
        assert abs(draws.std() - 3.0) / 3.0 < 0.10

    def test_clamped_nonnegative(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 0.01, 0, 0, 0)
        d_ab = distance(a.as_row(), b.as_row())
        noise = NoiseModel(sigma_range=5.0)
        stream = RangeStream(noise, 3, 0, 1)
        draws = [stream.draw(d_ab)[0] for _ in range(200)]
        assert min(draws) >= 0.0

    def test_stream_determinism(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 2, 1, 0, 0)
        d_ab = distance(a.as_row(), b.as_row())
        noise = NoiseModel(sigma_range=0.1, outlier_prob=0.2)
        s1 = RangeStream(noise, 99, 0, 1)
        s2 = RangeStream(noise, 99, 0, 1)
        for _ in range(100):
            assert s1.draw(d_ab) == s2.draw(d_ab)

    def test_streams_independent_per_pair(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 2, 1, 0, 0)
        d_ab = distance(a.as_row(), b.as_row())
        noise = NoiseModel(sigma_range=0.1)
        d1 = RangeStream(noise, 99, 0, 1).draw(d_ab)[0]
        d2 = RangeStream(noise, 99, 1, 0).draw(d_ab)[0]
        assert d1 != d2


def increment(prev, nxt, noise, rng):
    """One robot's noisy odometry increment: `odom_step` from a zero
    cumulative row, as (dx, dy, dz, dyaw)."""
    row, = odom_step([(0.0, 0.0, 0.0, 0.0)], [prev.as_row()], [nxt.as_row()], noise, [rng])
    return row


class TestOdom:
    def test_zero_noise_exact_delta(self):
        r = RobotTruth.spawn(0, 5, 5, 0, 1.0)
        nxt = stepped(r, (0.5, 0.1, 0.3), 0.1)
        *delta, dyaw = increment(r, nxt, NoiseModel(), robot_rng(0, 0))
        assert np.allclose(delta, nxt.odom_pose.position() - r.odom_pose.position(), atol=0)
        assert dyaw == nxt.odom_pose.yaw.radians - r.odom_pose.yaw.radians

    def test_cumulative_matches_truth_when_noiseless(self):
        r = RobotTruth.spawn(0, 1, 2, 0, 0.4)
        cum, rng = [[0.0] * 4], robot_rng(0, 0)
        for _ in range(50):
            nxt = stepped(r, (0.3, 0.05, -0.2), 0.05)
            cum = odom_step(cum, [r.as_row()], [nxt.as_row()], NoiseModel(), [rng])
            r = nxt
        assert np.allclose(cum[0][:3], r.odom_pose.position(), atol=1e-12)
        assert cum[0][3] == pytest.approx(r.odom_pose.yaw.radians, abs=1e-12)

    def test_random_walk_drift(self):
        # Stationary robots, per-step noise sigma: after n steps the
        # cumulative std per axis is sigma*sqrt(n).
        r = RobotTruth.spawn(0, 0, 0, 0, 0).as_row()
        noise = NoiseModel(sigma_odom_pos=0.01)
        n_steps, n_streams = 2000, 120
        cum = [[0.0] * 4 for _ in range(n_streams)]
        rngs = [robot_rng(s, 0) for s in range(n_streams)]
        still = [r] * n_streams
        for _ in range(n_steps):
            cum = odom_step(cum, still, still, noise, rngs)
        finals = np.array(cum)[:, :3]
        expected = 0.01 * np.sqrt(n_steps)
        for axis in range(3):
            assert abs(finals[:, axis].std() - expected) / expected < 0.15

    def test_planar_freezes_z(self):
        r = RobotTruth.spawn(0, 0, 0, 0, 0).as_row()
        cum, rng = [[0.0] * 4], robot_rng(5, 0)
        for _ in range(100):
            cum = odom_step(cum, [r], [r], NoiseModel(sigma_odom_pos=0.1), [rng], planar=True)
        assert cum[0][2] == 0.0

    def test_seeded_determinism(self):
        r = RobotTruth.spawn(0, 0, 0, 0, 0)
        nxt = stepped(r, (0.2, 0.0, 0.1), 0.05)
        noise = NoiseModel(sigma_odom_pos=0.02, sigma_odom_yaw=0.01)
        d1 = increment(r, nxt, noise, robot_rng(11, 3))
        d2 = increment(r, nxt, noise, robot_rng(11, 3))
        assert np.array_equal(d1[:3], d2[:3]) and d1[3] == d2[3]
