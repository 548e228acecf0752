import numpy as np
import pytest

from uwbio.sensing import (MeasurementTriplet, NoiseModel, OdomStream, RangeStream,
                           measure_odom, robot_rng)
from uwbio.world import RobotTruth, VelocityCommand, step


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma_range=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(outlier_prob=1.5)


def test_triplet_rejects_negative_distance():
    with pytest.raises(ValueError):
        MeasurementTriplet(-0.1, np.zeros(3), np.zeros(3), 0)


class TestRange:
    def test_zero_noise_exact(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 1, 0, 0, 2.0)
        d = RangeStream(NoiseModel(), 0, 0, 1).sample(a, b)[0]
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_spread(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 3, 4, 0, 0)
        noise = NoiseModel(sigma_range=0.05)
        stream = RangeStream(noise, 42, 0, 1)
        draws = np.array([stream.sample(a, b)[0] for _ in range(10_000)])
        assert 0.045 < draws.std() < 0.055
        assert draws.mean() == pytest.approx(5.0, abs=0.01)

    def test_all_outliers_spread(self):
        # With outlier probability 1 every draw uses the wide mixture sigma.
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 30, 40, 0, 0)
        noise = NoiseModel(sigma_range=0.01, outlier_prob=1.0, sigma_outlier=3.0)
        stream = RangeStream(noise, 7, 0, 1)
        draws = np.array([stream.sample(a, b)[0] for _ in range(10_000)])
        assert abs(draws.std() - 3.0) / 3.0 < 0.10

    def test_clamped_nonnegative(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 0.01, 0, 0, 0)
        noise = NoiseModel(sigma_range=5.0)
        stream = RangeStream(noise, 3, 0, 1)
        draws = [stream.sample(a, b)[0] for _ in range(200)]
        assert min(draws) >= 0.0

    def test_stream_determinism(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 2, 1, 0, 0)
        noise = NoiseModel(sigma_range=0.1, outlier_prob=0.2)
        s1 = RangeStream(noise, 99, 0, 1)
        s2 = RangeStream(noise, 99, 0, 1)
        for _ in range(100):
            assert s1.sample(a, b) == s2.sample(a, b)

    def test_streams_independent_per_pair(self):
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        b = RobotTruth.spawn(1, 2, 1, 0, 0)
        noise = NoiseModel(sigma_range=0.1)
        d1 = RangeStream(noise, 99, 0, 1).sample(a, b)[0]
        d2 = RangeStream(noise, 99, 1, 0).sample(a, b)[0]
        assert d1 != d2


class TestOdom:
    def test_zero_noise_exact_delta(self):
        r = RobotTruth.spawn(0, 5, 5, 0, 1.0)
        nxt = step(r, VelocityCommand(0.5, 0.1, 0.3), 0.1)
        delta, dyaw = measure_odom(r, nxt, NoiseModel(), robot_rng(0, 0))
        assert np.allclose(delta, nxt.odom_pose.position() - r.odom_pose.position(), atol=0)
        assert dyaw.radians == nxt.odom_pose.yaw.radians - r.odom_pose.yaw.radians

    def test_cumulative_matches_truth_when_noiseless(self):
        r = RobotTruth.spawn(0, 1, 2, 0, 0.4)
        stream = OdomStream(NoiseModel(), 0, 0)
        for _ in range(50):
            nxt = step(r, VelocityCommand(0.3, 0.05, -0.2), 0.05)
            stream.update(r, nxt)
            r = nxt
        assert np.allclose(stream.cum_pos, r.odom_pose.position(), atol=1e-12)
        assert stream.cum_yaw == pytest.approx(r.odom_pose.yaw.radians, abs=1e-12)

    def test_random_walk_drift(self):
        # Stationary robot, per-step noise sigma: after n steps the cumulative
        # std per axis is sigma*sqrt(n).
        r = RobotTruth.spawn(0, 0, 0, 0, 0)
        noise = NoiseModel(sigma_odom_pos=0.01)
        n_steps, n_streams = 2000, 120
        finals = []
        for s in range(n_streams):
            stream = OdomStream(noise, s, 0)
            for _ in range(n_steps):
                stream.update(r, r)
            finals.append(stream.cum_pos.copy())
        finals = np.array(finals)
        expected = 0.01 * np.sqrt(n_steps)
        for axis in range(3):
            assert abs(finals[:, axis].std() - expected) / expected < 0.15

    def test_planar_freezes_z(self):
        r = RobotTruth.spawn(0, 0, 0, 0, 0)
        stream = OdomStream(NoiseModel(sigma_odom_pos=0.1), 5, 0, planar=True)
        for _ in range(100):
            stream.update(r, r)
        assert stream.cum_pos[2] == 0.0

    def test_seeded_determinism(self):
        r = RobotTruth.spawn(0, 0, 0, 0, 0)
        nxt = step(r, VelocityCommand(0.2, 0.0, 0.1), 0.05)
        noise = NoiseModel(sigma_odom_pos=0.02, sigma_odom_yaw=0.01)
        d1 = measure_odom(r, nxt, noise, robot_rng(11, 3))
        d2 = measure_odom(r, nxt, noise, robot_rng(11, 3))
        assert np.array_equal(d1[0], d2[0]) and d1[1] == d2[1]

    def test_broadcast_carries_tick(self):
        stream = OdomStream(NoiseModel(), 0, 4)
        b = stream.broadcast(17)
        assert b.sender == 4 and b.t_k == 17
        assert np.allclose(b.cum_pos, 0.0, atol=0)
