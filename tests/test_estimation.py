import math

import numpy as np
import pytest

from conftest import benchmark_pair, filled_record, synthetic_record
from uwbio.estimation import (StaleBroadcast, ThetaEstimate,
                              cl_update, innovation, learning_rate,
                              realtime_relative_pose, reconstruct_pose)
from uwbio.geometry import Angle, DegenerateRotation
from uwbio.regression import DataRecord, RegressorSample
from uwbio.sensing import OdomBroadcast
from uwbio.world import Pose4


def est_from(record, theta=None, variant="stated"):
    e = ThetaEstimate.fresh(record, variant)
    if theta is not None:
        e = ThetaEstimate(np.asarray(theta, dtype=float), record, variant)
    return e


class TestLearningRate:
    def test_stated_formula(self):
        rec = DataRecord()
        rec.lambda_min, rec.lambda_max = 0.5, 3.0
        assert learning_rate(rec, 1.0, "stated") == pytest.approx(0.5 / (1 + 9))

    def test_proof_formula(self):
        rec = DataRecord()
        rec.lambda_min, rec.lambda_max = 0.5, 3.0
        assert learning_rate(rec, 1.0, "proof") == pytest.approx(0.5 / 16)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            learning_rate(DataRecord(), 1.0, "bogus")

    def test_rank_deficient_is_zero(self):
        rec = DataRecord()
        rec.add(RegressorSample(np.eye(7)[0], 0.0, 0))
        assert learning_rate(rec) == 0.0


class TestClUpdate:
    def test_requires_nonempty_record(self):
        with pytest.raises(ValueError):
            cl_update(ThetaEstimate.fresh(DataRecord()),
                      RegressorSample(np.eye(7)[0], 0.0, 0))

    def test_zero_lambda_min_is_noop(self, rng):
        rec = DataRecord()
        phi = np.eye(7)[2]
        rec.add(RegressorSample(phi, 1.0, 0))
        est = est_from(rec, rng.normal(size=7))
        out = cl_update(est, RegressorSample(phi, 1.0, 1))
        assert out is est

    def test_fixed_point_is_exact_noop(self, rng):
        # Zero innovation on every stored sample and on the current one
        # makes the step exactly zero, not just small.
        rec, theta = synthetic_record(rng, n=25)
        est = est_from(rec, theta)
        current = rec.history[-1]
        assert innovation(est, current) == pytest.approx(0.0, abs=1e-14)
        out = cl_update(est, current)
        assert np.allclose(out.theta_hat, theta, atol=1e-13)

    def test_converges_to_batch_least_squares(self, rng):
        # Independent oracle: solve the normal equations of the recorded
        # history directly; the iterated update must land on it.
        samples, theta_true, _ = benchmark_pair(ticks=1200)
        rec = filled_record(samples)
        est = ThetaEstimate.fresh(rec)
        current = samples[-1]
        for _ in range(5000):
            est = cl_update(est, current)
        phis, ys = rec.phis, rec.ys
        batch = np.linalg.solve(phis.T @ phis + np.outer(current.phi, current.phi),
                                phis.T @ ys + current.phi * current.y)
        assert np.linalg.norm(est.theta_hat - batch) < 1e-6
        # Noise-free, so the least-squares solution is the truth itself.
        assert np.linalg.norm(batch - theta_true.vector) < 1e-9

    def test_per_step_contraction_bound(self, rng):
        # With the proof-variant rate every update satisfies both the norm
        # contraction |err'| <= rho |err| and the Lyapunov decrement bound.
        samples, theta_true, _ = benchmark_pair(ticks=1200)
        rec = filled_record(samples)
        est = ThetaEstimate.fresh(rec, "proof")
        truth = theta_true.vector
        lam_min, lam_max = rec.lambda_min, rec.lambda_max
        rho = math.sqrt(1.0 - lam_min ** 2 / (1.0 + lam_max) ** 2)
        current = samples[-1]
        for _ in range(300):
            err = np.linalg.norm(est.theta_hat - truth)
            v = err ** 2
            est = cl_update(est, current)
            err_next = np.linalg.norm(est.theta_hat - truth)
            assert err_next <= rho * err + 1e-9
            dv = err_next ** 2 - v
            assert dv <= -(lam_min ** 2) / (1.0 + lam_max) ** 2 * v + 1e-9

    def test_monotone_error_decrease_noise_free(self):
        samples, theta_true, _ = benchmark_pair(ticks=1200)
        rec = filled_record(samples)
        est = ThetaEstimate.fresh(rec)
        truth = theta_true.vector
        prev = np.linalg.norm(est.theta_hat - truth)
        for s in samples[-200:]:
            est = cl_update(est, s)
            err = np.linalg.norm(est.theta_hat - truth)
            assert err <= prev + 1e-12
            prev = err


class TestReconstructPose:
    def test_identity_pair(self):
        rec = DataRecord()
        est = est_from(rec, [0, 0, 0, 0, 0, 1.0, 0.0])
        pose = reconstruct_pose(est)
        assert pose.R0_hat.c == 1.0 and pose.R0_hat.s == 0.0

    def test_already_unit_pair(self):
        est = est_from(DataRecord(), [1, 2, 3, 0, 0, 0.6, 0.8])
        pose = reconstruct_pose(est)
        assert pose.R0_hat.c == pytest.approx(0.6, abs=1e-12)
        assert pose.R0_hat.s == pytest.approx(0.8, abs=1e-12)
        assert np.allclose(pose.p0_hat, [1, 2, 3], atol=0)

    def test_degenerate_raises(self):
        est = est_from(DataRecord(), np.zeros(7))
        with pytest.raises(DegenerateRotation):
            reconstruct_pose(est)

    def test_converged_scenario_recovers_pose(self):
        samples, theta_true, _ = benchmark_pair(ticks=1600)
        rec = filled_record(samples)
        est = ThetaEstimate.fresh(rec)
        for s in samples[-1000:]:
            est = cl_update(est, s)
        pose = reconstruct_pose(est)
        assert np.linalg.norm(pose.p0_hat - theta_true.p0) < 1e-4
        true_yaw = math.atan2(theta_true.s0, theta_true.c0)
        assert abs(pose.R0_hat.yaw() - true_yaw) < 1e-4


class TestRealtimeRelativePose:
    def _exact_estimate(self, theta_true):
        rec = DataRecord()
        return est_from(rec, theta_true.vector)

    def test_at_start_returns_initials(self):
        samples, theta_true, _ = benchmark_pair(ticks=10)
        est = self._exact_estimate(theta_true)
        own = Pose4.zero()
        nb = OdomBroadcast(0, 0, np.zeros(3), Angle(0.0))
        p, theta = realtime_relative_pose(est, own, nb, t_k=0)
        assert np.allclose(p, theta_true.p0, atol=1e-12)
        assert theta.radians == pytest.approx(math.atan2(theta_true.s0, theta_true.c0))

    def test_matches_truth_along_trajectory(self):
        from uwbio.world import relative_truth
        samples, theta_true, truths = benchmark_pair(ticks=400)
        est = self._exact_estimate(theta_true)
        for k in (50, 200, 399):
            ti, tj = truths[k]
            nb = OdomBroadcast(0, k, tj.odom_pose.position(), tj.odom_pose.yaw)
            p, theta = realtime_relative_pose(est, ti.odom_pose, nb, t_k=k)
            p_true, theta_true_t = relative_truth(ti, tj)
            assert np.allclose(p, p_true, atol=1e-9)
            assert theta.radians == pytest.approx(theta_true_t.radians, abs=1e-9)

    def test_stale_broadcast_raises(self):
        samples, theta_true, _ = benchmark_pair(ticks=10)
        est = self._exact_estimate(theta_true)
        nb = OdomBroadcast(0, 5, np.zeros(3), Angle(0.0))
        with pytest.raises(StaleBroadcast):
            realtime_relative_pose(est, Pose4.zero(), nb, t_k=7, horizon=1)

    @pytest.mark.slow
    def test_bounded_noise_error_scales_linearly(self):
        # With bounded observation noise (range channel only; the regressor
        # itself stays exact) the settled estimation error grows roughly
        # linearly with the noise scale.
        from uwbio.harness import run
        from uwbio.scenarios import two_robot_benchmark
        from uwbio.sensing import NoiseModel
        sigmas = (0.01, 0.05, 0.1)
        means = []
        for sigma in sigmas:
            errs = []
            for s in range(20):
                res = run(two_robot_benchmark(noise=NoiseModel(sigma_range=sigma),
                                              duration_s=90.0), seed=300 + s)
                errs.append(res.metrics.final_theta_err[(1, 0)])
            means.append(float(np.mean(errs)))
        assert means[0] < means[1] < means[2]
        slope = (math.log(means[2]) - math.log(means[0])) / \
            (math.log(sigmas[2]) - math.log(sigmas[0]))
        assert 0.7 < slope < 1.3, f"log-log slope {slope} (means {means})"

    def test_global_frame_invariance(self):
        # Rotating and translating the whole world leaves the sample stream,
        # and hence the estimate trajectory, unchanged up to rounding.
        from conftest import circle_cmd, run_pair
        base = run_pair(circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5),
                        400, pose_i=(1.5, 1.0, 0.0, 2.0), pose_j=(0.0, 0.0, 0.0, 0.0))
        import math as m
        shift, rot = np.array([13.0, -6.0]), 1.2
        def moved(x, y, yaw):
            c, s = m.cos(rot), m.sin(rot)
            return (c * x - s * y + shift[0], s * x + c * y + shift[1], 0.0, yaw + rot)
        alt = run_pair(circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5),
                       400, pose_i=moved(1.5, 1.0, 2.0), pose_j=moved(0.0, 0.0, 0.0))
        for s_a, s_b in zip(base[0], alt[0]):
            assert np.allclose(s_a.phi, s_b.phi, atol=1e-9)
            assert s_a.y == pytest.approx(s_b.y, abs=1e-9)
        assert np.allclose(base[1].vector, alt[1].vector, atol=1e-9)
