import math

import numpy as np
import pytest

from conftest import benchmark_pair, circle_cmd, filled_record
from uwbio.harness import run
from uwbio.regression import (DataRecord, EmptyRecord, MotionProfile, RegressorSample,
                              build_sample, excitation_ratio, observability_probe, true_thetas)
from uwbio.scenarios import chain_swarm
from uwbio.sensing import NoiseModel
from uwbio.world import RobotTruth, VelocityCommand


class TestBuildSample:
    def test_degenerate_interval_rejected(self):
        z = np.zeros(3)
        assert build_sample(1.0, 1.0, (z, z), (z, z)) is None

    def test_hand_built_case(self):
        # Robot i at the origin heading 0 steps 0.1 m along x; the neighbor
        # sits still at world (1, 0) heading pi/2.  All regressor entries are
        # hand-computable: Psi = [0.1, 0, 0, 0, 0, 0, 0], ybar = -0.1.
        p_i, u_i = np.zeros(3), np.array([0.1, 0.0, 0.0])
        p_j, u_j = np.zeros(3), np.zeros(3)
        s = build_sample(1.0, 0.9, (p_i, u_i), (p_j, u_j), t_k=0)
        assert s is not None
        assert np.allclose(s.phi, [1, 0, 0, 0, 0, 0, 0], atol=1e-15)
        assert s.y == pytest.approx(-1.0, abs=1e-15)
        # theta for this geometry: p0 = (-1, 0, 0), theta0 = pi/2.
        theta = np.array([-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        assert s.phi @ theta == pytest.approx(s.y, abs=1e-12)

    def test_unit_norm_phi(self):
        s = build_sample(2.0, 2.05,
                         (np.array([0.3, 0.1, 0.0]), np.array([0.02, 0.01, 0.005])),
                         (np.array([-0.2, 0.4, 0.1]), np.array([-0.01, 0.02, 0.0])))
        assert np.linalg.norm(s.phi) == pytest.approx(1.0, abs=1e-12)

    def test_noise_free_consistency_on_scenario(self):
        # The central oracle: on exact data every accepted sample satisfies
        # y = theta' phi.  This pins the whole derivation end to end.
        samples, theta, _ = benchmark_pair(ticks=800)
        assert len(samples) > 700
        worst = max(abs(s.phi @ theta - s.y) for s in samples)
        assert worst < 1e-9


class TestThetaTrue:
    def test_redundancy_constraint(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = RobotTruth.spawn(0, *rng.uniform(-5, 5, 2), rng.uniform(0, 2),
                                 rng.uniform(-3, 3))
            b = RobotTruth.spawn(1, *rng.uniform(-5, 5, 2), rng.uniform(0, 2),
                                 rng.uniform(-3, 3))
            th, = true_thetas([a.as_row(), b.as_row()], [(0, 1)])
            c, s = th[5], th[6]
            assert c ** 2 + s ** 2 == pytest.approx(1.0, abs=1e-12)
            rot_t = np.array([[c, s], [-s, c]])   # R(theta0)^T
            assert np.allclose(th[3:5], rot_t @ th[:2], atol=1e-12)

    def test_requires_initial_state(self):
        from uwbio.world import step
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        moved = step(a, VelocityCommand(1, 0, 0), 1.0)
        with pytest.raises(ValueError):
            true_thetas([moved.as_row(), a.as_row()], [(0, 1)])

    def test_requires_initial_state_of_the_neighbor(self):
        from uwbio.world import step
        a = RobotTruth.spawn(0, 0, 0, 0, 0)
        turned = step(a, VelocityCommand(0, 0, 1), 1.0)
        with pytest.raises(ValueError):
            true_thetas([a.as_row(), turned.as_row()], [(0, 1)])


class TestDataRecord:
    def test_single_sample(self):
        rec = DataRecord()
        phi = np.zeros(7)
        phi[3] = 1.0
        rec.add(RegressorSample(phi, 0.5, 0))
        assert rec.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert rec.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.matrix_rank(rec.S) == 1

    def test_orthonormal_basis_full_rank(self):
        rec = DataRecord()
        for k in range(7):
            phi = np.zeros(7)
            phi[k] = 1.0
            rec.add(RegressorSample(phi, 0.0, k))
        assert excitation_ratio(rec) == pytest.approx(1.0, abs=1e-12)
        assert rec.lambda_min > 0

    def test_excitation_ratio_rank_deficient(self):
        rec = DataRecord()
        phi = np.ones(7) / math.sqrt(7)
        for k in range(3):
            rec.add(RegressorSample(phi, 0.0, k))
        assert excitation_ratio(rec) == 0.0

    def test_excitation_ratio_empty_raises(self):
        with pytest.raises(EmptyRecord):
            excitation_ratio(DataRecord())

    def test_reconstruction_invariant_after_churn(self):
        # Force heavy eviction with a small cap; the incrementally maintained
        # S must equal the sum rebuilt from the retained history.
        samples, _, _ = benchmark_pair(ticks=600)
        rec = filled_record(samples, cap=12)
        assert len(rec) == 12
        assert np.linalg.norm(rec.S - rec.phis.T @ rec.phis) < 1e-9
        assert np.allclose(rec.phis, np.stack([s.phi for s in rec.history]), atol=0)

    def test_stored_phis_unit_norm_and_lambda_bounds(self):
        samples, _, _ = benchmark_pair(ticks=400)
        rec = filled_record(samples, cap=32)
        for s in rec.history:
            assert np.linalg.norm(s.phi) == pytest.approx(1.0, abs=1e-10)
        assert rec.lambda_max <= len(rec) + 1e-9
        # lambda_max(U) for any stored sample is phi'phi = 1.
        assert max(float(s.phi @ s.phi) for s in rec.history) <= 1 + 1e-12

    def test_benchmark_scenario_reaches_threshold(self):
        # Sustained counter-rotating excitation drives the retained record's
        # eigenvalue ratio past the stage threshold within 900 ticks.
        samples, _, _ = benchmark_pair(ticks=900)
        rec = DataRecord()
        for s in samples:
            rec.add(s)
        assert excitation_ratio(rec) >= 0.1

    def test_planar_record_uses_active_block(self):
        rec = DataRecord(planar=True)
        for k in range(6):
            phi = np.zeros(7)
            phi[k if k < 2 else k + 1] = 1.0
            rec.add(RegressorSample(phi, 0.0, k))
        assert excitation_ratio(rec) == pytest.approx(1.0, abs=1e-12)


class TestHistoryView:
    """`history` is built from the record's rows and is the same list until
    the record next takes a sample; a finished run's checks edit it in
    place and read the edit back."""

    def test_same_list_until_the_next_sample(self):
        samples, _, _ = benchmark_pair(ticks=200)
        rec = filled_record(samples[:20], cap=8)
        view = rec.history
        assert rec.history is view
        view[0] = RegressorSample(view[0].phi * 2.0, view[0].y, view[0].t_k)
        view.pop()
        assert rec.history is view and len(rec.history) == len(rec) - 1
        assert bits(rec.history[0].phi) == bits(rec.phis[0] * 2.0)
        assert sum(rec.add(s) for s in samples[20:60]) > 0   # evictions included
        fresh = rec.history
        assert fresh is not view and len(fresh) == len(rec) == 8
        assert [(bits(s.phi), s.y) for s in fresh] == \
            [(bits(phi), y) for phi, y in zip(rec.phis, rec.ys.tolist())]
        kept = [s.t_k for s in samples if any(bits(s.phi) == bits(phi) for phi in rec.phis)]
        assert [s.t_k for s in fresh] == kept == sorted(kept)

    def test_rejected_sample_keeps_the_list(self):
        rec = DataRecord(hist_cap=7)
        for k in range(7):
            rec.add(RegressorSample(np.eye(7)[k], 0.0, k))
        view = rec.history
        assert not rec.add(RegressorSample(np.eye(7)[0], 0.0, 7))
        assert rec.history is view

    def test_run_history_matches_rows(self):
        res = run(chain_swarm(3, seed=1, noise=NoiseModel(0.05, 0.002, 0.001),
                              duration_s=20.0))
        for est in res.final_estimators.values():
            rec = est.data
            assert len(rec.history) == len(rec) > 0
            assert [(bits(s.phi), s.y) for s in rec.history] == \
                [(bits(phi), y) for phi, y in zip(rec.phis, rec.ys.tolist())]
            ticks = [s.t_k for s in rec.history]
            assert ticks == sorted(set(ticks)) and ticks[-1] < res.n_ticks

    def test_tick_builds_no_samples(self, monkeypatch):
        # The tick hands stacked arrays from build_samples to the record and
        # the estimator; only the run's result builds one last_sample per pair.
        built = []
        init = RegressorSample.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        monkeypatch.setattr(RegressorSample, "__init__", counting)
        res = run(chain_swarm(3, seed=1, noise=NoiseModel(0.05, 0.002, 0.001),
                              duration_s=20.0))
        assert len(res.last_sample) == len(res.theta_log) == 2
        assert len(built) <= len(res.theta_log)


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def stationary(t):
    return VelocityCommand(0.0, 0.0, 0.0)


class TestObservabilityProbe:
    def test_observer_stationary(self):
        # Observer still: position and yaw rows identically zero.
        profile = MotionProfile(RobotTruth.spawn(1, 0, 0, 0, 0),
                                RobotTruth.spawn(0, 2, 1, 0, 1.0),
                                stationary, circle_cmd(0.4, 0.0, 0.5))
        diag = observability_probe(profile, ticks=100)
        assert set(diag.zero_rows) >= {0, 1, 2, 5, 6}
        assert diag.rank <= 2

    def test_neighbor_stationary(self):
        profile = MotionProfile(RobotTruth.spawn(1, 0, 0, 0, 0),
                                RobotTruth.spawn(0, 2, 1, 0, 1.0),
                                circle_cmd(0.4, 0.2, 0.5), stationary)
        diag = observability_probe(profile, ticks=100)
        assert {5, 6} <= set(diag.zero_rows)

    def test_identical_motion(self):
        cmd = circle_cmd(0.4, 0.2, 0.5)
        profile = MotionProfile(RobotTruth.spawn(1, 0, 0, 0, 0.3),
                                RobotTruth.spawn(0, 2, 1, 0, 1.0), cmd, cmd)
        diag = observability_probe(profile, ticks=100)
        assert 2 in diag.zero_rows

    def test_constant_velocities(self):
        def straight_a(t):
            return VelocityCommand(0.3, 0.05, 0.0)

        def straight_b(t):
            return VelocityCommand(0.2, -0.03, 0.0)

        profile = MotionProfile(RobotTruth.spawn(1, 0, 0, 0, 0.3),
                                RobotTruth.spawn(0, 2, 1, 0, 1.0),
                                straight_a, straight_b)
        diag = observability_probe(profile, ticks=100)
        assert diag.position_block_rank <= 1
        assert diag.rank < 7

    def test_fully_excited(self):
        profile = MotionProfile(RobotTruth.spawn(1, 1.5, 1.0, 0, 2.0),
                                RobotTruth.spawn(0, 0, 0, 0, 0),
                                circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5))
        diag = observability_probe(profile, ticks=400, dt=0.1)
        assert diag.rank == 7
        assert diag.lambda_min > 1e-6
