import math

import numpy as np
import pytest

from uwbio.config import RobotConfig
from uwbio.control import (ControlGains, ExcitationTimeout, FormationSpec, StageTracker,
                           stage1_rows, stage2_rows, tracking_error_rows,
                           tracking_error_truth_rows)
from uwbio.geometry import Rotation3Z
from uwbio.world import RobotTruth, VelocityCommand


def truth_error(robot: RobotTruth, leader: RobotTruth, offset):
    """`tracking_error_truth_rows` of one robot, as (e_p, e_c, e_s)."""
    row, = tracking_error_truth_rows([robot.as_row()], leader.as_row(), offset).tolist()
    return np.array(row[:3]), row[3], row[4]


def stage1(robot, t: float) -> VelocityCommand:
    return VelocityCommand(*stage1_rows([robot], t)[0])


def stage2(lead: VelocityCommand, e_p, e_c: float, e_s: float,
           gains: ControlGains) -> VelocityCommand:
    """`stage2_rows` of one robot's error row around the leader command."""
    return VelocityCommand(*stage2_rows((lead.v_h, lead.v_z, lead.w),
                                        [(*np.asarray(e_p, dtype=float).tolist(), e_c, e_s)],
                                        gains)[0])


class TestGains:
    def test_k4_zero_allowed_for_planar_runs(self):
        ControlGains(1.0, 1.0, 0.5, 0.0)

    def test_nonpositive_primary_gain_rejected(self):
        with pytest.raises(ValueError):
            ControlGains(0.0, 1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            ControlGains(1.0, 1.0, 0.5, -0.1)


class TestFormationSpec:
    def test_leader_offset_must_be_zero(self):
        with pytest.raises(ValueError):
            FormationSpec({0: np.array([1.0, 0, 0])})

    def test_offsets_must_be_finite(self):
        with pytest.raises(ValueError):
            FormationSpec({1: np.array([np.inf, 0, 0])})

    def test_missing_robot_defaults_to_zero(self):
        spec = FormationSpec({1: np.array([0.5, -0.5, 0.0])})
        assert np.allclose(spec.offset(2), 0.0, atol=0)


class TestTrackingErrorTruth:
    def test_zero_at_target(self):
        # Robot exactly at the desired offset, heading aligned with the leader.
        leader = RobotTruth.spawn(0, 0, 0, 0, 0.6)
        off = np.array([0.5, -0.5, 0.0])
        c, s = math.cos(0.6), math.sin(0.6)
        rx = c * off[0] - s * off[1]
        ry = s * off[0] + c * off[1]
        robot = RobotTruth.spawn(1, rx, ry, 0.0, 0.6)
        e_p, e_c, e_s = truth_error(robot, leader, off)
        assert np.allclose(e_p, 0.0, atol=1e-12)
        assert e_c == pytest.approx(0.0, abs=1e-12)
        assert e_s == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_frame_chase(self, rng):
        for _ in range(30):
            lx, ly, lyaw = rng.uniform(-3, 3, 3)
            x, y, yaw = rng.uniform(-3, 3, 3)
            off = rng.uniform(-1, 1, 3)
            leader = RobotTruth.spawn(0, lx, ly, 0.2, lyaw)
            robot = RobotTruth.spawn(1, x, y, 0.5, yaw)
            e_p, e_c, e_s = truth_error(robot, leader, off)

            def rz(a):
                return np.array([[math.cos(a), -math.sin(a), 0],
                                 [math.sin(a), math.cos(a), 0], [0, 0, 1]])
            p_i0_o0 = rz(lyaw).T @ (robot.world_pose.position() - leader.world_pose.position())
            expected = rz(yaw - lyaw).T @ (p_i0_o0 - off)
            assert np.allclose(e_p, expected, atol=1e-10)
            assert e_c == pytest.approx(1 - math.cos(yaw - lyaw), abs=1e-12)
            assert e_s == pytest.approx(math.sin(yaw - lyaw), abs=1e-12)

    def test_yaw_error_recovered(self):
        # The relative yaw is recoverable from the trig error pair.
        leader = RobotTruth.spawn(0, 0.0, 0.0, 0.0, 0.2)
        _, e_c, e_s = truth_error(RobotTruth.spawn(1, 1.0, 0.0, 0.0, 0.5), leader, np.zeros(3))
        assert math.atan2(e_s, 1.0 - e_c) == pytest.approx(0.3)


class TestTrackingErrorEstimated:
    def test_equals_truth_on_exact_inputs(self, rng):
        # Feed the estimated-error path the ground-truth quantities; it must
        # reproduce the truth-path output to rounding.
        for _ in range(20):
            lx, ly, lyaw = rng.uniform(-3, 3, 3)
            x, y, yaw = rng.uniform(-3, 3, 3)
            off = rng.uniform(-1, 1, 3)
            leader = RobotTruth.spawn(0, lx, ly, 0.0, lyaw)
            robot = RobotTruth.spawn(1, x, y, 0.4, yaw)
            truth_p, truth_c, truth_s = truth_error(robot, leader, off)

            # Ground-truth leader-relative quantities in robot's odometry frame.
            psi_i0, psi_00 = yaw, lyaw
            q = Rotation3Z.from_angle(psi_i0).apply_inverse(
                robot.world_pose.position() - leader.world_pose.position())
            Q0 = Rotation3Z.from_angle(psi_00 - psi_i0)
            theta_rel = yaw - lyaw     # both odometries still zero
            est, = tracking_error_rows(
                [(*q.tolist(), math.cos(theta_rel), math.sin(theta_rel))],
                [(0.0, 0.0, 0.0, Q0.c, Q0.s)], [(0.0, 0.0, 0.0, 0.0)], [off.tolist()])
            assert np.allclose(est[:3], truth_p, atol=1e-10)
            assert est[3] == pytest.approx(truth_c, abs=1e-12)
            assert est[4] == pytest.approx(truth_s, abs=1e-12)


class TestStageCommands:
    def test_stage1_values(self):
        g = RobotConfig(1, r=2.0, c_v=0.2, c_w=0.1)
        cmd = stage1(g, t=0.0)
        assert cmd.v_h == pytest.approx(0.2)
        assert cmd.w == pytest.approx(0.1)
        assert cmd.v_z == 0.0

    def test_stage1_zero_vertical_in_2d(self):
        g = RobotConfig(1, r=0.3, c_v=0.0, c_w=0.5)
        for t in (0.0, 1.7, 9.2):
            assert stage1(g, t).v_z == 0.0

    def test_stage1_is_bounded(self):
        g = RobotConfig(1, r=0.5, c_v=0.3, c_w=-0.4)
        for t in np.linspace(0, 50, 300):
            cmd = stage1(g, t)
            assert abs(cmd.v_h) == pytest.approx(abs(g.r * g.c_w))
            assert abs(cmd.v_z) <= abs(g.c_v) + 1e-12

    def test_stage2_zero_error_passthrough(self):
        lead = VelocityCommand(0.15, 0.0, 0.5)
        g = ControlGains(1.0, 0.5, 0.4, 0.2)
        cmd = stage2(lead, np.zeros(3), 0.0, 0.0, g)
        assert cmd == lead

    def test_stage2_gain_wiring(self):
        lead = VelocityCommand(0.2, 0.1, 0.5)
        g = ControlGains(1.0, 0.5, 0.4, 0.2)
        cmd = stage2(lead, [0.3, -0.2, 0.4], 0.1, 0.6, g)
        assert cmd.v_h == pytest.approx(0.2 - 1.0 * 0.3 + 0.5 * 0.5 * -0.2)
        assert cmd.v_z == pytest.approx(0.1 - 0.2 * 0.4)
        assert cmd.w == pytest.approx(0.5 - 0.4 * 0.6)

    def test_stage2_sign_contract(self):
        # Ahead of target (positive forward error) means slow down.
        lead = VelocityCommand(0.2, 0.0, 0.5)
        g = ControlGains(1.0, 0.5, 0.4, 0.2)
        cmd = stage2(lead, [0.3, 0.0, 0.0], 0, 0, g)
        assert cmd.v_h < lead.v_h


class TestTruthFeedbackConsistency:
    @pytest.mark.slow
    def test_truth_feedback_never_tracks_worse(self):
        # Feeding the controller ground-truth errors isolates estimator-induced
        # tracking error: across seed-matched noisy runs the truth-fed loop
        # ends at least as tight on average.
        from dataclasses import replace
        from uwbio.harness import run
        from uwbio.scenarios import four_robot_formation
        from uwbio.sensing import NoiseModel
        est_final, truth_final = [], []
        for s in range(20):
            cfg = four_robot_formation(
                noise=NoiseModel(sigma_range=0.02, sigma_odom_pos=0.005),
                duration_s=150.0)
            est = run(cfg, seed=400 + s)
            tru = run(replace(cfg, truth_feedback=True), seed=400 + s)
            est_final.append(max(est.metrics.final_tracking_pos.values()))
            truth_final.append(max(tru.metrics.final_tracking_pos.values()))
        assert np.mean(truth_final) <= np.mean(est_final)


class TestStageTracker:
    def test_transition_fires_tick_after_all_done(self):
        st = StageTracker([0, 1, 2], threshold=0.1)
        assert not st.update(0, {0: [], 1: [0.05], 2: [0.2]})
        assert not st.in_stage2(0)
        st.update(5, {0: [], 1: [0.15], 2: [0.2]})
        assert st.transition_tick == 6
        assert not st.in_stage2(5)
        assert st.in_stage2(6)

    def test_one_straggler_holds_everyone(self):
        st = StageTracker([0, 1, 2], threshold=0.1)
        st.update(0, {0: [], 1: [0.9], 2: [0.01]})
        assert st.transition_tick is None

    def test_done_is_sticky(self):
        st = StageTracker([0, 1], threshold=0.1)
        st.update(0, {0: [], 1: [0.2]})
        assert st.done[1]
        # Later dips do not un-finish a robot.
        st.update(1, {0: [], 1: [0.01]})
        assert st.done[1]

    def test_timeout_raises(self):
        st = StageTracker([0, 1], threshold=0.1, timeout_ticks=10)
        st.update(0, {0: [], 1: [0.0]})
        with pytest.raises(ExcitationTimeout):
            st.update(11, {0: [], 1: [0.0]})

    def test_multi_neighbor_requires_all(self):
        st = StageTracker([0, 1], threshold=0.1)
        st.update(0, {0: [], 1: [0.5, 0.05]})
        assert not st.done[1]
        st.update(1, {0: [], 1: [0.5, 0.2]})
        assert st.done[1]
