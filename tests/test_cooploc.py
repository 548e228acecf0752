import math

import numpy as np
import pytest

from conftest import random_dag, random_world_poses, truth_pairwise
from uwbio.cooploc import (LeaderPoseEstimate, MissingNeighborEstimate, UnreachableNode,
                           assign_layers, leader_initial_estimate,
                           leader_realtime_estimate)
from uwbio.estimation import RelativePoseEstimate
from uwbio.geometry import Angle, Rotation3Z


class TestAssignLayers:
    def test_star(self):
        g = assign_layers([(1, 0), (2, 0), (3, 0)], 4)
        assert g.layers == (0, 1, 1, 1)
        assert g.out_edges[1] == (0,)

    def test_chain(self):
        g = assign_layers([(2, 1), (1, 0)], 3)
        assert g.layers == (0, 1, 2)
        assert g.max_layer == 2

    def test_diamond_with_pruning(self):
        # 1 and 2 hear the leader; 3 and 5 hear 2; 4 hears 1 and 3.  The
        # edge 4 -> 3 points to an equal-or-deeper layer and is pruned.
        edges = [(1, 0), (2, 0), (3, 2), (5, 2), (4, 1), (4, 3)]
        g = assign_layers(edges, 6)
        assert g.layers == (0, 1, 1, 2, 2, 2)
        assert g.out_edges[4] == (1,)
        assert g.out_edges[3] == (2,)

    def test_unreachable_raises(self):
        with pytest.raises(UnreachableNode):
            assign_layers([(1, 0), (3, 2)], 4)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            assign_layers([(1, 1), (1, 0)], 2)

    def test_every_pruned_node_keeps_a_parent(self, rng):
        for _ in range(50):
            n, edges = random_dag(rng)
            g = assign_layers(edges, n)
            for i in range(1, n):
                assert g.out_edges[i], f"node {i} lost all neighbors"
                assert min(g.layers[j] for j in g.out_edges[i]) == g.layers[i] - 1


class TestLeaderInitialEstimate:
    def test_layer1_copies_pairwise(self, rng):
        truths = random_world_poses(rng, 2)
        g = assign_layers([(1, 0)], 2)
        pw = {(1, 0): truth_pairwise(truths, 1, 0)}
        lpe = leader_initial_estimate(1, g, pw, {}, t_k=3)
        assert np.allclose(lpe.q0_hat, pw[(1, 0)].p0_hat, atol=0)
        assert lpe.fresh == 3

    def test_chain_composition_exact(self, rng):
        truths = random_world_poses(rng, 3)
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(1, 0): truth_pairwise(truths, 1, 0), (2, 1): truth_pairwise(truths, 2, 1)}
        lpe1 = leader_initial_estimate(1, g, pw, {}, 0)
        lpe2 = leader_initial_estimate(2, g, pw, {1: lpe1}, 0)
        direct = truth_pairwise(truths, 2, 0)
        assert np.allclose(lpe2.q0_hat, direct.p0_hat, atol=1e-9)
        assert abs(lpe2.Q0_hat.c - direct.R0_hat.c) < 1e-9
        assert abs(lpe2.Q0_hat.s - direct.R0_hat.s) < 1e-9

    def test_single_neighbor_average_is_composition(self, rng):
        truths = random_world_poses(rng, 3)
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(2, 1): truth_pairwise(truths, 2, 1)}
        parent = LeaderPoseEstimate(truth_pairwise(truths, 1, 0).p0_hat,
                                    truth_pairwise(truths, 1, 0).R0_hat)
        lpe = leader_initial_estimate(2, g, pw, {1: parent}, 0)
        rpe = pw[(2, 1)]
        expected = rpe.p0_hat + rpe.R0_hat.apply(parent.q0_hat)
        assert np.allclose(lpe.q0_hat, expected, atol=1e-12)

    def test_missing_neighbor_raises(self):
        g = assign_layers([(1, 0)], 2)
        with pytest.raises(MissingNeighborEstimate):
            leader_initial_estimate(1, g, {}, {}, 0)

    def test_missing_parent_estimate_raises(self, rng):
        truths = random_world_poses(rng, 3)
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(2, 1): truth_pairwise(truths, 2, 1)}
        with pytest.raises(MissingNeighborEstimate):
            leader_initial_estimate(2, g, pw, {}, 0)

    def test_composition_exact_over_random_dags(self, rng):
        # On ground-truth pairwise inputs the composed leader pose equals
        # the direct ground truth for every node of every DAG.
        for _ in range(100):
            n, edges = random_dag(rng)
            g = assign_layers(edges, n)
            truths = random_world_poses(rng, n)
            pw = {(i, j): truth_pairwise(truths, i, j) for (i, j) in g.ordered_pairs()}
            lpe = {}
            for layer in range(1, g.max_layer + 1):
                for i in g.nodes_in_layer(layer):
                    lpe[i] = leader_initial_estimate(i, g, pw, lpe, 0)
            for i in range(1, n):
                direct = truth_pairwise(truths, i, 0)
                assert np.linalg.norm(lpe[i].q0_hat - direct.p0_hat) < 1e-9
                assert math.hypot(lpe[i].Q0_hat.c - direct.R0_hat.c,
                                  lpe[i].Q0_hat.s - direct.R0_hat.s) < 1e-9

    def test_rotation_always_orthonormal(self, rng):
        # Even on garbage inputs the averaged rotation is re-projected.
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(2, 1): RelativePoseEstimate(np.array([1.0, 0, 0]),
                                           Rotation3Z.from_angle(0.3))}
        parent = LeaderPoseEstimate(np.array([5.0, -2.0, 0.1]), Rotation3Z.from_angle(-2.0))
        lpe = leader_initial_estimate(2, g, pw, {1: parent}, 0)
        assert lpe.Q0_hat.c ** 2 + lpe.Q0_hat.s ** 2 == pytest.approx(1.0, abs=1e-12)


class TestLayeredErrorPropagation:
    def test_composition_inequality_along_chain(self):
        # At every tick the composed error obeys the triangle decomposition
        # |q_err_child| <= |pair position err| + |pair rotation err| * |q_parent|
        #                  + |q_err_parent|.
        from uwbio.geometry import DegenerateRotation, unit_pair
        from uwbio.harness import run
        from uwbio.scenarios import chain_swarm
        res = run(chain_swarm(4, seed=11, duration_s=120.0))
        for child in (2, 3):
            parent = child - 1
            pair = (child, parent)
            th_true = res.theta_true[pair]
            q_parent = float(np.linalg.norm(res.q0_true[parent]))
            checked = 0
            for k in range(res.n_ticks + 1):
                # Only ticks where the child recomposed from current values;
                # a stale child may predate the parent's logged state.
                if not res.q0_fresh[child][k] or np.isnan(res.q0_err[parent][k]):
                    continue
                th = res.theta_log[pair][k]
                try:
                    c, s = unit_pair(th[5], th[6])
                except DegenerateRotation:
                    continue
                pair_pos = np.linalg.norm(th[:3] - th_true[:3])
                pair_rot = math.hypot(c - th_true[5], s - th_true[6])
                bound = pair_pos + pair_rot * q_parent + res.q0_err[parent][k]
                assert res.q0_err[child][k] <= bound + 1e-9
                checked += 1
            assert checked > 1000


class TestLeaderRealtime:
    def test_at_start_returns_initials(self):
        lpe = LeaderPoseEstimate(np.array([1.0, 2.0, 0.5]), Rotation3Z.from_angle(0.7))
        q, c, s = leader_realtime_estimate(lpe, np.zeros(3), Angle(0.0),
                                           np.zeros(3), Angle(0.0))
        assert np.allclose(q, [1, 2, 0.5], atol=0)
        # theta^{Sigma_0}_{Sigma_i}(t0) = -theta0 for the O_i -> O_0 angle.
        assert c == pytest.approx(math.cos(0.7), abs=1e-12)
        assert s == pytest.approx(-math.sin(0.7), abs=1e-12)

    def test_constant_when_nobody_moves(self):
        lpe = LeaderPoseEstimate(np.array([1.0, 2.0, 0.0]), Rotation3Z.from_angle(-0.4))
        first = leader_realtime_estimate(lpe, np.zeros(3), Angle(0.0), np.zeros(3), Angle(0.0))
        again = leader_realtime_estimate(lpe, np.zeros(3), Angle(0.0), np.zeros(3), Angle(0.0))
        assert np.allclose(first[0], again[0], atol=0)
        assert first[1:] == again[1:]

    def test_matches_angle_sum_identity(self, rng):
        for _ in range(30):
            theta0 = rng.uniform(-3, 3)          # yaw of O_0 in O_i
            phi_i = rng.uniform(-6, 6)
            phi_0 = rng.uniform(-6, 6)
            lpe = LeaderPoseEstimate(np.zeros(3), Rotation3Z.from_angle(theta0))
            _, c, s = leader_realtime_estimate(lpe, np.zeros(3), Angle(phi_i),
                                               np.zeros(3), Angle(phi_0))
            want = phi_i - phi_0 - theta0        # yaw of Sigma_i in Sigma_0
            assert c == pytest.approx(math.cos(want), abs=1e-12)
            assert s == pytest.approx(math.sin(want), abs=1e-12)
