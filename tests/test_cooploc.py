import math

import numpy as np
import pytest

from conftest import compose, random_dag, random_world_poses, truth_pairwise
from uwbio.cooploc import UnreachableNode, assign_layers, leader_realtime_rows
from uwbio.geometry import Rotation3Z


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
        lead, fresh = compose(g, pw, t_k=3)
        assert np.allclose(lead[1][:3], pw[(1, 0)][:3], atol=0)
        assert fresh[1] == 3

    def test_chain_composition_exact(self, rng):
        truths = random_world_poses(rng, 3)
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(1, 0): truth_pairwise(truths, 1, 0), (2, 1): truth_pairwise(truths, 2, 1)}
        lead, _ = compose(g, pw)
        direct = truth_pairwise(truths, 2, 0)
        assert np.allclose(lead[2][:3], direct[:3], atol=1e-9)
        assert abs(lead[2][3] - direct[3]) < 1e-9
        assert abs(lead[2][4] - direct[4]) < 1e-9

    def test_single_neighbor_average_is_composition(self, rng):
        truths = random_world_poses(rng, 3)
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(2, 1): truth_pairwise(truths, 2, 1)}
        parent = truth_pairwise(truths, 1, 0)
        lead, _ = compose(g, pw, lead=[[0.0, 0.0, 0.0, 1.0, 0.0], list(parent), [math.nan] * 5],
                          fresh=[0, 0, -1])
        x, y, z, c, s = pw[(2, 1)]
        expected = np.array([x, y, z]) + Rotation3Z(c, s).apply(np.array(parent[:3]))
        assert np.allclose(lead[2][:3], expected, atol=1e-12)

    def test_missing_neighbor_raises(self):
        # A robot missing its pairwise estimate gets no leader estimate:
        # `compose_layers` keeps its previous (here none), where
        # `leader_initial_estimate` raises MissingNeighborEstimate.
        g = assign_layers([(1, 0)], 2)
        lead, fresh = compose(g, {})
        assert fresh[1] == -1 and all(math.isnan(v) for v in lead[1])

    def test_missing_parent_estimate_raises(self, rng):
        truths = random_world_poses(rng, 3)
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(2, 1): truth_pairwise(truths, 2, 1)}
        lead, fresh = compose(g, pw)
        assert fresh[2] == -1 and all(math.isnan(v) for v in lead[2])

    def test_composition_exact_over_random_dags(self, rng):
        # On ground-truth pairwise inputs the composed leader pose equals
        # the direct ground truth for every node of every DAG.
        for _ in range(100):
            n, edges = random_dag(rng)
            g = assign_layers(edges, n)
            truths = random_world_poses(rng, n)
            pw = {(i, j): truth_pairwise(truths, i, j) for (i, j) in g.ordered_pairs()}
            lead, _ = compose(g, pw)
            for i in range(1, n):
                direct = truth_pairwise(truths, i, 0)
                assert np.linalg.norm(np.subtract(lead[i][:3], direct[:3])) < 1e-9
                assert math.hypot(lead[i][3] - direct[3], lead[i][4] - direct[4]) < 1e-9

    def test_rotation_always_orthonormal(self, rng):
        # Even on garbage inputs the averaged rotation is re-projected.
        g = assign_layers([(2, 1), (1, 0)], 3)
        pw = {(2, 1): (1.0, 0.0, 0.0, math.cos(0.3), math.sin(0.3))}
        parent = [5.0, -2.0, 0.1, math.cos(-2.0), math.sin(-2.0)]
        lead, _ = compose(g, pw, lead=[[0.0, 0.0, 0.0, 1.0, 0.0], parent, [math.nan] * 5],
                          fresh=[0, 0, -1])
        assert lead[2][3] ** 2 + lead[2][4] ** 2 == pytest.approx(1.0, abs=1e-12)


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


def realtime(lead_row, own_pos, own_yaw: float, leader_pos, leader_yaw: float):
    """`leader_realtime_rows` of one robot, as (q_hat, c_hat, s_hat)."""
    (x, y, z, c, s), = leader_realtime_rows([lead_row], [(*own_pos, own_yaw)],
                                             (*leader_pos, leader_yaw))
    return np.array([x, y, z]), c, s


def lead_row(q0, yaw: float) -> list[float]:
    return [*q0, math.cos(yaw), math.sin(yaw)]


class TestLeaderRealtime:
    def test_at_start_returns_initials(self):
        row = lead_row([1.0, 2.0, 0.5], 0.7)
        q, c, s = realtime(row, np.zeros(3), 0.0, np.zeros(3), 0.0)
        assert np.allclose(q, [1, 2, 0.5], atol=0)
        # theta^{Sigma_0}_{Sigma_i}(t0) = -theta0 for the O_i -> O_0 angle.
        assert c == pytest.approx(math.cos(0.7), abs=1e-12)
        assert s == pytest.approx(-math.sin(0.7), abs=1e-12)

    def test_constant_when_nobody_moves(self):
        row = lead_row([1.0, 2.0, 0.0], -0.4)
        first = realtime(row, np.zeros(3), 0.0, np.zeros(3), 0.0)
        again = realtime(row, np.zeros(3), 0.0, np.zeros(3), 0.0)
        assert np.allclose(first[0], again[0], atol=0)
        assert first[1:] == again[1:]

    def test_matches_angle_sum_identity(self, rng):
        for _ in range(30):
            theta0 = rng.uniform(-3, 3)          # yaw of O_0 in O_i
            phi_i = rng.uniform(-6, 6)
            phi_0 = rng.uniform(-6, 6)
            _, c, s = realtime(lead_row(np.zeros(3), theta0), np.zeros(3), phi_i,
                               np.zeros(3), phi_0)
            want = phi_i - phi_0 - theta0        # yaw of Sigma_i in Sigma_0
            assert c == pytest.approx(math.cos(want), abs=1e-12)
            assert s == pytest.approx(math.sin(want), abs=1e-12)
