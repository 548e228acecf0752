"""Layered DAG propagation of leader-relative pose estimates.

The interaction graph is stratified by hop distance to the leader at
scenario setup (a centralized stand-in for distributed neighbor selection),
and any edge pointing sideways or away from the leader is pruned.  A robot
in layer 1 takes its pairwise estimate to the leader directly; a deeper
robot averages, over its remaining neighbors, the composition of its
pairwise estimate with the neighbor's own leader estimate, renormalizing
the averaged rotation.  Real-time leader-relative quantities then follow
from the two cumulative odometries.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .estimation import RelativePoseEstimate
from .geometry import Angle, Rotation3Z, unit_pair


class UnreachableNode(ValueError):
    """Some robot has no directed path to the leader."""


class MissingNeighborEstimate(RuntimeError):
    """A required neighbor estimate is not available yet."""


@dataclass(frozen=True)
class TopologyGraph:
    """Leader-rooted layering of the directed interaction graph."""

    n_robots: int
    layers: tuple[int, ...]                  # layer per node, leader = 0
    out_edges: tuple[tuple[int, ...], ...]   # pruned neighbor sets per node

    @property
    def max_layer(self) -> int:
        return max(self.layers)

    def nodes_in_layer(self, layer: int) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.layers) if l == layer)

    def ordered_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.n_robots) for j in self.out_edges[i])


def assign_layers(edges: Iterable[tuple[int, int]], n_robots: int) -> TopologyGraph:
    """Layer the graph by BFS hop count from the leader and prune edges that
    point to an equal-or-deeper layer.

    An edge (i, j) means robot i measures/listens to robot j.  Raises
    UnreachableNode if any robot cannot reach the leader along the edges.
    """
    neighbor_sets: list[set[int]] = [set() for _ in range(n_robots)]
    for i, j in edges:
        if not (0 <= i < n_robots and 0 <= j < n_robots):
            raise ValueError(f"edge ({i}, {j}) out of range for {n_robots} robots")
        if i == j:
            raise ValueError(f"self edge on robot {i}")
        neighbor_sets[i].add(j)

    # BFS over reversed edges: distance from the leader along who-hears-whom.
    reverse: list[set[int]] = [set() for _ in range(n_robots)]
    for i in range(n_robots):
        for j in neighbor_sets[i]:
            reverse[j].add(i)
    layer = [-1] * n_robots
    layer[0] = 0
    queue = deque([0])
    while queue:
        j = queue.popleft()
        for i in reverse[j]:
            if layer[i] < 0:
                layer[i] = layer[j] + 1
                queue.append(i)
    missing = [i for i, l in enumerate(layer) if l < 0]
    if missing:
        raise UnreachableNode(f"robots {missing} cannot reach the leader")

    pruned = tuple(tuple(sorted(j for j in neighbor_sets[i] if layer[j] < layer[i]))
                   for i in range(n_robots))
    return TopologyGraph(n_robots, tuple(layer), pruned)


@dataclass(frozen=True)
class LeaderPoseEstimate:
    """Composed initial relative position and rotation to the leader."""

    q0_hat: np.ndarray
    Q0_hat: Rotation3Z
    fresh: int = 0          # tick of last update

    @classmethod
    def leader_self(cls) -> "LeaderPoseEstimate":
        return cls(np.zeros(3), Rotation3Z.identity(), 0)


def composition_plan(graph: TopologyGraph) -> list[tuple[int, bool, list[tuple[int, int]]]]:
    """The order `compose_layers` visits the followers in, layer by layer
    from the leader outward: (robot, whether it is in layer 1, its
    (pair index, neighbor) inputs), with pair indices in
    `graph.ordered_pairs()` order."""
    index = {p: n for n, p in enumerate(graph.ordered_pairs())}
    return [(i, graph.layers[i] == 1, [(index[(i, j)], j) for j in graph.out_edges[i]])
            for layer in range(1, graph.max_layer + 1) for i in graph.nodes_in_layer(layer)]


def _compose(layer1: bool, inputs: list) -> list[float]:
    """One robot's leader estimate row (q0 x, y, z, c, s) from its
    (pairwise pose, neighbor leader estimate) inputs, both as (x, y, z, c, s).

    Layer 1 copies the direct pairwise estimate; deeper layers average the
    neighbor compositions and re-project the averaged rotation (raising
    DegenerateRotation when the average has no direction).  The sums start
    from 0.0, which turns a -0.0 term into 0.0.
    """
    if layer1:
        return list(inputs[0][0])
    qx = qy = qz = c_sum = s_sum = 0.0
    for (px, py, pz, c, s), (lx, ly, lz, lc, ls) in inputs:
        qx += px + (c * lx - s * ly)
        qy += py + (s * lx + c * ly)
        qz += pz + lz
        cc, sc = unit_pair(c * lc - s * ls, s * lc + c * ls)
        c_sum += cc
        s_sum += sc
    n = len(inputs)
    return [qx / n, qy / n, qz / n, *unit_pair(c_sum / n, s_sum / n)]


def compose_layers(plan: list, poses: list, lead: list, fresh: list, t_k: int) -> None:
    """Cooperative update of every follower, shallow layers first, so deeper
    robots read same-tick values from their parents.

    `poses` holds each pair's initial relative pose (x, y, z, c, s) or None
    (`estimation.reconstruct_poses`), `lead` each robot's leader estimate
    row (q0 x, y, z, c, s; the leader's own is (0, 0, 0, 1, 0)) and `fresh`
    the tick it was composed at, -1 while it has none.  A robot whose
    inputs are all present gets a new row composed at tick t_k, written in
    place; one with a missing input keeps its previous (stale) row and tick.
    """
    for robot, layer1, inputs in plan:
        if all(poses[n] is not None and fresh[j] >= 0 for n, j in inputs):
            lead[robot] = _compose(layer1, [(poses[n], lead[j]) for n, j in inputs])
            fresh[robot] = t_k


def leader_initial_estimate(robot: int, graph: TopologyGraph,
                            pairwise: Mapping[tuple[int, int], RelativePoseEstimate],
                            leader_estimates: Mapping[int, LeaderPoseEstimate],
                            t_k: int = 0) -> LeaderPoseEstimate:
    """Compose one robot's initial leader-relative pose from its neighbors:
    a front end to the composition `compose_layers` runs per robot.  Raises
    MissingNeighborEstimate when a needed input is absent, in which case
    the caller keeps the previous value.
    """
    neighbors = graph.out_edges[robot]
    if not neighbors:
        raise MissingNeighborEstimate(f"robot {robot} has no pruned neighbors")
    inputs = []
    for j in neighbors:
        rpe = pairwise.get((robot, j))
        if rpe is None:
            raise MissingNeighborEstimate(f"pair ({robot}, {j}) estimate unavailable")
        lpe = LeaderPoseEstimate.leader_self() if j == 0 else leader_estimates.get(j)
        if lpe is None:
            raise MissingNeighborEstimate(f"robot {j} leader estimate unavailable")
        inputs.append(((*rpe.p0_hat.tolist(), rpe.R0_hat.c, rpe.R0_hat.s),
                       (*lpe.q0_hat.tolist(), lpe.Q0_hat.c, lpe.Q0_hat.s)))
    row = _compose(graph.layers[robot] == 1, inputs)
    return LeaderPoseEstimate(np.array(row[:3]), Rotation3Z(*row[3:]), t_k)


def leader_realtime_rows(lead: list, odom: list, leader_odom) -> list[list[float]]:
    """Real-time leader-relative position and body-frame relative yaw trig
    of every robot, from its leader estimate row (q0 x, y, z, c, s) in
    `lead`, its cumulative odometry (x, y, z, yaw) in `odom` and the
    leader's in `leader_odom`.

    Returns one (q_hat(t) x, y, z, c_hat, s_hat) row per robot, where the
    trig pair belongs to the relative yaw of the robot's body frame measured
    in the leader's.
    """
    lx, ly, lz, lyaw = leader_odom
    out = []
    for (qx, qy, qz, c0, s0), (ox, oy, oz, oyaw) in zip(lead, odom):
        dphi = oyaw - lyaw
        cd, sd = math.cos(dphi), math.sin(dphi)
        out.append([qx + ox - (c0 * lx - s0 * ly), qy + oy - (s0 * lx + c0 * ly), qz + oz - lz,
                    c0 * cd + s0 * sd, c0 * sd - s0 * cd])
    return out


def leader_realtime_estimate(lpe: LeaderPoseEstimate, own_cum_pos: np.ndarray,
                             own_cum_yaw: Angle, leader_cum_pos: np.ndarray,
                             leader_cum_yaw: Angle) -> tuple[np.ndarray, float, float]:
    """One robot's real-time leader-relative estimate (q_hat(t), c_hat,
    s_hat): a front end to `leader_realtime_rows`."""
    row, = leader_realtime_rows(
        [(*lpe.q0_hat.tolist(), lpe.Q0_hat.c, lpe.Q0_hat.s)],
        [(*np.asarray(own_cum_pos, dtype=float).tolist(), own_cum_yaw.radians)],
        (*np.asarray(leader_cum_pos, dtype=float).tolist(), leader_cum_yaw.radians))
    return np.array(row[:3]), row[3], row[4]
