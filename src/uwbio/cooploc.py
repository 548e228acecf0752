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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .estimation import RelativePoseEstimate
from .geometry import Angle, Rotation3Z, norm_project


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


def leader_initial_estimate(robot: int, graph: TopologyGraph,
                            pairwise: Mapping[tuple[int, int], RelativePoseEstimate],
                            leader_estimates: Mapping[int, LeaderPoseEstimate],
                            t_k: int = 0) -> LeaderPoseEstimate:
    """Compose the robot's initial leader-relative pose from its neighbors.

    Layer 1 copies the direct pairwise estimate; deeper layers average the
    neighbor compositions and re-project the averaged rotation.  Raises
    MissingNeighborEstimate when a needed input is absent, in which case
    the caller keeps the previous value.
    """
    neighbors = graph.out_edges[robot]
    if not neighbors:
        raise MissingNeighborEstimate(f"robot {robot} has no pruned neighbors")

    if graph.layers[robot] == 1:
        rpe = pairwise.get((robot, 0))
        if rpe is None:
            raise MissingNeighborEstimate(f"pair ({robot}, 0) estimate unavailable")
        return LeaderPoseEstimate(rpe.p0_hat.copy(), rpe.R0_hat, t_k)

    q_sum = np.zeros(3)
    c_sum = 0.0
    s_sum = 0.0
    for j in neighbors:
        rpe = pairwise.get((robot, j))
        if rpe is None:
            raise MissingNeighborEstimate(f"pair ({robot}, {j}) estimate unavailable")
        lpe = LeaderPoseEstimate.leader_self() if j == 0 else leader_estimates.get(j)
        if lpe is None:
            raise MissingNeighborEstimate(f"robot {j} leader estimate unavailable")
        q_sum += rpe.p0_hat + rpe.R0_hat.apply(lpe.q0_hat)
        composed = rpe.R0_hat.compose(lpe.Q0_hat)
        c_sum += composed.c
        s_sum += composed.s
    n = len(neighbors)
    rot = norm_project(c_sum / n, s_sum / n)
    return LeaderPoseEstimate(q_sum / n, Rotation3Z(rot), t_k)


def leader_realtime_estimate(lpe: LeaderPoseEstimate, own_cum_pos: np.ndarray,
                             own_cum_yaw: Angle, leader_cum_pos: np.ndarray,
                             leader_cum_yaw: Angle) -> tuple[np.ndarray, float, float]:
    """Real-time leader-relative position and body-frame relative yaw trig.

    Returns (q_hat(t), c_hat, s_hat) where the trig pair belongs to the
    relative yaw of this robot's body frame measured in the leader's.
    """
    q = lpe.q0_hat + np.asarray(own_cum_pos, dtype=float) - lpe.Q0_hat.apply(leader_cum_pos)
    dphi = own_cum_yaw.radians - leader_cum_yaw.radians
    c0, s0 = lpe.Q0_hat.c, lpe.Q0_hat.s
    c = c0 * np.cos(dphi) + s0 * np.sin(dphi)
    s = c0 * np.sin(dphi) - s0 * np.cos(dphi)
    return q, float(c), float(s)
