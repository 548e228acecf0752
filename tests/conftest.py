"""Shared helpers: scripted pair runs, synthetic records, random DAGs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uwbio.estimation import RelativePoseEstimate
from uwbio.geometry import Rotation3Z
from uwbio.regression import DataRecord, RegressorSample, build_sample, true_thetas
from uwbio.world import RobotTruth, VelocityCommand, frame_offset, frame_yaw, step


def circle_cmd(r: float, c_v: float, c_w: float):
    """Stage-one style scripted command profile."""
    def cmd(t: float) -> VelocityCommand:
        return VelocityCommand(r * c_w, c_v * math.sin(c_v * t), c_w)
    return cmd


def distance(a: RobotTruth, b: RobotTruth) -> float:
    """World distance between two robots, as `RangeStream.sample` takes it."""
    return float(np.linalg.norm(a.world_pose.position() - b.world_pose.position()))


def run_pair(cmd_i, cmd_j, ticks: int, dt: float = 0.05,
             pose_i=(1.5, 1.0, 0.0, 2.0), pose_j=(0.0, 0.0, 0.0, 0.0)):
    """Noise-free scripted pair: returns (samples, theta_true, trajectories),
    theta_true the pair's 7-vector.

    Robot i observes robot j; samples are built from consecutive exact
    measurements, skipping degenerate intervals.
    """
    ti = RobotTruth.spawn(1, *pose_i)
    tj = RobotTruth.spawn(0, *pose_j)
    theta, = true_thetas([ti.as_row(), tj.as_row()], [(0, 1)])
    samples = []
    truths = [(ti, tj)]
    for k in range(ticks):
        t = k * dt
        ni, nj = step(ti, cmd_i(t), dt), step(tj, cmd_j(t), dt)
        s = build_sample(
            distance(ti, tj), distance(ni, nj),
            (ti.odom_pose.position(), ni.odom_pose.position() - ti.odom_pose.position()),
            (tj.odom_pose.position(), nj.odom_pose.position() - tj.odom_pose.position()),
            t_k=k)
        if s is not None:
            samples.append(s)
        ti, tj = ni, nj
        truths.append((ti, tj))
    return samples, theta, truths


def benchmark_pair(ticks: int = 1600, dt: float = 0.05):
    """The well-conditioned counter-rotating pair used across estimator tests."""
    return run_pair(circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5), ticks, dt)


def filled_record(samples, cap: int = 64, planar: bool = False) -> DataRecord:
    rec = DataRecord(planar=planar, hist_cap=cap)
    for s in samples:
        rec.add(s)
    return rec


def synthetic_record(rng: np.random.Generator, n: int = 20,
                     theta: np.ndarray | None = None) -> tuple[DataRecord, np.ndarray]:
    """Record of random unit regressors with exactly consistent observations."""
    if theta is None:
        theta = rng.normal(size=7)
    rec = DataRecord()
    for k in range(n):
        phi = rng.normal(size=7)
        phi /= np.linalg.norm(phi)
        rec.add(RegressorSample(phi, float(phi @ theta), k))
    return rec, theta


def random_world_poses(rng: np.random.Generator, n: int) -> list[RobotTruth]:
    out = []
    for i in range(n):
        x, y = rng.uniform(-5, 5, 2)
        z = rng.uniform(0, 2)
        yaw = rng.uniform(-math.pi, math.pi)
        out.append(RobotTruth.spawn(i, float(x), float(y), float(z), float(yaw)))
    return out


def truth_pairwise(truths, i: int, j: int) -> RelativePoseEstimate:
    """Exact pairwise initial relative pose for ground-truth composition tests."""
    ti, tj = truths[i].as_row(), truths[j].as_row()
    p0 = frame_offset(ti, tj, ti)
    return RelativePoseEstimate(p0, Rotation3Z.from_angle(frame_yaw(tj) - frame_yaw(ti)))


def random_dag(rng: np.random.Generator, max_layers: int = 4):
    """Random leader-rooted DAG: (n_robots, edges) with every node reachable."""
    n_layers = int(rng.integers(1, max_layers + 1))
    sizes = [1] + [int(rng.integers(1, 4)) for _ in range(n_layers)]
    nodes_by_layer = []
    nid = 0
    for s in sizes:
        nodes_by_layer.append(list(range(nid, nid + s)))
        nid += s
    edges = []
    for l in range(1, len(nodes_by_layer)):
        shallower = [v for lay in nodes_by_layer[:l] for v in lay]
        for v in nodes_by_layer[l]:
            parent = int(rng.choice(nodes_by_layer[l - 1]))
            edges.append((v, parent))
            for u in shallower:
                if u != parent and rng.uniform() < 0.3:
                    edges.append((v, u))
    return nid, edges


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
