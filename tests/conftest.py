"""Shared helpers: scripted pair runs, synthetic records, random DAGs."""

from __future__ import annotations

import math
from typing import NamedTuple

# uwbio before numpy: the package pins OpenBLAS to one thread only ahead of
# numpy's first import, and pytest loads this file before any test module.
import uwbio  # noqa: F401

import numpy as np
import pytest

from uwbio.cooploc import compose_layers, composition_plan
from uwbio.geometry import Rotation3Z
from uwbio.regression import DataRecord, RecordBank, RegressorSample, build_samples, true_thetas
from uwbio.world import RobotTruth, VelocityCommand, advance, frame_offset, frame_yaw


class Verdict(NamedTuple):
    """One screened candidate, as the screen logs it."""

    is_outlier: bool
    votes: int
    queue_size: int     # queue size at voting time


def circle_cmd(r: float, c_v: float, c_w: float):
    """Stage-one style scripted command profile."""
    def cmd(t: float) -> VelocityCommand:
        return VelocityCommand(r * c_w, c_v * math.sin(c_v * t), c_w)
    return cmd


def distance(a, b) -> float:
    """World distance between two truth rows (`RobotTruth.as_row`)."""
    return float(np.linalg.norm(np.subtract(a[:3], b[:3])))


def stepped(truth: RobotTruth, cmd, dt: float) -> RobotTruth:
    """`truth` after one `advance` under the command (v_h, v_z, w)."""
    row, = advance([truth.as_row()], [cmd], dt)
    return RobotTruth.from_row(truth.id, row)


def run_pair(cmd_i, cmd_j, ticks: int, dt: float = 0.05,
             pose_i=(1.5, 1.0, 0.0, 2.0), pose_j=(0.0, 0.0, 0.0, 0.0)):
    """Noise-free scripted pair: returns (samples, theta_true, trajectories),
    theta_true the pair's 7-vector.

    Robot i observes robot j.  The pair steps with `advance`, and one
    `build_samples` call builds the samples of all consecutive exact
    measurements, skipping degenerate intervals, as `observability_probe`
    does.
    """
    ti = RobotTruth.spawn(1, *pose_i)
    tj = RobotTruth.spawn(0, *pose_j)
    theta, = true_thetas([ti.as_row(), tj.as_row()], [(0, 1)])
    rows = [ti.as_row(), tj.as_row()]
    truth = np.empty((ticks + 1, 2, 8))
    truth[0] = rows
    for k in range(ticks):
        cmds = [cmd_i(k * dt), cmd_j(k * dt)]
        rows = truth[k + 1] = advance(rows, [(c.v_h, c.v_z, c.w) for c in cmds], dt)
    diff = truth[:, 0, :3] - truth[:, 1, :3]
    at = np.column_stack((np.vecdot(diff, diff), truth[:, 0, 4:7], truth[:, 1, 4:7]))
    phi, y, valid = build_samples(at[:-1], np.diff(at, axis=0))
    samples = [RegressorSample(phi[k], float(y[k]), k) for k in np.flatnonzero(valid).tolist()]
    truths = [(RobotTruth.from_row(1, ri), RobotTruth.from_row(0, rj)) for ri, rj in truth]
    return samples, theta, truths


def benchmark_pair(ticks: int = 1600, dt: float = 0.05):
    """The well-conditioned counter-rotating pair used across estimator tests."""
    return run_pair(circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5), ticks, dt)


def offer(bank: RecordBank, sample: RegressorSample, row: int = 0) -> bool:
    """Offer one sample to pair `row` of a bank; returns whether it was kept."""
    return bank.add_all([row], sample.phi[None], np.array([sample.y]), sample.t_k)[0]


def filled_record(samples, cap: int = 64, planar: bool = False) -> DataRecord:
    """A one-row bank offered every sample, as a view of its row."""
    bank = RecordBank(1, planar, cap)
    for s in samples:
        offer(bank, s)
    return DataRecord(bank, 0)


def synthetic_record(rng: np.random.Generator, n: int = 20,
                     theta: np.ndarray | None = None) -> tuple[DataRecord, np.ndarray]:
    """Record of random unit regressors with exactly consistent observations."""
    if theta is None:
        theta = rng.normal(size=7)
    bank = RecordBank(1)
    for k in range(n):
        phi = rng.normal(size=7)
        phi /= np.linalg.norm(phi)
        offer(bank, RegressorSample(phi, float(phi @ theta), k))
    return DataRecord(bank, 0), theta


def random_world_poses(rng: np.random.Generator, n: int) -> list[RobotTruth]:
    out = []
    for i in range(n):
        x, y = rng.uniform(-5, 5, 2)
        z = rng.uniform(0, 2)
        yaw = rng.uniform(-math.pi, math.pi)
        out.append(RobotTruth.spawn(i, float(x), float(y), float(z), float(yaw)))
    return out


def truth_pairwise(truths, i: int, j: int) -> tuple[float, ...]:
    """Exact pairwise initial relative pose for ground-truth composition
    tests, as the (x, y, z, c, s) row `reconstruct_poses` gives."""
    ti, tj = truths[i].as_row(), truths[j].as_row()
    p0 = frame_offset(ti, tj, ti)
    R0 = Rotation3Z.from_angle(frame_yaw(tj) - frame_yaw(ti))
    return (*p0.tolist(), float(R0.c), float(R0.s))


def compose(graph, pairwise: dict, t_k: int = 0, lead=None, fresh=None):
    """`compose_layers` over `graph` from the pose rows of `pairwise` (a pair
    left out has none) and each robot's leader estimate row in `lead` with
    its tick in `fresh` (by default none but the leader's own); returns the
    updated (lead, fresh)."""
    n = graph.n_robots
    if lead is None:
        lead = [[0.0, 0.0, 0.0, 1.0, 0.0]] + [[math.nan] * 5 for _ in range(n - 1)]
    fresh = [0] + [-1] * (n - 1) if fresh is None else fresh
    compose_layers(composition_plan(graph), [pairwise.get(p) for p in graph.ordered_pairs()],
                   lead, fresh, t_k)
    return lead, fresh


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
