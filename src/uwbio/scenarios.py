"""Canned scenario builders for benchmarks, sweeps and tests."""

from __future__ import annotations

import math

import numpy as np

from .config import RandomInit, RobotConfig, ScenarioConfig
from .control import ControlGains
from .sensing import NoiseModel
from .world import VelocityCommand


def two_robot_benchmark(noise: NoiseModel = NoiseModel(), seed: int = 0,
                        duration_s: float = 120.0,
                        random_init: RandomInit | None = None) -> ScenarioConfig:
    """Two-robot 3D scenario: counter-rotating sub-meter excitation circles.

    dt 0.05 s, gains (1, 0.5, 0.4, 0.2), circle radii 0.3 and 0.5 m with
    yaw rates -0.5 and 0.4 rad/s and vertical amplitudes 0.1 and 0.3.

    The excitation scale matters: the regressor entry magnitudes are
    u ~ v*dt against a, b ~ |p|*|u|, so the eigenvalue ratio of the data
    matrix degrades like 1/|p|^2 as the excitation circles grow.  Meter
    scale circles cap the ratio well below the usable range (and several
    same-frequency choices are exactly rank deficient, since the regressor
    stream depends only on the two command programs).  Sub-meter radii with
    counter-rotation keep the recorded data well conditioned.
    """
    # random_init draws the follower's pose, so the config holds none.
    pose = (1.5, 1.0, 0.0, 2.0) if random_init is None else (0.0, 0.0, 0.0, 0.0)
    robots = (
        RobotConfig(0, 0.0, 0.0, 0.0, 0.0, r=0.3, c_v=0.1, c_w=-0.5),
        RobotConfig(1, *pose, r=0.5, c_v=0.3, c_w=0.4),
    )
    return ScenarioConfig(
        name="two_robot_benchmark",
        dt=0.05,
        duration_s=duration_s,
        robots=robots,
        edges=((1, 0),),
        gains=ControlGains(1.0, 0.5, 0.4, 0.2),
        formation={1: (0.5, -0.5, 0.0)},
        noise=noise,
        seed=seed,
        random_init=random_init,
    )


def four_robot_formation(noise: NoiseModel = NoiseModel(), seed: int = 0,
                         duration_s: float = 300.0) -> ScenarioConfig:
    """Planar four-robot formation: three followers ranging to one leader.

    dt 0.1 s, gains (1, 1, 0.5, 0) and the prescribed offsets (0.5, -0.5),
    (-0.5, -0.5), (0, 0.5).  The leader circles at 0.3 m radius, 0.5 rad/s;
    the followers counter-rotate (negative yaw rates, 0.4..0.5 m radius),
    which is what keeps each pair's recorded data well conditioned: equal
    corotating rates are exactly rank deficient, and nearby corotating
    rates beat too slowly to excite the weak directions.  After the data
    collection stage the leader cruises on a constant (v, w) so the swarm
    settles into a circular formation.
    """
    robots = (
        RobotConfig(0, 0.0, 0.0, 0.0, 0.0, r=0.3, c_v=0.0, c_w=0.5),
        RobotConfig(1, 1.5, -1.2, 0.0, -1.0, r=0.5, c_v=0.0, c_w=-0.3),
        RobotConfig(2, -1.3, 1.1, 0.0, 2.2, r=0.5, c_v=0.0, c_w=-0.3),
        RobotConfig(3, 1.0, 1.4, 0.0, 0.7, r=0.4, c_v=0.0, c_w=-0.7),
    )
    return ScenarioConfig(
        name="four_robot_formation",
        dt=0.1,
        duration_s=duration_s,
        robots=robots,
        edges=((1, 0), (2, 0), (3, 0)),
        gains=ControlGains(1.0, 1.0, 0.5, 0.0),
        formation={1: (0.5, -0.5, 0.0), 2: (-0.5, -0.5, 0.0), 3: (0.0, 0.5, 0.0)},
        noise=noise,
        seed=seed,
        mode_2d=True,
        leader_cruise=VelocityCommand(0.15, 0.0, 0.5),
    )


def chain_swarm(n_robots: int, seed: int = 0, noise: NoiseModel = NoiseModel(),
                duration_s: float = 240.0, dt: float = 0.05) -> ScenarioConfig:
    """Chain topology i -> i-1 with randomized poses and excitation parameters.

    Gives a DAG with one node per layer, the deepest layering possible, so
    layer-by-layer error propagation is maximally visible.  Excitation is
    drawn per robot at the sub-meter scale that keeps pairwise records well
    conditioned: radius in [0.25, 0.6], yaw rate magnitude in [0.25, 0.9]
    with alternating sign along the chain (adjacent robots counter-rotate),
    vertical amplitude in [0.05, 0.3].
    """
    if n_robots < 2:
        raise ValueError("chain needs at least 2 robots")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    robots = [RobotConfig(0, 0.0, 0.0, 0.0, 0.0,
                          r=0.3, c_v=float(rng.uniform(0.05, 0.3)), c_w=0.5)]
    for i in range(1, n_robots):
        # Spread along a rough line so every link spans a similar distance.
        x = 2.0 * i + rng.uniform(-0.4, 0.4)
        y = rng.uniform(-1.0, 1.0)
        yaw = rng.uniform(-math.pi, math.pi)
        sign = -1.0 if i % 2 else 1.0
        c_w = sign * float(rng.uniform(0.25, 0.9))
        robots.append(RobotConfig(i, float(x), float(y), 0.0, float(yaw),
                                  r=float(rng.uniform(0.25, 0.6)),
                                  c_v=float(rng.uniform(0.05, 0.3)),
                                  c_w=c_w))
    edges = tuple((i, i - 1) for i in range(1, n_robots))
    formation = {i: (0.0, -1.5 * i, 0.0) for i in range(1, n_robots)}
    return ScenarioConfig(
        name=f"chain_{n_robots}",
        dt=dt,
        duration_s=duration_s,
        robots=tuple(robots),
        edges=edges,
        gains=ControlGains(1.0, 0.5, 0.4, 0.2),
        formation=formation,
        noise=noise,
        seed=seed,
    )
