"""Deterministic batch simulation: a tick loop, then truth scoring.

Per measurement instant the loop runs: sense -> outlier screen -> build
and record the regressor sample -> concurrent-learning update -> layered
cooperative update -> stage check -> real-time leader estimate and
estimated tracking error; then `tick` issues a command for the next
interval and steps the physics and the odometry.  All of it runs over an
explicit `SimState`.  The pairs are independent within a tick, so their
estimator state lies on a leading pair axis in `graph.ordered_pairs()`
order (a JudgeBank, a RecordBank, a (pairs, 7) estimate array and the last
accepted measurement per pair), and each estimator stage runs once per
tick over all pairs.  The per-robot state lies on a robot axis (true poses
(robots, 8), cumulative odometry (robots, 4), leader estimates (robots, 5)
with their composition ticks), and each per-robot layer (cooperative
composition, real-time estimate and tracking error, commands, physics,
odometry) runs once per tick as one pass over float rows.  The loop logs
estimator, controller and physics state plus the true poses, one
(rows, pairs or robots, ...) array row per tick, the outlier screen
included (drawn range, votes, queue size, verdict and injected flag, one
(rows, pairs) array each), and reads truth only for sensing, physics,
`truth_feedback` and the unbroadcast leader odometry; truth feedback takes
the followers' true tracking errors from the truth rows in one
`tracking_error_truth_rows` call per tick, and afterwards `_score_truth`
derives every truth error from the logged truth rows, all ticks at once:
the offsets through `world.frame_offset` (the pairs' Theta through
`true_thetas`), the tracking error through the function truth feedback
uses.
Per-stream RNGs derived from (seed, stream tag) make a (config, seed) pair
determine every logged byte.  `write_run` zips each per-tick CSV log from
its columns, grouped by pair or robot, then by tick; `outliers.csv` alone
is grouped by tick, then by pair.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import _INT, _NONNEG, _REAL, _SEED, ConfigError, ScenarioConfig, _Optional
from .control import (StageTracker, stage1_rows, stage2_rows, tracking_error_rows,
                      tracking_error_truth_rows)
from .cooploc import (LeaderPoseEstimate, TopologyGraph, assign_layers, compose_layers,
                      composition_plan, leader_realtime_rows)
from .estimation import ThetaEstimate, cl_update_all, reconstruct_poses
from .geometry import Rotation3Z, row_norms
from .metrics import RunMetrics, convergence_time, detection_stats, smoothness, tail_mean
from .outliers import JudgeBank
from .regression import THETA_DIM, DataRecord, RecordBank, RegressorSample, build_samples, \
    excitation_ratios, pair_index, true_thetas
from .sensing import RangeStream, odom_step, robot_rng
from .world import RobotTruth, advance, frame_offset

# Front ends of the tick's passes, uncalled: benchmarks/tracing.py wraps them
# under these names until ROADMAP item 1 (tests/test_harness.py checks them).
from .control import (stage1_command, stage2_command, tracking_error_estimated,  # noqa: F401
                      tracking_error_truth)
from .cooploc import leader_initial_estimate, leader_realtime_estimate  # noqa: F401
from .estimation import cl_update, reconstruct_pose  # noqa: F401
from .regression import build_sample, excitation_ratio  # noqa: F401
from .world import step  # noqa: F401

# Golden-angle phase spread keeps per-robot excitation signals decorrelated.
_PHASE = 2.399963229728653

# Rejection draws per robot before random_init gives up on min_sep.
_PLACEMENT_DRAWS = 1000


class MissingLogs(FileNotFoundError):
    """Expected run outputs are not present in the directory."""


@dataclass
class RunResult:
    """All logs and terminal state of one simulation run.  Follower rows
    are NaN until a leader estimate exists; `_score_truth` fills the fields
    after `last_sample`.  The screen log is held as the (rows, pairs) arrays
    `ranges` to `injected`, with pairs in `graph.ordered_pairs()` order;
    `outlier_events` is a list view of them, built on first read."""

    config: ScenarioConfig
    seed: int
    dt: float
    n_ticks: int                          # command intervals; logs have n_ticks + 1 rows
    graph: object
    truth: np.ndarray                     # (rows, robots, 8): RobotTruth.as_row per tick
    theta_log: dict
    lam_min: dict
    lam_max: dict
    updated: dict
    q0_hat: dict                          # follower -> (rows, 3) initial leader estimate
    q0_fresh: dict
    rt_hat: dict                          # follower -> (rows, 5) real-time q_hat, c_hat, s_hat
    track_est: dict
    commands: dict
    stage2_flag: np.ndarray
    transition_tick: Optional[int]
    ranges: np.ndarray                    # (rows, pairs) drawn range
    votes: np.ndarray                     # (rows, pairs) outlier votes; 0 unscreened
    queue_size: np.ndarray                # (rows, pairs) judge queue size at voting time
    verdict: np.ndarray                   # (rows, pairs) bool: screened out
    injected: np.ndarray                  # (rows, pairs) bool: an injected outlier
    saturation_events: list
    samples_dump: list
    final_estimators: dict
    final_lpe: dict
    final_truths: list
    last_sample: dict
    theta_true: dict = field(default_factory=dict)
    theta_err: dict = field(default_factory=dict)
    q0_true: dict = field(default_factory=dict)
    q0_err: dict = field(default_factory=dict)
    q_rt_err: dict = field(default_factory=dict)
    trig_rt_err: dict = field(default_factory=dict)
    track_truth: dict = field(default_factory=dict)
    metrics: RunMetrics | None = None

    @property
    def outlier_events(self) -> list:
        """The screen log as one (k, i, j, d, votes, queue_size, verdict,
        injected) tuple per tick and pair, tick first: built from the
        arrays on first read, then the same list, edits included; edits
        never reach the arrays."""
        if "_events" not in self.__dict__:
            self._events = list(zip(*self._screen_columns(bool)))
        return self._events

    def _screen_columns(self, flag: type) -> list[list]:
        """The screen log's columns, tick first, then pair in
        `graph.ordered_pairs()` order, as Python values; verdict and
        injected as `flag` (bool or int)."""
        rows, n_pairs = self.verdict.shape
        pairs = self.graph.ordered_pairs()
        return [np.arange(rows).repeat(n_pairs).tolist(),
                [i for i, _ in pairs] * rows, [j for _, j in pairs] * rows,
                self.ranges.ravel().tolist(), self.votes.ravel().tolist(),
                self.queue_size.ravel().tolist(), self.verdict.ravel().astype(flag).tolist(),
                self.injected.ravel().astype(flag).tolist()]

    def summary_row(self) -> dict:
        m = self.metrics
        pairs = sorted(self.theta_true)
        followers = sorted(r for r in self.q0_true if r != 0)
        conv = [m.theta_convergence_s.get(p) for p in pairs]
        qconv = [m.q0_convergence_s.get(r) for r in followers]

        def agg(vals, fn):
            vals = [v for v in vals if v is not None]
            return fn(vals) if vals else None

        def mean(vals):
            return sum(vals) / len(vals)

        det = m.detection
        return {
            "scenario": self.config.name,
            "config_hash": self.config.config_hash(),
            "seed": self.seed,
            "n_ticks": self.n_ticks,
            "dt": self.dt,
            "transition_tick": self.transition_tick,
            "theta_conv_mean_s": agg(conv, mean),
            "theta_conv_max_s": agg(conv, max),
            "theta_conv_missing": sum(1 for v in conv if v is None),
            "final_theta_err_mean": agg(list(m.final_theta_err.values()), mean),
            "final_theta_err_max": agg(list(m.final_theta_err.values()), max),
            "q0_conv_max_s": agg(qconv, max),
            "q0_conv_missing": sum(1 for v in qconv if v is None),
            "final_track_pos_max": agg(list(m.final_tracking_pos.values()), max),
            "final_track_yaw_max": agg(list(m.final_tracking_yaw.values()), max),
            "smooth_total_mean": agg(list(m.smoothness_total.values()), mean),
            "smooth_stage2_mean": agg(list(m.smoothness_stage2.values()), mean),
            "detect_success": None if det is None else det.success_rate,
            "detect_fp_rate": None if det is None else det.false_positive_rate,
            "n_injected": None if det is None else det.true_positives + det.false_negatives,
        }


def _initial_truths(config: ScenarioConfig, seed: int) -> list[list[float]]:
    """Every robot's `RobotTruth.as_row` at its start pose, odometry at zero."""
    truths = [[r.x, r.y, r.z, r.yaw, 0.0, 0.0, 0.0, 0.0] for r in config.robots]
    if config.random_init is not None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        radius, min_sep = config.random_init.radius, config.random_init.min_sep
        placed = [np.array(truths[0][:2])]
        for r in config.robots[1:]:
            for _ in range(_PLACEMENT_DRAWS):
                pos = rng.uniform(-radius, radius, 2)
                if all(np.linalg.norm(pos - q) >= min_sep for q in placed):
                    break
            else:
                raise ConfigError(
                    f"random_init could not place robot {r.id} at least min_sep={min_sep} "
                    f"from the robots before it within radius={radius} "
                    f"({_PLACEMENT_DRAWS} draws)")
            placed.append(pos)
            yaw = float(rng.uniform(-math.pi, math.pi))
            truths[r.id] = [float(pos[0]), float(pos[1]), 0.0, yaw, 0.0, 0.0, 0.0, 0.0]
    return truths


@dataclass
class Logs:
    """Per-tick logs on a leading tick axis, one row written per tick: per
    pair in `graph.ordered_pairs()` order, per robot with the leader at
    index 0 (its q0_hat rows hold its own zeros, its real-time rows stay
    NaN).  Follower estimate rows are NaN until a leader estimate exists.
    The per-robot logs are laid out robot by robot in memory, so each
    robot's view in `RunResult` is contiguous.  The screen's arrays hold
    every range drawn; without screening, votes, queue sizes and verdicts
    stay zero."""

    truth: np.ndarray          # (rows, robots, 8): RobotTruth.as_row per tick
    theta: np.ndarray          # (rows, pairs, 7)
    lam_min: np.ndarray        # (rows, pairs)
    lam_max: np.ndarray        # (rows, pairs)
    updated: np.ndarray        # (rows, pairs) bool
    q0_hat: np.ndarray         # (rows, robots, 3) initial leader estimate
    q0_fresh: np.ndarray       # (rows, robots) bool: composed at this tick
    rt_hat: np.ndarray         # (rows, robots, 5) real-time q_hat, c_hat, s_hat
    track_est: np.ndarray      # (rows, robots, 5) estimated tracking error
    commands: np.ndarray       # (ticks, robots, 3) v_h, v_z, w
    stage2: np.ndarray         # (ticks,) bool
    ranges: np.ndarray         # (rows, pairs) drawn range
    votes: np.ndarray          # (rows, pairs) outlier votes; 0 unscreened
    queue_size: np.ndarray     # (rows, pairs) judge queue size at voting time
    verdict: np.ndarray        # (rows, pairs) bool: screened out
    injected: np.ndarray       # (rows, pairs) bool: an injected outlier
    saturation_events: list = field(default_factory=list)
    samples_dump: list = field(default_factory=list)


@dataclass
class SimState:
    """Everything `tick` reads and advances, each fact once.  Per-pair
    estimator state lies on a leading pair axis in `pairs` order.  Per-robot
    state is a table of float rows, one per robot with the leader first,
    which each per-robot layer reads and writes in one Python pass (at a few
    robots a pass over rows costs less than numpy calls on stacked arrays)."""

    config: ScenarioConfig
    graph: TopologyGraph
    pairs: tuple[tuple[int, int], ...]
    plan: list                          # cooploc.composition_plan; the stage check reads it
    offsets: list[list[float]]          # desired formation offset per robot
    cruise: tuple[float, float, float]  # the leader's stage-two command
    stage: StageTracker                 # over the followers
    logs: Logs
    # Per pair.
    ranges: list[RangeStream]
    judges: JudgeBank
    bank: RecordBank
    theta: np.ndarray                   # (pairs, 7) estimates
    end_tick: list[int]                 # tick of each pair's last accepted measurement
    end: np.ndarray                     # (pairs, 7): its [d^2, z_i, z_j]
    last_sample: dict                   # pair -> its last sample's (phi, y, t_k)
    # Per robot.
    truth: list[list[float]]            # (robots, 8): RobotTruth.as_row
    cum: list[list[float]]              # (robots, 4): cumulative odometry x, y, z, yaw
    odom_rngs: list[np.random.Generator]
    lead: list[list[float]]             # (robots, 5): leader estimate q0_hat, c, s; NaN before one
    fresh: list[int]                    # tick each was composed at, -1 before
    errors: list                        # per follower: the error row the next command feeds back


# The error a follower without a leader estimate feeds back: none, so its
# stage-two command is the leader's feedforward.
_COLD_START = (0.0, 0.0, 0.0, 0.0, 0.0)
_NAN_ROW = (math.nan,) * 5


def _robot_major(rows: int, n_robots: int, width: int | None, fill) -> np.ndarray:
    """A (rows, robots[, width]) log filled with `fill`, laid out robot by robot."""
    shape = (n_robots, rows) if width is None else (n_robots, rows, width)
    return np.full(shape, fill).swapaxes(0, 1)


def _offsets(config: ScenarioConfig) -> list[list[float]]:
    """Every robot's desired offset in the leader odometry frame; a robot
    the formation leaves out, the leader among them, holds zero."""
    return [list(config.formation.get(r, (0.0, 0.0, 0.0))) for r in range(config.n_robots)]


def _initial_state(config: ScenarioConfig, seed: int) -> SimState:
    graph = assign_layers(config.edges, config.n_robots)
    pairs = graph.ordered_pairs()
    n_pairs, n_robots, rows = len(pairs), config.n_robots, config.n_ticks + 1
    lead = config.robots[0]
    cruise = (lead.r * lead.c_w, 0.0, lead.c_w)
    if config.leader_cruise is not None:
        cruise = (config.leader_cruise.v_h, config.leader_cruise.v_z, config.leader_cruise.w)
    logs = Logs(
        truth=np.zeros((rows, n_robots, 8)),
        theta=np.full((rows, n_pairs, THETA_DIM), np.nan),
        lam_min=np.zeros((rows, n_pairs)), lam_max=np.zeros((rows, n_pairs)),
        updated=np.zeros((rows, n_pairs), dtype=bool),
        q0_hat=_robot_major(rows, n_robots, 3, np.nan),
        q0_fresh=_robot_major(rows, n_robots, None, False),
        rt_hat=_robot_major(rows, n_robots, 5, np.nan),
        track_est=_robot_major(rows, n_robots, 5, np.nan),
        commands=_robot_major(config.n_ticks, n_robots, 3, 0.0),
        stage2=np.zeros(config.n_ticks, dtype=bool),
        ranges=np.zeros((rows, n_pairs)),
        votes=np.zeros((rows, n_pairs), dtype=np.int64),
        queue_size=np.zeros((rows, n_pairs), dtype=np.int64),
        verdict=np.zeros((rows, n_pairs), dtype=bool),
        injected=np.zeros((rows, n_pairs), dtype=bool))
    return SimState(
        config=config, graph=graph, pairs=pairs,
        plan=composition_plan(graph),
        offsets=_offsets(config),
        cruise=cruise,
        stage=StageTracker(range(1, n_robots), config.excitation_threshold,
                           config.stage1_timeout_ticks),
        logs=logs,
        ranges=[RangeStream(config.noise, seed, i, j) for (i, j) in pairs],
        judges=JudgeBank(n_pairs, config.judge_capacity, config.judge_threshold),
        bank=RecordBank(n_pairs, config.mode_2d, config.hist_cap),
        theta=np.zeros((n_pairs, THETA_DIM)),
        end_tick=[-2] * n_pairs, end=np.zeros((n_pairs, 7)), last_sample={},
        truth=_initial_truths(config, seed),
        cum=[[0.0] * 4 for _ in range(n_robots)],
        odom_rngs=[robot_rng(seed, r) for r in range(n_robots)],
        # The leader's own estimate: its own origin, unrotated.
        lead=[[0.0, 0.0, 0.0, 1.0, 0.0]] + [[math.nan] * 5 for _ in range(n_robots - 1)],
        fresh=[0] + [-1] * (n_robots - 1), errors=[])


def run(config: ScenarioConfig, seed: int | None = None) -> RunResult:
    """Execute one deterministic run and return all logs plus metrics."""
    seed = _SEED.load(config.seed if seed is None else seed, "seed")
    state = _initial_state(config, seed)
    _observe(state, 0)
    for k in range(config.n_ticks):
        tick(state, k)
    result = _result(state, seed)
    _score_truth(result)
    result.metrics = _compute_metrics(result)
    return result


def tick(state: SimState, k: int) -> None:
    """Advance the run from instant k to k + 1: issue every robot's command
    for the interval, step the physics and the odometry, then observe
    instant k + 1."""
    cfg = state.config
    cmds = _commands(state, k)
    state.logs.commands[k] = cmds
    after = state.truth
    sub = cfg.physics_substeps
    for _ in range(sub):
        after = advance(after, cmds, cfg.dt / sub)
    for r, row in enumerate(after):
        if not (math.isfinite(row[0]) and math.isfinite(row[1]) and math.isfinite(row[2])):
            raise RuntimeError(f"non-finite state for robot {r} at tick {k + 1}")
    state.cum = odom_step(state.cum, state.truth, after, cfg.noise, state.odom_rngs, cfg.mode_2d)
    state.truth = after
    _observe(state, k + 1)


def _commands(state: SimState, k: int) -> list[tuple[float, float, float]]:
    """Every robot's (v_h, v_z, w) for interval k, leader first, saturated."""
    cfg = state.config
    t = k * cfg.dt
    planar = cfg.mode_2d
    stage2 = cfg.pe_baseline or state.stage.in_stage2(k)
    state.logs.stage2[k] = stage2
    lead = state.cruise if stage2 else stage1_rows(cfg.robots[:1], t)[0]
    if planar:
        lead = (lead[0], 0.0, lead[2])
    # Followers feed forward the command the leader actually applies.
    lead = _saturate(state, k, 0, lead)
    if not stage2:
        follow = stage1_rows(cfg.robots[1:], t)
    else:
        errors = state.errors
        if cfg.truth_feedback:
            errors = tracking_error_truth_rows(state.truth[1:], state.truth[0],
                                               state.offsets[1:]).tolist()
        follow = stage2_rows(lead, errors, cfg.gains)
    cmds = [lead]
    pe = cfg.pe_excitation
    for i, (v_h, v_z, w) in enumerate(follow, start=1):
        if cfg.pe_baseline:
            ph = _PHASE * i
            v_h += pe.amplitude * math.sin(pe.frequency * t + ph)
            w += pe.amplitude * math.cos(pe.frequency * t + ph)
            if not planar:
                v_z += 0.5 * pe.amplitude * math.sin(0.8 * pe.frequency * t + ph)
        cmds.append(_saturate(state, k, i, (v_h, 0.0 if planar else v_z, w)))
    return cmds


def _saturate(state: SimState, k: int, r: int,
              cmd: tuple[float, float, float]) -> tuple[float, float, float]:
    sat = state.config.saturation
    if sat is None:
        return cmd
    v_h, v_z, w = cmd
    out = (min(max(v_h, -sat.v_h_max), sat.v_h_max),
           min(max(v_z, -sat.v_z_max), sat.v_z_max),
           min(max(w, -sat.w_max), sat.w_max))
    if out != cmd:
        state.logs.saturation_events.append((k, r, v_h, v_z, w))
        return out
    return cmd


def _observe(state: SimState, k: int) -> None:
    """Instant k: sense, run each estimator stage once over all pairs (the
    pairs are independent within a tick), compose the leader estimates,
    check the stage, derive the real-time estimates and log it all.  A
    pair's range is drawn from its robots' `truth` rows, and its row `now`
    holds [d^2, z_i, z_j]."""
    cfg, logs, pairs, bank, theta = state.config, state.logs, state.pairs, state.bank, state.theta
    n_pairs, truth, cum = len(pairs), state.truth, state.cum
    logs.truth[k] = truth
    # Each pair's true offset, subtracted in Python as numpy would.
    diff = np.array([[a - b for a, b in zip(truth[i][:3], truth[j][:3])] for i, j in pairs])
    draws = [stream.draw(x) for stream, x in zip(state.ranges, row_norms(diff).tolist())]
    d = [x for x, _ in draws]
    logs.ranges[k] = d
    logs.injected[k] = [inj for _, inj in draws]
    # Python's float power, as the one-pair build_sample squares ranges.
    now = np.array([[x ** 2, *cum[i][:3], *cum[j][:3]] for x, (i, j) in zip(d, pairs)])
    if cfg.outlier_screening:
        verdict, votes, qsize = state.judges.screen_all(logs.ranges[k], now[:, 1:])
        logs.votes[k] = votes
        logs.queue_size[k] = qsize
        logs.verdict[k] = verdict
        accepted = [p for p, out in enumerate(verdict) if not out]
    else:   # the votes, queue sizes and verdicts keep their zeros
        accepted = list(range(n_pairs))
    end, end_tick = state.end, state.end_tick
    chain = [p for p in accepted if end_tick[p] == k - 1]
    ix = pair_index(chain, n_pairs)
    phi, y, valid = build_samples(end[ix], now[ix] - end[ix])
    got = [p for p, ok in zip(chain, valid.tolist()) if ok]
    if got:
        if len(got) < len(chain):
            phi, y = phi[valid], y[valid]
        bank.add_all(got, phi, y, k - 1)
        cl_update_all(theta, bank, got, phi, y, cfg.rate_variant)
        logs.updated[k, pair_index(got, n_pairs)] = True
        for n, row, yn in zip(got, phi, y.tolist()):
            state.last_sample[pairs[n]] = (row, yn, k - 1)
            if cfg.sample_dump:
                logs.samples_dump.append((k - 1, *pairs[n], *row.tolist(), yn))
    ix = pair_index(accepted, n_pairs)
    end[ix] = now[ix]
    for p in accepted:
        end_tick[p] = k

    lead, fresh = state.lead, state.fresh
    compose_layers(state.plan, reconstruct_poses(theta), lead, fresh, k)

    if not state.stage.stage2_active:
        ratio = excitation_ratios(bank)
        state.stage.update(k, {r: [ratio[n] for n, _ in inputs] for r, _, inputs in state.plan})

    logs.theta[k] = theta
    logs.lam_min[k] = bank.lambda_min
    logs.lam_max[k] = bank.lambda_max
    if np.count_nonzero(np.isfinite(theta)) < theta.size:
        bad = pairs[int(np.argmin(np.isfinite(theta).all(axis=1)))]
        raise RuntimeError(f"non-finite estimate for pair {bad} at tick {k}")
    logs.q0_hat[k] = [row[:3] for row in lead]
    logs.q0_fresh[k] = [f == k for f in fresh]
    leader = cum[0] if cfg.leader_odom_broadcast else truth[0][4:]
    rt = leader_realtime_rows(lead[1:], cum[1:], leader)
    track = tracking_error_rows(rt, lead[1:], cum[1:], state.offsets[1:])
    errors = track
    if min(fresh) < 0:
        # Followers without a leader estimate log NaN rows (the rows computed
        # from their NaN estimates carry NaN of either sign) and feed back
        # no error.
        rt = [row if f >= 0 else _NAN_ROW for row, f in zip(rt, fresh[1:])]
        track = [row if f >= 0 else _NAN_ROW for row, f in zip(track, fresh[1:])]
        errors = [row if f >= 0 else _COLD_START for row, f in zip(errors, fresh[1:])]
    logs.rt_hat[k, 1:] = rt
    logs.track_est[k, 1:] = track
    state.errors = errors


def _result(state: SimState, seed: int) -> RunResult:
    """The run's logs as per-pair and per-robot views, and its final state
    as the one-pair and one-robot objects."""
    cfg, logs = state.config, state.logs
    followers = range(1, cfg.n_robots)

    def per_pair(log: np.ndarray) -> dict:
        return {p: log[:, n] for n, p in enumerate(state.pairs)}

    def per_follower(log: np.ndarray) -> dict:
        return {r: log[:, r] for r in followers}

    # One-pair views of the stacked estimator state; they hold none of their own.
    estimators = {p: ThetaEstimate(state.theta[n], DataRecord(state.bank, n),
                                   cfg.rate_variant)
                  for n, p in enumerate(state.pairs)}
    final_lpe = {r: None if state.fresh[r] < 0 else LeaderPoseEstimate(
        np.array(state.lead[r][:3]), Rotation3Z(*state.lead[r][3:]), state.fresh[r])
        for r in followers}
    return RunResult(
        config=cfg, seed=seed, dt=cfg.dt, n_ticks=cfg.n_ticks, graph=state.graph,
        truth=logs.truth, theta_log=per_pair(logs.theta), lam_min=per_pair(logs.lam_min),
        lam_max=per_pair(logs.lam_max), updated=per_pair(logs.updated),
        q0_hat=per_follower(logs.q0_hat), q0_fresh=per_follower(logs.q0_fresh),
        rt_hat=per_follower(logs.rt_hat), track_est=per_follower(logs.track_est),
        commands={r: logs.commands[:, r] for r in range(cfg.n_robots)},
        stage2_flag=logs.stage2, transition_tick=state.stage.transition_tick,
        ranges=logs.ranges, votes=logs.votes, queue_size=logs.queue_size,
        verdict=logs.verdict, injected=logs.injected, saturation_events=logs.saturation_events,
        samples_dump=logs.samples_dump, final_estimators=estimators, final_lpe=final_lpe,
        final_truths=[RobotTruth.from_row(r, row) for r, row in enumerate(state.truth)],
        last_sample={p: RegressorSample(*s) for p, s in state.last_sample.items()},
    )


def _score_truth(res: RunResult) -> None:
    """Fill the ground-truth fields of `res` from its truth log, every tick
    at once: theta_true from the tick-0 rows (`true_thetas`); follower i's
    true offset from the leader in its initial odometry frame, read off its
    tick-0 row (`frame_offset`; q0_true is its tick-0 value); the true
    relative yaw as the world yaw difference; and track_truth through
    `tracking_error_truth_rows`, which truth feedback applies per tick."""
    offsets = _offsets(res.config)
    truth = res.truth
    lead = truth[:, 0]
    for (pair, log), theta in zip(res.theta_log.items(),
                                  true_thetas(truth[0], list(res.theta_log))):
        res.theta_true[pair] = theta
        res.theta_err[pair] = row_norms(log - theta)
    for i, rt in res.rt_hat.items():
        q_true = frame_offset(truth[:, i], lead, truth[0, i])
        yaw = truth[:, i, 3] - lead[:, 3]
        res.q0_true[i] = q_true[0].copy()
        res.q0_err[i] = row_norms(res.q0_hat[i] - res.q0_true[i])
        res.q_rt_err[i] = row_norms(rt[:, :3] - q_true)
        res.trig_rt_err[i] = np.array([math.hypot(c - cy, s - sy) for c, s, cy, sy in
                                       zip(rt[:, 3], rt[:, 4], np.cos(yaw), np.sin(yaw))])
        res.track_truth[i] = tracking_error_truth_rows(truth[:, i], lead, offsets[i])


def _compute_metrics(res: RunResult) -> RunMetrics:
    m = RunMetrics()
    for p, err in res.theta_err.items():
        m.final_theta_err[p] = tail_mean(err)
        mag = float(np.linalg.norm(res.theta_true[p]))
        m.theta_convergence_s[p] = convergence_time(err, mag, 0.05, res.dt)
    for r, err in res.q0_err.items():
        mag = float(np.linalg.norm(res.q0_true[r]))
        # Never-estimated prefix counts as not converged until it ends.
        err = np.where(np.isnan(err), np.inf, err)
        m.q0_convergence_s[r] = convergence_time(err, mag, 0.05, res.dt) if mag > 0 else None
    for r, tr in res.track_truth.items():
        pos = np.linalg.norm(tr[:, :3], axis=1)
        yaw = np.abs(np.arctan2(tr[:, 4], 1.0 - tr[:, 3]))
        m.final_tracking_pos[r] = tail_mean(pos)
        m.final_tracking_yaw[r] = tail_mean(yaw)
    lead = res.commands[0]
    for r, cmd in res.commands.items():
        if r == 0:
            continue
        m.smoothness_total[r] = smoothness(cmd, lead, res.dt)
        if res.transition_tick is not None and res.transition_tick < res.n_ticks:
            k0 = res.transition_tick
            m.smoothness_stage2[r] = smoothness(cmd[k0:], lead[k0:], res.dt)
    if res.config.outlier_screening:
        m.detection = detection_stats(
            zip(res.verdict.ravel().tolist(), res.injected.ravel().tolist()))
    return m


# -- persistence -----------------------------------------------------------

# Every file write_run or sweep writes.  Each writer removes all of them
# first, so a directory holds one run's or one sweep's outputs, never a mix.
_OUTPUTS = ("manifest.json", "summary.csv", "estimates.csv", "tracking.csv", "commands.csv",
            "outliers.csv", "saturation.csv", "samples.csv",
            "cells.csv", "sweep.csv", "failures.csv")


def _clear_outputs(outdir: str | Path) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _OUTPUTS:
        (outdir / name).unlink(missing_ok=True)
    return outdir


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of Python values: csv writes a float as its repr, None as "" and a bool as True."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_run(res: RunResult, outdir: str | Path) -> Path:
    """Persist one run: manifest, summary and per-tick CSV logs."""
    outdir = _clear_outputs(outdir)
    manifest = {
        "tool_version": __version__,
        "config_hash": res.config.config_hash(),
        "seed": res.seed,
        "scenario": res.config.name,
        "n_ticks": res.n_ticks,
        "dt": res.dt,
        "layers": list(res.graph.layers),
        "pruned_edges": [[i, j] for (i, j) in res.graph.ordered_pairs()],
        "n_saturation_events": len(res.saturation_events),
        "config": res.config.to_dict(),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    row = res.summary_row()
    _write_csv(outdir / "summary.csv", list(row), [list(row.values())])

    ticks = range(res.n_ticks + 1)
    _write_csv(outdir / "estimates.csv",
               ["tick", "i", "j"] + [f"theta{n}" for n in range(7)]
               + ["lam_min", "lam_max", "updated", "theta_err"],
               (row for i, j in sorted(res.theta_log)
                for row in zip(ticks, repeat(i), repeat(j), *res.theta_log[i, j].T.tolist(),
                               res.lam_min[i, j].tolist(), res.lam_max[i, j].tolist(),
                               res.updated[i, j].astype(int).tolist(),
                               res.theta_err[i, j].tolist())))

    _write_csv(outdir / "tracking.csv",
               ["tick", "robot", "ex", "ey", "ez", "ec", "es",
                "ex_hat", "ey_hat", "ez_hat", "ec_hat", "es_hat",
                "q0_err", "q_rt_err"],
               (row for r in sorted(res.track_truth)
                for row in zip(ticks, repeat(r), *res.track_truth[r].T.tolist(),
                               *res.track_est[r].T.tolist(), res.q0_err[r].tolist(),
                               res.q_rt_err[r].tolist())))

    stage = (res.stage2_flag + 1).tolist()
    _write_csv(outdir / "commands.csv",
               ["tick", "robot", "v_h", "v_z", "w", "stage"],
               (row for r in sorted(res.commands)
                for row in zip(range(res.n_ticks), repeat(r), *res.commands[r].T.tolist(),
                               stage)))

    _write_csv(outdir / "outliers.csv",
               ["tick", "i", "j", "d", "votes", "queue_size", "verdict", "injected"],
               zip(*res._screen_columns(int)))

    if res.saturation_events:
        _write_csv(outdir / "saturation.csv",
                   ["tick", "robot", "v_h_raw", "v_z_raw", "w_raw"],
                   res.saturation_events)

    if res.config.sample_dump:
        _write_csv(outdir / "samples.csv",
                   ["tick", "i", "j"] + [f"phi{n}" for n in range(7)] + ["y"],
                   res.samples_dump)
    return outdir


def run_to_dir(config: ScenarioConfig, outdir: str | Path, seed: int | None = None) -> RunResult:
    """Run and write the logs to `outdir`, checking the seed and making and
    clearing `outdir` first: a bad seed or path fails before the run."""
    seed = _SEED.load(config.seed if seed is None else seed, "seed")
    _clear_outputs(outdir)
    res = run(config, seed)
    write_run(res, outdir)
    return res


# -- sweeps ------------------------------------------------------------------

SWEEP_AXES = ("noise", "outlier_prob", "swarm_size")

# The fields the swarm_size axis takes from chain_swarm instead of the base.
_LAYOUT_FIELDS = ("name", "robots", "edges", "formation", "gains", "seed")


@dataclass
class SweepResult:
    axis: str
    rows: list            # one summary dict per (value, seed) cell
    failures: list        # (value, seed, repr(error))

    def by_value(self) -> dict:
        table: dict = {}
        for row in self.rows:
            table.setdefault(row["axis_value"], []).append(row)
        return table


def _apply_axis(base: ScenarioConfig, axis: str, value, seed: int) -> ScenarioConfig:
    # The config loader's kinds: a bool or a string fails its cell, as does
    # a swarm size that is not a whole number.
    if axis == "noise":
        sigma = _REAL.load(value, axis)
        return replace(base, noise=replace(base.noise, sigma_range=sigma, sigma_odom_pos=sigma))
    if axis == "outlier_prob":
        return replace(base, noise=replace(base.noise, outlier_prob=_REAL.load(value, axis)))
    if axis == "swarm_size":
        from .scenarios import chain_swarm
        # The chain supplies the layout; every other setting stays the base's.
        layout = chain_swarm(_INT.load(value, axis), seed=seed)
        return replace(base, **{f: getattr(layout, f) for f in _LAYOUT_FIELDS})
    raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")


def sweep(base: ScenarioConfig, axis: str, values, seeds: int,
          outdir: str | Path | None = None) -> SweepResult:
    """Run the (value x seed) grid and aggregate summaries per cell.

    Seeds are base.seed + s for s in range(seeds), so cells along the axis
    are seed-matched.  Individual run failures are recorded and the sweep
    continues.  An empty grid (no values, or seeds < 1) raises a
    ConfigError before any run or file write; `outdir` is made and cleared
    of earlier outputs before the first run.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    if isinstance(seeds, bool) or not isinstance(seeds, int) or seeds < 1:
        raise ConfigError(f"seeds must be a whole number >= 1, got {seeds!r}")
    values = list(values)
    if not values:
        raise ConfigError("values must hold at least one value")
    if outdir is not None:
        outdir = _clear_outputs(outdir)
    rows, failures = [], []
    for value in values:
        for s in range(seeds):
            run_seed = base.seed + s
            try:
                cfg = _apply_axis(base, axis, value, run_seed)
                res = run(cfg, seed=run_seed)
                rows.append({"axis": axis, "axis_value": value, **res.summary_row()})
            except Exception as exc:   # recorded, sweep continues
                failures.append((value, run_seed, repr(exc)))
    result = SweepResult(axis, rows, failures)
    if outdir is not None:
        if rows:
            _write_csv(outdir / "cells.csv", list(rows[0]), [list(r.values()) for r in rows])
            agg_rows = []
            for value, cell in result.by_value().items():
                errs = [r["final_theta_err_mean"] for r in cell
                        if r["final_theta_err_mean"] is not None]
                convs = [r["theta_conv_max_s"] for r in cell
                         if r["theta_conv_max_s"] is not None]
                agg_rows.append([axis, value, len(cell),
                                 float(np.mean(errs)) if errs else None,
                                 float(np.std(errs)) if errs else None,
                                 float(np.mean(convs)) if convs else None,
                                 len(cell) - len(convs)])
            _write_csv(outdir / "sweep.csv",
                       ["axis", "value", "n_runs", "final_theta_err_mean",
                        "final_theta_err_std", "theta_conv_mean_s", "n_not_converged"],
                       agg_rows)
        if failures:
            _write_csv(outdir / "failures.csv", ["value", "seed", "error"], failures)
    return result


# -- reporting ---------------------------------------------------------------

def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _breaks_thresholds(row: dict, max_track_pos: float | None,
                       require_convergence: bool) -> bool:
    """Whether one summary row, of a run or of a sweep cell, fails the report."""
    pos = row["final_track_pos_max"]
    return (require_convergence and int(row["theta_conv_missing"]) > 0) or \
        (max_track_pos is not None and pos != "" and float(pos) > max_track_pos)


def report(outdir: str | Path, max_track_pos: float | None = None,
           require_convergence: bool = True) -> int:
    """Print a human-readable summary of a run or sweep directory.

    Returns a process exit code: 0 iff the configured thresholds hold
    (all estimators converged; final tracking under the bound if given)
    for the run, or for every cell of the sweep and no sweep run failed.
    Raises ConfigError unless the bound is a finite number >= 0.
    """
    max_track_pos = _Optional(_NONNEG).load(max_track_pos, "max_track_pos")
    outdir = Path(outdir)
    summary = outdir / "summary.csv"
    sweep_csv, failures = outdir / "sweep.csv", outdir / "failures.csv"
    if sweep_csv.exists() or failures.exists():
        print(f"sweep results in {outdir}:")
        bad = 0
        if sweep_csv.exists():
            print(sweep_csv.read_text().rstrip())
            cells = _read_rows(outdir / "cells.csv")
            bad = sum(_breaks_thresholds(row, max_track_pos, require_convergence) for row in cells)
            print(f"cells failing the thresholds: {bad} of {len(cells)}")
        if failures.exists():
            print("failures:")
            print(failures.read_text().rstrip())
        return int(bad > 0 or failures.exists())
    if not summary.exists():
        raise MissingLogs(f"no summary.csv, sweep.csv or failures.csv under {outdir}")
    code = 0
    for row in _read_rows(summary):
        print(f"scenario {row['scenario']} (seed {row['seed']}, hash {row['config_hash']})")
        print(f"  ticks: {row['n_ticks']} at dt {row['dt']} s, "
              f"stage-2 from tick {row['transition_tick'] or 'never'}")
        print(f"  estimator convergence (5% sustained): mean {row['theta_conv_mean_s'] or 'n/a'} s, "
              f"max {row['theta_conv_max_s'] or 'n/a'} s, missing {row['theta_conv_missing']}")
        print(f"  final estimation error: mean {row['final_theta_err_mean'] or 'n/a'}, "
              f"max {row['final_theta_err_max'] or 'n/a'}")
        print(f"  final tracking: pos {row['final_track_pos_max'] or 'n/a'} m, "
              f"yaw {row['final_track_yaw_max'] or 'n/a'} rad")
        print(f"  smoothness: total {row['smooth_total_mean'] or 'n/a'}, "
              f"stage-2 {row['smooth_stage2_mean'] or 'n/a'}")
        if row["detect_success"] not in ("", None):
            print(f"  outlier detection: success {row['detect_success']}, "
                  f"false positives {row['detect_fp_rate']}, injected {row['n_injected']}")
        if _breaks_thresholds(row, max_track_pos, require_convergence):
            code = 1
    return code
