"""Deterministic batch simulation: a tick loop, then truth scoring.

Per measurement instant the loop runs: sense -> outlier screen -> build
and record the regressor sample -> concurrent-learning update -> layered
cooperative update -> stage check; then a command is issued for the next
interval and the physics steps.  The loop logs estimator, controller and
physics state plus the true poses, and reads truth only for sensing,
physics, `truth_feedback` and the unbroadcast leader odometry; afterwards
`_score_truth` derives every truth error from the logs.  Per-stream RNGs
derived from (seed, stream tag) make a (config, seed) pair determine
every logged byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig
from .control import (ControlGains, StageTracker, stage1_command, stage2_command,
                      tracking_error_estimated, tracking_error_truth, TrackingError)
from .cooploc import (LeaderPoseEstimate, MissingNeighborEstimate, assign_layers,
                      leader_initial_estimate, leader_realtime_estimate)
from .estimation import ThetaEstimate, cl_update, reconstruct_pose
from .geometry import Angle, DegenerateRotation, Rotation3Z
from .metrics import RunMetrics, convergence_time, detection_stats, smoothness, tail_mean
from .outliers import JudgeQueue
from .regression import DataRecord, RecordPolicy, RegressorSample, ThetaTrue, \
    build_sample, excitation_ratio
from .sensing import MeasurementTriplet, OdomBroadcast, OdomStream, RangeStream
from .world import RobotTruth, VelocityCommand, step

# Golden-angle phase spread keeps per-robot excitation signals decorrelated.
_PHASE = 2.399963229728653

# Rejection draws per robot before random_init gives up on min_sep.
_PLACEMENT_DRAWS = 1000


class MissingLogs(FileNotFoundError):
    """Expected run outputs are not present in the directory."""


@dataclass
class _Endpoint:
    tick: int
    d: float
    z_i: np.ndarray
    z_j: np.ndarray


@dataclass
class RunResult:
    """All logs and terminal state of one simulation run.  Follower rows
    are NaN until a leader estimate exists; `_score_truth` fills the fields
    after `last_sample`."""

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
    outlier_events: list
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


def _initial_truths(config: ScenarioConfig, seed: int) -> list[RobotTruth]:
    truths = [RobotTruth.spawn(r.id, r.x, r.y, r.z, r.yaw) for r in config.robots]
    if config.random_init is not None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        radius, min_sep = config.random_init.radius, config.random_init.min_sep
        placed = [np.zeros(2)]
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
            truths[r.id] = RobotTruth.spawn(r.id, float(pos[0]), float(pos[1]), 0.0, yaw)
    return truths


def run(config: ScenarioConfig, seed: int | None = None) -> RunResult:
    """Execute one deterministic run and return all logs plus metrics."""
    seed = config.seed if seed is None else int(seed)
    noise = replace(config.noise, seed=seed)
    graph = assign_layers(config.edges, config.n_robots)
    pairs = graph.ordered_pairs()
    robots = list(range(config.n_robots))
    followers = [r for r in robots if r != 0]
    T = config.n_ticks
    dt = config.dt
    planar = config.mode_2d
    spec = config.formation_spec()
    policy = RecordPolicy(hist_cap=config.hist_cap)

    gains = {r.id: ControlGains(config.gains.k1, config.gains.k2, config.gains.k3,
                                config.gains.k4, r=r.r, c_v=r.c_v, c_w=r.c_w)
             for r in config.robots}
    cruise = config.leader_cruise
    if cruise is None:
        g0 = gains[0]
        cruise = VelocityCommand(g0.r * g0.c_w, 0.0, g0.c_w)

    truths = _initial_truths(config, seed)
    odom = {r: OdomStream(noise, seed, r, planar=planar) for r in robots}
    ranges = {(i, j): RangeStream(noise, seed, i, j) for (i, j) in pairs}
    records = {(i, j): DataRecord(planar=planar) for (i, j) in pairs}
    estimators = {(i, j): ThetaEstimate.fresh(records[(i, j)], config.rate_variant)
                  for (i, j) in pairs}
    judges = {(i, j): JudgeQueue(config.judge_capacity, config.judge_threshold)
              for (i, j) in pairs}
    last_endpoint: dict[tuple[int, int], _Endpoint | None] = {p: None for p in pairs}
    last_sample: dict[tuple[int, int], RegressorSample] = {}
    lpe: dict[int, LeaderPoseEstimate | None] = {r: None for r in followers}

    timeout_ticks = None if config.stage1_timeout_s is None else \
        int(round(config.stage1_timeout_s / dt))
    stage = StageTracker(robots, config.excitation_threshold, timeout_ticks)

    rows = T + 1
    truth = np.zeros((rows, len(robots), 8))
    theta_log = {p: np.full((rows, 7), np.nan) for p in pairs}
    lam_min = {p: np.zeros(rows) for p in pairs}
    lam_max = {p: np.zeros(rows) for p in pairs}
    updated = {p: np.zeros(rows, dtype=bool) for p in pairs}
    q0_hat = {r: np.full((rows, 3), np.nan) for r in followers}
    q0_fresh = {r: np.zeros(rows, dtype=bool) for r in followers}
    rt_hat = {r: np.full((rows, 5), np.nan) for r in followers}
    track_est = {r: np.full((rows, 5), np.nan) for r in followers}
    commands = {r: np.zeros((T, 3)) for r in robots}
    stage2_flag = np.zeros(T, dtype=bool)
    outlier_events: list[tuple] = []
    saturation_events: list[tuple] = []
    samples_dump: list[tuple] = []
    current_ehat: dict[int, TrackingError | None] = {r: None for r in followers}

    def leader_odometry(k: int) -> OdomBroadcast:
        if config.leader_odom_broadcast:
            return odom[0].broadcast(k)
        pose = truths[0].odom_pose
        return OdomBroadcast(0, k, pose.position(), pose.yaw)

    def sense_and_update(k: int) -> None:
        truth[k] = [t.as_row() for t in truths]
        for (i, j) in pairs:
            d, injected = ranges[(i, j)].sample(truths[i], truths[j])
            z_i = odom[i].cum_pos.copy()
            z_j = odom[j].cum_pos.copy()
            if config.outlier_screening:
                res = judges[(i, j)].screen(MeasurementTriplet(d, z_i, z_j, k))
                verdict, votes, qsize = res.is_outlier, res.votes, res.queue_size
            else:
                verdict, votes, qsize = False, 0, 0
            outlier_events.append((k, i, j, d, votes, qsize, verdict, injected))
            if verdict:
                continue
            le = last_endpoint[(i, j)]
            if le is not None and le.tick == k - 1:
                s = build_sample(le.d, d, (le.z_i, z_i - le.z_i), (le.z_j, z_j - le.z_j),
                                 t_k=k - 1)
                if s is not None:
                    records[(i, j)].add(s, policy)
                    estimators[(i, j)] = cl_update(estimators[(i, j)], s)
                    last_sample[(i, j)] = s
                    updated[(i, j)][k] = True
                    if config.sample_dump:
                        samples_dump.append((k - 1, i, j, *s.phi.tolist(), s.y))
            last_endpoint[(i, j)] = _Endpoint(k, d, z_i, z_j)

        # Cooperative update, shallow layers first so deeper nodes read
        # same-tick values from their parents.
        pairwise = {}
        for p in pairs:
            try:
                pairwise[p] = reconstruct_pose(estimators[p])
            except DegenerateRotation:
                pass
        for layer in range(1, graph.max_layer + 1):
            for i in graph.nodes_in_layer(layer):
                try:
                    lpe[i] = leader_initial_estimate(i, graph, pairwise, lpe, t_k=k)
                except MissingNeighborEstimate:
                    pass  # keep previous (stale) estimate

        ratios = {}
        for r in robots:
            rs = []
            for j in graph.out_edges[r]:
                rec = records[(r, j)]
                rs.append(excitation_ratio(rec) if len(rec) > 0 else 0.0)
            ratios[r] = rs
        stage.update(k, ratios)

        # Logs at instant k.
        z0 = leader_odometry(k)
        for p in pairs:
            est = estimators[p]
            theta_log[p][k] = est.theta_hat
            lam_min[p][k] = est.data.lambda_min
            lam_max[p][k] = est.data.lambda_max
            if not np.all(np.isfinite(est.theta_hat)):
                raise RuntimeError(f"non-finite estimate for pair {p} at tick {k}")
        for i in followers:
            current_ehat[i] = None
            est_i = lpe[i]
            if est_i is None:
                continue
            q0_fresh[i][k] = est_i.fresh == k
            q0_hat[i][k] = est_i.q0_hat
            q_hat, c_hat, s_hat = leader_realtime_estimate(
                est_i, odom[i].cum_pos, Angle(odom[i].cum_yaw), z0, k,
                config.broadcast_horizon)
            rt_hat[i][k, :3] = q_hat
            rt_hat[i][k, 3:] = c_hat, s_hat
            e_hat = tracking_error_estimated(q_hat, est_i.Q0_hat, c_hat, s_hat,
                                             Angle(odom[i].cum_yaw), spec.offset(i))
            current_ehat[i] = e_hat
            track_est[i][k] = [e_hat.e_p[0], e_hat.e_p[1], e_hat.e_p[2],
                               e_hat.e_c, e_hat.e_s]

    def follower_command(i: int, k: int, t: float, stage2: bool,
                         lead_cmd: VelocityCommand) -> VelocityCommand:
        g = gains[i]
        if not config.pe_baseline and not stage2:
            return stage1_command(g, t)
        if config.truth_feedback:
            e_hat = tracking_error_truth(truths[i], truths[0], spec.offset(i))
        else:
            e_hat = current_ehat[i]
            if e_hat is None:
                # Cold start: no usable estimate yet, fall back to feedforward.
                e_hat = TrackingError(np.zeros(3), 0.0, 0.0)
        cmd = stage2_command(lead_cmd, e_hat, g)
        if config.pe_baseline:
            pe = config.pe_excitation
            ph = _PHASE * i
            v_h = cmd.v_h + pe.amplitude * math.sin(pe.frequency * t + ph)
            w = cmd.w + pe.amplitude * math.cos(pe.frequency * t + ph)
            v_z = cmd.v_z
            if not planar:
                v_z += 0.5 * pe.amplitude * math.sin(0.8 * pe.frequency * t + ph)
            cmd = VelocityCommand(v_h, v_z, w)
        return cmd

    def saturate(r: int, k: int, cmd: VelocityCommand) -> VelocityCommand:
        sat = config.saturation
        if sat is None:
            return cmd
        v_h = min(max(cmd.v_h, -sat.v_h_max), sat.v_h_max)
        v_z = min(max(cmd.v_z, -sat.v_z_max), sat.v_z_max)
        w = min(max(cmd.w, -sat.w_max), sat.w_max)
        if (v_h, v_z, w) != (cmd.v_h, cmd.v_z, cmd.w):
            saturation_events.append((k, r, cmd.v_h, cmd.v_z, cmd.w))
            return VelocityCommand(v_h, v_z, w)
        return cmd

    sense_and_update(0)
    for k in range(T):
        t = k * dt
        stage2 = config.pe_baseline or stage.in_stage2(k)
        stage2_flag[k] = stage2
        lead_cmd = cruise if stage2 else stage1_command(gains[0], t)
        if planar:
            lead_cmd = VelocityCommand(lead_cmd.v_h, 0.0, lead_cmd.w)
        # Followers feed forward the command the leader actually applies.
        lead_cmd = saturate(0, k, lead_cmd)
        cmds = {0: lead_cmd}
        for i in followers:
            cmd = follower_command(i, k, t, stage2, lead_cmd)
            if planar:
                cmd = VelocityCommand(cmd.v_h, 0.0, cmd.w)
            cmds[i] = saturate(i, k, cmd)
        sub = config.physics_substeps
        for r in robots:
            commands[r][k] = cmds[r].as_vector()
            nt = truths[r]
            for _ in range(sub):
                nt = step(nt, cmds[r], dt / sub)
            if not np.all(np.isfinite(nt.world_pose.position())):
                raise RuntimeError(f"non-finite state for robot {r} at tick {k + 1}")
            odom[r].update(truths[r], nt)
            truths[r] = nt
        sense_and_update(k + 1)

    result = RunResult(
        config=config, seed=seed, dt=dt, n_ticks=T, graph=graph, truth=truth,
        theta_log=theta_log, lam_min=lam_min, lam_max=lam_max, updated=updated,
        q0_hat=q0_hat, q0_fresh=q0_fresh, rt_hat=rt_hat, track_est=track_est,
        commands=commands, stage2_flag=stage2_flag,
        transition_tick=stage.transition_tick,
        outlier_events=outlier_events, saturation_events=saturation_events,
        samples_dump=samples_dump,
        final_estimators=dict(estimators), final_lpe=dict(lpe),
        final_truths=list(truths), last_sample=last_sample,
    )
    _score_truth(result)
    result.metrics = _compute_metrics(result)
    return result


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Row norms, bit-equal to np.linalg.norm per row (its axis=1 form is not)."""
    return np.sqrt(np.vecdot(d, d))


def _score_truth(res: RunResult) -> None:
    """Fill the ground-truth fields of `res` from its logged truth and
    estimates.  Follower i's true leader-relative position at tick k is
    R(psi_i0)' (p_i(k) - p_0(k)), q0_true its tick-0 row; the true relative
    yaw is the world yaw difference."""
    spec = res.config.formation_spec()
    truth = res.truth
    start = [RobotTruth.from_row(r, row) for r, row in enumerate(truth[0])]
    for (i, j), log in res.theta_log.items():
        res.theta_true[(i, j)] = ThetaTrue.from_truths(start[i], start[j]).vector
        res.theta_err[(i, j)] = _row_norms(log - res.theta_true[(i, j)])
    for i, rt in res.rt_hat.items():
        rot = Rotation3Z.from_angle(start[i].initial_world_yaw())
        q_true = np.array([rot.apply_inverse(d) for d in truth[:, i, :3] - truth[:, 0, :3]])
        yaw = truth[:, i, 3] - truth[:, 0, 3]
        res.q0_true[i] = q_true[0].copy()
        res.q0_err[i] = _row_norms(res.q0_hat[i] - res.q0_true[i])
        res.q_rt_err[i] = _row_norms(rt[:, :3] - q_true)
        res.trig_rt_err[i] = np.array([math.hypot(c - math.cos(th), s - math.sin(th))
                                       for c, s, th in zip(rt[:, 3], rt[:, 4], yaw)])
        res.track_truth[i] = np.empty((len(truth), 5))
    for k, row in enumerate(truth):
        leader = RobotTruth.from_row(0, row[0])
        for i, track in res.track_truth.items():
            e = tracking_error_truth(RobotTruth.from_row(i, row[i]), leader, spec.offset(i))
            track[k] = [e.e_p[0], e.e_p[1], e.e_p[2], e.e_c, e.e_s]


def _compute_metrics(res: RunResult) -> RunMetrics:
    m = RunMetrics(dt=res.dt, duration_s=res.dt * res.n_ticks,
                   transition_tick=res.transition_tick)
    for p, err in res.theta_err.items():
        m.final_theta_err[p] = tail_mean(err)
        mag = float(np.linalg.norm(res.theta_true[p]))
        m.theta_convergence_s[p] = convergence_time(err, mag, 0.05, res.dt)
    for r, err in res.q0_err.items():
        mag = float(np.linalg.norm(res.q0_true[r]))
        if np.any(np.isnan(err)):
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
            (ev[6], ev[7]) for ev in res.outlier_events)
    return m


# -- persistence -----------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_run(res: RunResult, outdir: str | Path) -> Path:
    """Persist one run: manifest, summary and per-tick CSV logs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

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

    est_rows = []
    for (i, j) in sorted(res.theta_log):
        th = res.theta_log[(i, j)]
        for k in range(res.n_ticks + 1):
            est_rows.append([k, i, j, *th[k].tolist(),
                             res.lam_min[(i, j)][k], res.lam_max[(i, j)][k],
                             res.updated[(i, j)][k], res.theta_err[(i, j)][k]])
    _write_csv(outdir / "estimates.csv",
               ["tick", "i", "j"] + [f"theta{n}" for n in range(7)]
               + ["lam_min", "lam_max", "updated", "theta_err"], est_rows)

    trk_rows = []
    for r in sorted(res.track_truth):
        tt, te = res.track_truth[r], res.track_est[r]
        for k in range(res.n_ticks + 1):
            trk_rows.append([k, r, *tt[k].tolist(), *te[k].tolist(),
                             res.q0_err[r][k], res.q_rt_err[r][k]])
    _write_csv(outdir / "tracking.csv",
               ["tick", "robot", "ex", "ey", "ez", "ec", "es",
                "ex_hat", "ey_hat", "ez_hat", "ec_hat", "es_hat",
                "q0_err", "q_rt_err"], trk_rows)

    cmd_rows = []
    for r in sorted(res.commands):
        c = res.commands[r]
        for k in range(res.n_ticks):
            cmd_rows.append([k, r, c[k, 0], c[k, 1], c[k, 2], int(res.stage2_flag[k]) + 1])
    _write_csv(outdir / "commands.csv",
               ["tick", "robot", "v_h", "v_z", "w", "stage"], cmd_rows)

    _write_csv(outdir / "outliers.csv",
               ["tick", "i", "j", "d", "votes", "queue_size", "verdict", "injected"],
               res.outlier_events)

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
    if axis == "noise":
        return replace(base, noise=replace(base.noise, sigma_range=float(value),
                                           sigma_odom_pos=float(value)))
    if axis == "outlier_prob":
        return replace(base, noise=replace(base.noise, outlier_prob=float(value)))
    if axis == "swarm_size":
        from .scenarios import chain_swarm
        # The chain supplies the layout; every other setting stays the base's.
        layout = chain_swarm(int(value), seed=seed)
        return replace(base, **{f: getattr(layout, f) for f in _LAYOUT_FIELDS})
    raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")


def sweep(base: ScenarioConfig, axis: str, values, seeds: int,
          outdir: str | Path | None = None) -> SweepResult:
    """Run the (value x seed) grid and aggregate summaries per cell.

    Seeds are base.seed + s for s in range(seeds), so cells along the axis
    are seed-matched.  Individual run failures are recorded and the sweep
    continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    rows, failures = [], []
    for value in values:
        for s in range(seeds):
            run_seed = base.seed + s
            try:
                cfg = _apply_axis(base, axis, value, run_seed)
                res = run(cfg, seed=run_seed)
                row = res.summary_row()
                row["axis"] = axis
                row["axis_value"] = value
                rows.append(row)
            except Exception as exc:   # recorded, sweep continues
                failures.append((value, run_seed, repr(exc)))
    result = SweepResult(axis, rows, failures)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if rows:
            header = ["axis", "axis_value"] + [k for k in rows[0] if k not in
                                               ("axis", "axis_value")]
            _write_csv(outdir / "cells.csv", header,
                       [[r[h] for h in header] for r in rows])
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

def report(outdir: str | Path, max_track_pos: float | None = None,
           require_convergence: bool = True) -> int:
    """Print a human-readable summary of a run directory.

    Returns a process exit code: 0 iff the configured thresholds hold
    (all estimators converged; final tracking under the bound if given).
    """
    outdir = Path(outdir)
    summary = outdir / "summary.csv"
    sweep_csv = outdir / "sweep.csv"
    if sweep_csv.exists():
        print(f"sweep results in {outdir}:")
        print(sweep_csv.read_text().rstrip())
        failures = outdir / "failures.csv"
        if failures.exists():
            print("failures:")
            print(failures.read_text().rstrip())
            return 1
        return 0
    if not summary.exists():
        raise MissingLogs(f"no summary.csv or sweep.csv under {outdir}")
    with open(summary) as fh:
        rows = list(csv.DictReader(fh))
    code = 0
    for row in rows:
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
        if require_convergence and int(row["theta_conv_missing"]) > 0:
            code = 1
        if max_track_pos is not None and row["final_track_pos_max"] and \
                float(row["final_track_pos_max"]) > max_track_pos:
            code = 1
    return code
