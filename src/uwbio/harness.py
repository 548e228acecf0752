"""Deterministic batch simulation: a tick loop, then truth scoring.

Per measurement instant the loop runs: sense -> outlier screen -> build
and record the regressor sample -> concurrent-learning update -> layered
cooperative update -> stage check; then a command is issued for the next
interval and the physics steps.  The pairs are independent within a tick,
so their estimator state lives on a leading pair axis in
`graph.ordered_pairs()` order (a JudgeBank, a RecordBank, a (pairs, 7)
estimate array and the last accepted measurement per pair), and each
estimator stage runs once per tick over all pairs; cooperative
composition, control, odometry and physics stay per robot.  The loop logs
estimator, controller and physics state plus the true poses, and reads
truth only for sensing, physics, `truth_feedback` and the unbroadcast
leader odometry; afterwards `_score_truth` derives every truth error from
the logs, all ticks at once.  Per-stream RNGs derived from (seed, stream
tag) make a (config, seed) pair determine every logged byte.
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
from .config import ConfigError, ScenarioConfig
from .control import (ControlGains, StageTracker, stage1_command, stage2_command,
                      tracking_error_estimated, tracking_error_truth, TrackingError)
from .cooploc import (LeaderPoseEstimate, MissingNeighborEstimate, assign_layers,
                      leader_initial_estimate, leader_realtime_estimate)
# The tick runs the stacked stages (build_samples, cl_update_all,
# excitation_ratios).  benchmarks/tracing.py still wraps their one-pair
# front ends under these harness names and fails without them; they can
# go once it traces the stacked entry points instead.
from .estimation import ThetaEstimate, cl_update, cl_update_all, reconstruct_pose
from .geometry import Angle, DegenerateRotation
from .metrics import RunMetrics, convergence_time, detection_stats, smoothness, tail_mean
from .outliers import JudgeBank
from .regression import THETA_DIM, DataRecord, RecordBank, RecordPolicy, RegressorSample, \
    ThetaTrue, build_sample, build_samples, excitation_ratio, excitation_ratios, pair_index
from .sensing import OdomBroadcast, OdomStream, RangeStream
from .world import RobotTruth, VelocityCommand, step

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
    odom = [OdomStream(noise, seed, r, planar=planar) for r in robots]
    n_pairs = len(pairs)
    all_pairs = list(range(n_pairs))
    pair_i = [i for i, _ in pairs]
    pair_j = [j for _, j in pairs]
    pair_ij = np.array(pairs, dtype=np.intp).reshape(n_pairs, 2)
    # Per-pair state on a leading pair axis, in `pairs` order.
    ranges = [RangeStream(noise, seed, i, j) for (i, j) in pairs]
    judges = JudgeBank(n_pairs, config.judge_capacity, config.judge_threshold)
    bank = RecordBank(n_pairs, planar)
    theta = np.zeros((n_pairs, THETA_DIM))
    # Each pair's last accepted measurement: its tick, and [d^2, z_i, z_j].
    end_tick = [-2] * n_pairs
    end = np.zeros((n_pairs, 7))
    last_sample: dict[tuple[int, int], RegressorSample] = {}
    # One-pair views of that state (they hold none of their own), for the
    # pose reconstruction and the result.
    estimators = {p: ThetaEstimate(theta[n], DataRecord(bank=bank, row=n), config.rate_variant)
                  for n, p in enumerate(pairs)}
    # Each robot's pairs, as the stage check reads their records.
    out_pairs = {r: [pairs.index((r, j)) for j in graph.out_edges[r]] for r in robots}
    lpe: dict[int, LeaderPoseEstimate | None] = {r: None for r in followers}

    timeout_ticks = None if config.stage1_timeout_s is None else \
        int(round(config.stage1_timeout_s / dt))
    stage = StageTracker(robots, config.excitation_threshold, timeout_ticks)

    rows = T + 1
    truth = np.zeros((rows, len(robots), 8))
    theta_log = np.full((rows, n_pairs, THETA_DIM), np.nan)
    lam_min = np.zeros((rows, n_pairs))
    lam_max = np.zeros((rows, n_pairs))
    updated = np.zeros((rows, n_pairs), dtype=bool)
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
        # Each estimator stage runs once over all pairs; pairs are
        # independent within a tick.
        truth[k] = [t.as_row() for t in truths]
        ends = truth[k].take(pair_ij, axis=0)
        diff = ends[:, 0, :3] - ends[:, 1, :3]
        draws = [stream.draw(x) for stream, x in
                 zip(ranges, np.sqrt(np.vecdot(diff, diff)).tolist())]
        d = [x for x, _ in draws]
        injected = [inj for _, inj in draws]
        now = np.empty((n_pairs, 7))
        # Python's float power, as the one-pair build_sample squares ranges.
        now[:, 0] = [x ** 2 for x in d]
        now[:, 1:] = np.array([o.cum_pos for o in odom]).take(pair_ij, axis=0).reshape(-1, 6)
        if config.outlier_screening:
            verdict, votes, qsize = judges.screen_all(np.array(d), now[:, 1:], k)
            outlier_events.extend(zip(repeat(k), pair_i, pair_j, d, votes, qsize, verdict,
                                      injected))
            accepted = [p for p, out in enumerate(verdict) if not out]
        else:
            outlier_events.extend(zip(repeat(k), pair_i, pair_j, d, repeat(0), repeat(0),
                                      repeat(False), injected))
            accepted = all_pairs
        chain = [p for p in accepted if end_tick[p] == k - 1]
        ix = pair_index(chain, n_pairs)
        phi, y, valid = build_samples(end[ix], now[ix] - end[ix])
        got = [p for p, ok in zip(chain, valid.tolist()) if ok]
        if got:
            if len(got) < len(chain):
                phi, y = phi[valid], y[valid]
            samples = [RegressorSample(row, yn, k - 1) for row, yn in zip(phi, y.tolist())]
            bank.add_all(got, samples, policy)
            cl_update_all(theta, bank, got, phi, y, config.rate_variant)
            updated[k, pair_index(got, n_pairs)] = True
            for n, s in zip(got, samples):
                last_sample[pairs[n]] = s
                if config.sample_dump:
                    samples_dump.append((k - 1, *pairs[n], *s.phi.tolist(), s.y))
        ix = pair_index(accepted, n_pairs)
        end[ix] = now[ix]
        for p in accepted:
            end_tick[p] = k

        # Cooperative update, shallow layers first so deeper nodes read
        # same-tick values from their parents.
        pairwise = {}
        for p, est in estimators.items():
            try:
                pairwise[p] = reconstruct_pose(est)
            except DegenerateRotation:
                pass
        for layer in range(1, graph.max_layer + 1):
            for i in graph.nodes_in_layer(layer):
                try:
                    lpe[i] = leader_initial_estimate(i, graph, pairwise, lpe, t_k=k)
                except MissingNeighborEstimate:
                    pass  # keep previous (stale) estimate

        ratio = excitation_ratios(bank)
        stage.update(k, {r: [ratio[n] for n in out_pairs[r]] for r in robots})

        # Logs at instant k.
        theta_log[k] = theta
        lam_min[k] = bank.lambda_min
        lam_max[k] = bank.lambda_max
        if np.count_nonzero(np.isfinite(theta)) < theta.size:
            bad = pairs[int(np.argmin(np.isfinite(theta).all(axis=1)))]
            raise RuntimeError(f"non-finite estimate for pair {bad} at tick {k}")
        z0 = leader_odometry(k)
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
            cmd = cmds[r]
            commands[r][k] = cmd.v_h, cmd.v_z, cmd.w
            nt = truths[r]
            for _ in range(sub):
                nt = step(nt, cmd, dt / sub)
            wp = nt.world_pose
            if not (math.isfinite(wp.x) and math.isfinite(wp.y) and math.isfinite(wp.z)):
                raise RuntimeError(f"non-finite state for robot {r} at tick {k + 1}")
            odom[r].update(truths[r], nt)
            truths[r] = nt
        sense_and_update(k + 1)

    def per_pair(log: np.ndarray) -> dict:
        return {p: log[:, n] for n, p in enumerate(pairs)}

    result = RunResult(
        config=config, seed=seed, dt=dt, n_ticks=T, graph=graph, truth=truth,
        theta_log=per_pair(theta_log), lam_min=per_pair(lam_min), lam_max=per_pair(lam_max),
        updated=per_pair(updated),
        q0_hat=q0_hat, q0_fresh=q0_fresh, rt_hat=rt_hat, track_est=track_est,
        commands=commands, stage2_flag=stage2_flag,
        transition_tick=stage.transition_tick,
        outlier_events=outlier_events, saturation_events=saturation_events,
        samples_dump=samples_dump,
        final_estimators=estimators, final_lpe=dict(lpe),
        final_truths=list(truths), last_sample=last_sample,
    )
    _score_truth(result)
    result.metrics = _compute_metrics(result)
    return result


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Row norms, bit-equal to np.linalg.norm per row (its axis=1 form is not)."""
    return np.sqrt(np.vecdot(d, d))


def _rotate_inverse(c, s, v: np.ndarray) -> np.ndarray:
    """Rows of v rotated by the inverse yaw (c, s), in Rotation3Z.apply_inverse's
    operand order; c and s are scalars or one per row."""
    return np.stack([c * v[:, 0] + s * v[:, 1], -s * v[:, 0] + c * v[:, 1], v[:, 2]], axis=1)


def _score_truth(res: RunResult) -> None:
    """Fill the ground-truth fields of `res` from its logged truth and
    estimates.  Follower i's true leader-relative position at tick k is
    R(psi_i0)' (p_i(k) - p_0(k)), q0_true its tick-0 row; the true relative
    yaw is the world yaw difference.  Every tick is scored at once, in the
    operand order of the scalar formulas (`tracking_error_truth` for
    track_truth); np.cos and np.sin equal math.cos and math.sin here."""
    spec = res.config.formation_spec()
    truth = res.truth
    lead = truth[:, 0]
    start = [RobotTruth.from_row(r, row) for r, row in enumerate(truth[0])]
    for (i, j), log in res.theta_log.items():
        res.theta_true[(i, j)] = ThetaTrue.from_truths(start[i], start[j]).vector
        res.theta_err[(i, j)] = _row_norms(log - res.theta_true[(i, j)])
    psi_00 = lead[:, 3] - lead[:, 7]          # the leader's initial world yaw
    for i, rt in res.rt_hat.items():
        d = truth[:, i, :3] - lead[:, :3]
        psi_i0 = start[i].initial_world_yaw()
        q_true = _rotate_inverse(math.cos(psi_i0), math.sin(psi_i0), d)
        yaw = truth[:, i, 3] - lead[:, 3]
        cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
        res.q0_true[i] = q_true[0].copy()
        res.q0_err[i] = _row_norms(res.q0_hat[i] - res.q0_true[i])
        res.q_rt_err[i] = _row_norms(rt[:, :3] - q_true)
        res.trig_rt_err[i] = np.array([math.hypot(c - cy, s - sy) for c, s, cy, sy in
                                       zip(rt[:, 3], rt[:, 4], cos_yaw, sin_yaw)])
        p_i0 = _rotate_inverse(np.cos(psi_00), np.sin(psi_00), d)
        ang = truth[:, i, 3] - psi_00
        e_p = _rotate_inverse(np.cos(ang), np.sin(ang), p_i0 - spec.offset(i))
        res.track_truth[i] = np.column_stack((e_p, 1.0 - cos_yaw, sin_yaw))


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
