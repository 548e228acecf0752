"""Output checks the benchmark applies to every simulation run.

Each check recomputes a result apart from the program, from the run's
inputs and the method's definitions, or tests a property the method must
have.  None compares against a stored copy of earlier output.  A failed
check raises CheckError.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Incremental add/subtract drift of the information matrix over thousands
# of record swaps stays near 1e-12; a real bookkeeping error is far larger.
S_TOL = 1e-9
# The benchmark's integrator sums the same arcs in another order.
POSE_TOL = 1e-6
YAW_TOL = 1e-9
COMPOSE_TOL = 1e-9
UNIT_TOL = 1e-12
# Below this yaw rate an arc is a straight segment, as in the program.
OMEGA_EPS = 1e-8
# Below this norm a (cos, sin) pair defines no rotation, as in the program.
TRIG_TOL = 1e-9
# Parameter indices that planar runs observe: the z row is identically zero.
PLANAR_ACTIVE = (0, 1, 3, 4, 5, 6)
# Detection success required of the screen for outlier probabilities up to 0.2.
MIN_DETECTION = 0.8
DETECTION_MAX_PROB = 0.2
TAIL_FRACTION = 0.1


class CheckError(AssertionError):
    """A run's output disagrees with the benchmark's own computation."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


def _rot(c: float, s: float, v: np.ndarray) -> np.ndarray:
    """Rotate the horizontal part of v by the (cos, sin) pair; keep z."""
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])


def _rot_inv(c: float, s: float, v: np.ndarray) -> np.ndarray:
    return np.array([c * v[0] + s * v[1], -s * v[0] + c * v[1], v[2]])


def tail_mean(series: np.ndarray) -> float:
    """Mean over the last tenth of a series: the 'final' value of a run."""
    n = max(1, int(len(series) * TAIL_FRACTION))
    return float(np.mean(series[-n:]))


def theta_true(pose_i, pose_j) -> np.ndarray:
    """The 7 unknowns of pair (i, j) from the two initial world poses.

    Theta = [p0, R(theta0)' p0_h, cos theta0, sin theta0], with p0 the
    initial position of i minus j in i's odometry frame and theta0 the yaw
    of j's frame in i's.  Poses are (x, y, z, yaw).
    """
    xi, yi, zi, yaw_i = pose_i
    xj, yj, zj, yaw_j = pose_j
    ci, si = math.cos(yaw_i), math.sin(yaw_i)
    p0 = _rot_inv(ci, si, np.array([xi - xj, yi - yj, zi - zj]))
    th = yaw_j - yaw_i
    c0, s0 = math.cos(th), math.sin(th)
    q0 = _rot_inv(c0, s0, p0)
    return np.array([p0[0], p0[1], p0[2], q0[0], q0[1], c0, s0])


def integrate(pose0, commands: np.ndarray, dt: float) -> np.ndarray:
    """Exact-arc unicycle: world poses (x, y, z, yaw) at ticks 0..T from the
    initial pose and the (T, 3) stack of (v_h, v_z, w) commands."""
    x0, y0, z0, yaw0 = pose0
    v, vz, w = commands[:, 0], commands[:, 1], commands[:, 2]
    yaw = np.concatenate([[yaw0], yaw0 + np.cumsum(w * dt)])
    a, b = yaw[:-1], yaw[1:]
    arc = np.abs(w) > OMEGA_EPS
    radius = np.divide(v, w, out=np.zeros_like(v), where=arc)
    dx = np.where(arc, radius * (np.sin(b) - np.sin(a)), v * dt * np.cos(a))
    dy = np.where(arc, radius * (np.cos(a) - np.cos(b)), v * dt * np.sin(a))
    out = np.empty((len(commands) + 1, 4))
    out[:, 0] = x0 + np.concatenate([[0.0], np.cumsum(dx)])
    out[:, 1] = y0 + np.concatenate([[0.0], np.cumsum(dy)])
    out[:, 2] = z0 + np.concatenate([[0.0], np.cumsum(vz * dt)])
    out[:, 3] = yaw
    return out


def layers(edges, n_robots: int) -> tuple[list[int], dict[int, list[int]]]:
    """Hop distance to the leader and the neighbors strictly closer to it."""
    hears = {r: set() for r in range(n_robots)}
    for i, j in edges:
        hears[i].add(j)
    layer = [-1] * n_robots
    layer[0] = 0
    queue = deque([0])
    while queue:
        j = queue.popleft()
        for i in range(n_robots):
            if layer[i] < 0 and j in hears[i]:
                layer[i] = layer[j] + 1
                queue.append(i)
    return layer, {i: sorted(j for j in hears[i] if layer[j] < layer[i])
                   for i in range(n_robots)}


@dataclass
class RunSummary:
    """What the benchmark keeps of one checked run."""

    theta_errs: list          # final ||theta_hat - theta|| per ordered pair
    track_max: float          # largest final truth position error over followers
    flagged_injected: int     # injected outliers the screen flagged
    injected: int


def check_record(res) -> None:
    """Information matrix, eigenvalues, unit regressors and capacity of
    every pair's final record."""
    cfg = res.config
    active = list(PLANAR_ACTIVE) if cfg.mode_2d else list(range(7))
    for pair, est in res.final_estimators.items():
        rec = est.data
        if len(rec.history) > cfg.hist_cap:
            _fail(f"pair {pair}: record holds {len(rec.history)} > hist_cap {cfg.hist_cap}")
        phis = np.array([s.phi for s in rec.history]).reshape(-1, 7)
        norms = np.linalg.norm(phis, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            _fail(f"pair {pair}: a regressor norm is not 1: {norms}")
        S = phis.T @ phis
        drift = float(np.max(np.abs(rec.S - S)))
        if drift > S_TOL:
            _fail(f"pair {pair}: S differs from sum(phi phi') by {drift:.3g}")
        w = np.linalg.eigvalsh(S[np.ix_(active, active)])
        lo, hi = max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
        if abs(rec.lambda_min - lo) > S_TOL or abs(rec.lambda_max - hi) > S_TOL:
            _fail(f"pair {pair}: eigenvalues ({rec.lambda_min}, {rec.lambda_max}) "
                  f"!= ({lo}, {hi})")
        if (res.lam_min[pair][-1], res.lam_max[pair][-1]) != (rec.lambda_min, rec.lambda_max):
            _fail(f"pair {pair}: logged eigenvalues differ from the final record")


def trajectories(res) -> dict[int, np.ndarray]:
    """World poses of every robot at every tick, from the logged commands."""
    cfg = res.config
    if cfg.random_init is not None:
        _fail("random_init runs draw their initial poses inside the program")
    return {r.id: integrate((r.x, r.y, r.z, r.yaw), res.commands[r.id], res.dt)
            for r in cfg.robots}


def check_physics(res, traj: dict[int, np.ndarray]) -> None:
    """Integrated commands land on the final truths."""
    for r, poses in traj.items():
        wp = res.final_truths[r].world_pose
        x, y, z, yaw = poses[-1]
        err = math.dist((x, y, z), (wp.x, wp.y, wp.z))
        if err > POSE_TOL or abs(yaw - wp.yaw.radians) > YAW_TOL:
            _fail(f"robot {r}: integrated final pose off by {err:.3g} m, "
                  f"{abs(yaw - wp.yaw.radians):.3g} rad")


def formation_errors(res, traj: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Truth formation error per follower and tick: (e_p, 1 - cos, sin) of
    the follower's position in the leader's initial frame, minus its
    offset, in its own body frame."""
    lead = traj[0]
    psi00 = lead[0, 3]
    out = {}
    for r, poses in traj.items():
        if r == 0:
            continue
        off = np.asarray(res.config.formation.get(r, (0.0, 0.0, 0.0)), dtype=float)
        d = poses[:, :3] - lead[:, :3]
        c, s = math.cos(psi00), math.sin(psi00)
        p = np.stack([c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1], d[:, 2]], 1) - off
        rel = poses[:, 3] - psi00
        cr, sr = np.cos(rel), np.sin(rel)
        th = poses[:, 3] - lead[:, 3]
        out[r] = np.stack([cr * p[:, 0] + sr * p[:, 1], -sr * p[:, 0] + cr * p[:, 1], p[:, 2],
                           1.0 - np.cos(th), np.sin(th)], 1)
    return out


def check_truth_scoring(res, track: dict[int, np.ndarray]) -> dict:
    """Logged truths and errors agree with the benchmark's own; returns the
    benchmark's theta per pair."""
    robots = {r.id: (r.x, r.y, r.z, r.yaw) for r in res.config.robots}
    thetas = {}
    for (i, j), log in res.theta_log.items():
        th = theta_true(robots[i], robots[j])
        if np.max(np.abs(th - res.theta_true[(i, j)])) > POSE_TOL:
            _fail(f"pair {(i, j)}: program theta {res.theta_true[(i, j)]} != {th}")
        err = np.linalg.norm(log - th, axis=1)
        if np.nanmax(np.abs(err - res.theta_err[(i, j)])) > POSE_TOL:
            _fail(f"pair {(i, j)}: logged theta_err disagrees with the estimates")
        thetas[(i, j)] = th
    for r, e in track.items():
        gap = float(np.max(np.abs(e - res.track_truth[r])))
        if gap > POSE_TOL:
            _fail(f"robot {r}: logged truth tracking error off by {gap:.3g}")
    return thetas


def check_cooploc(res) -> None:
    """Each follower's final leader estimate is the layered composition of
    the final pairwise estimates: sum(p + R q)/n with renormalized rotations."""
    cfg = res.config
    layer, nbrs = layers(cfg.edges, cfg.n_robots)
    pairwise = {}
    for pair, est in res.final_estimators.items():
        th = est.theta_hat
        n = math.hypot(th[5], th[6])
        if n >= TRIG_TOL:
            pairwise[pair] = (np.array(th[:3]), th[5] / n, th[6] / n)
    lead = {0: (np.zeros(3), 1.0, 0.0)}
    for i in sorted(range(1, cfg.n_robots), key=lambda r: layer[r]):
        ins = [(pairwise.get((i, j)), lead.get(j)) for j in nbrs[i]]
        if not ins or any(a is None or b is None for a, b in ins):
            continue  # the program keeps a stale estimate here
        if layer[i] == 1:
            lead[i] = pairwise[(i, 0)]
        else:
            q_sum, c_sum, s_sum = np.zeros(3), 0.0, 0.0
            for (p, c, s), (q, cq, sq) in ins:
                q_sum += p + _rot(c, s, q)
                cc, ss = c * cq - s * sq, s * cq + c * sq
                norm = math.hypot(cc, ss)
                c_sum += cc / norm
                s_sum += ss / norm
            k = len(ins)
            norm = math.hypot(c_sum / k, s_sum / k)
            if norm < TRIG_TOL:
                continue
            lead[i] = (q_sum / k, c_sum / k / norm, s_sum / k / norm)
        got = res.final_lpe.get(i)
        if got is None:
            _fail(f"robot {i}: no leader estimate although its inputs exist")
        q, c, s = lead[i]
        gap = max(float(np.max(np.abs(got.q0_hat - q))),
                  abs(got.Q0_hat.c - c), abs(got.Q0_hat.s - s))
        if gap > COMPOSE_TOL:
            _fail(f"robot {i}: leader estimate off the composition by {gap:.3g}")


def check_screen_events(res) -> tuple[int, int]:
    """One event per pair and tick; a candidate is flagged exactly when
    votes / queue_size exceeds the threshold.  Returns (flagged injected
    outliers, injected outliers)."""
    cfg = res.config
    events = res.outlier_events
    expected = len(res.theta_log) * (res.n_ticks + 1)
    if len(events) != expected:
        _fail(f"{len(events)} screening events, expected {expected}")
    tp = injected = 0
    for k, i, j, d, votes, qsize, verdict, inj in events:
        if cfg.outlier_screening:
            if not 0 <= votes <= qsize <= cfg.judge_capacity:
                _fail(f"tick {k} pair {(i, j)}: votes {votes}, queue {qsize}")
            above = qsize > 0 and votes / qsize > cfg.judge_threshold
            if bool(verdict) != above:
                _fail(f"tick {k} pair {(i, j)}: verdict {verdict} with {votes}/{qsize} votes")
        elif verdict or votes or qsize:
            _fail(f"tick {k} pair {(i, j)}: screening is off but the event is {verdict}")
        if inj:
            injected += 1
            tp += bool(verdict)
    return tp, injected


def check_screen_health(res) -> None:
    """With screening on and outliers injected, every pair's screen accepts
    some clean range and its record does not stay empty.  A screen whose
    queue filled with an outlier rejects every clean range after it."""
    cfg = res.config
    if not cfg.outlier_screening or cfg.noise.outlier_prob <= 0:
        return
    clean_accepted = {pair: 0 for pair in res.theta_log}
    for k, i, j, d, votes, qsize, verdict, inj in res.outlier_events:
        if not verdict and not inj:
            clean_accepted[(i, j)] += 1
    for pair, n in clean_accepted.items():
        if n == 0:
            _fail(f"pair {pair}: the screen accepted no clean range")
        if not res.final_estimators[pair].data.history:
            _fail(f"pair {pair}: the record stayed empty")


def check_run(res) -> RunSummary:
    """All single-run checks; returns the benchmark's own summary of the run."""
    check_record(res)
    traj = trajectories(res)
    check_physics(res, traj)
    track = formation_errors(res, traj)
    thetas = check_truth_scoring(res, track)
    check_cooploc(res)
    tp, injected = check_screen_events(res)
    errs = [tail_mean(np.linalg.norm(res.theta_log[p] - th, axis=1))
            for p, th in sorted(thetas.items())]
    track_max = max(tail_mean(np.linalg.norm(e[:, :3], axis=1)) for e in track.values())
    return RunSummary(errs, track_max, tp, injected)


def check_screening_benefit(cells: list[tuple[float, bool, int, RunSummary]]) -> None:
    """Seed-matched screening comparison per outlier probability.

    cells are (outlier_prob, screening, run seed, summary).  The mean final
    error with screening on is at most the mean with it off, and for
    probabilities up to 0.2 the screen flags more than 80% of the injected
    outliers.
    """
    for p in sorted({c[0] for c in cells}):
        on = {seed: s for q, scr, seed, s in cells if q == p and scr}
        off = {seed: s for q, scr, seed, s in cells if q == p and not scr}
        if set(on) != set(off) or not on:
            _fail(f"p={p}: screening cells are not seed-matched")
        mean_on = float(np.mean([on[s].theta_errs for s in sorted(on)]))
        mean_off = float(np.mean([off[s].theta_errs for s in sorted(off)]))
        if mean_on > mean_off:
            _fail(f"p={p}: screening raised the mean error ({mean_on} > {mean_off})")
        tp = sum(s.flagged_injected for s in on.values())
        injected = sum(s.injected for s in on.values())
        if p <= DETECTION_MAX_PROB and injected and tp / injected <= MIN_DETECTION:
            _fail(f"p={p}: detection success {tp / injected:.3f} <= {MIN_DETECTION}")


def _table(path: Path, header: list[str], rows: int) -> np.ndarray:
    with open(path) as fh:
        got = fh.readline().rstrip("\n").split(",")
    if got != header:
        _fail(f"{path.name}: header {got} != {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows, len(header)):
        _fail(f"{path.name}: shape {data.shape}, expected {(rows, len(header))}")
    return data


def _same(name: str, got: np.ndarray, want: np.ndarray) -> None:
    if not np.array_equal(got, np.asarray(want, dtype=float), equal_nan=True):
        _fail(f"{name}: parsed values differ from the in-memory arrays")


def check_logs(res, outdir: Path) -> None:
    """The written CSVs parse back to exactly the in-memory arrays."""
    T = res.n_ticks
    pairs = sorted(res.theta_log)
    followers = sorted(res.track_truth)
    robots = sorted(res.commands)
    ticks = np.arange(T + 1, dtype=float)

    est = _table(outdir / "estimates.csv",
                 ["tick", "i", "j"] + [f"theta{n}" for n in range(7)]
                 + ["lam_min", "lam_max", "updated", "theta_err"], len(pairs) * (T + 1))
    for b, (i, j) in enumerate(pairs):
        blk = est[b * (T + 1):(b + 1) * (T + 1)]
        want = np.column_stack([ticks, np.full(T + 1, i), np.full(T + 1, j),
                                res.theta_log[(i, j)], res.lam_min[(i, j)],
                                res.lam_max[(i, j)], res.updated[(i, j)],
                                res.theta_err[(i, j)]])
        _same(f"estimates.csv pair {(i, j)}", blk, want)

    trk = _table(outdir / "tracking.csv",
                 ["tick", "robot", "ex", "ey", "ez", "ec", "es",
                  "ex_hat", "ey_hat", "ez_hat", "ec_hat", "es_hat", "q0_err", "q_rt_err"],
                 len(followers) * (T + 1))
    for b, r in enumerate(followers):
        blk = trk[b * (T + 1):(b + 1) * (T + 1)]
        want = np.column_stack([ticks, np.full(T + 1, r), res.track_truth[r],
                                res.track_est[r], res.q0_err[r], res.q_rt_err[r]])
        _same(f"tracking.csv robot {r}", blk, want)

    cmd = _table(outdir / "commands.csv", ["tick", "robot", "v_h", "v_z", "w", "stage"],
                 len(robots) * T)
    for b, r in enumerate(robots):
        blk = cmd[b * T:(b + 1) * T]
        want = np.column_stack([ticks[:-1], np.full(T, r), res.commands[r],
                                res.stage2_flag.astype(float) + 1])
        _same(f"commands.csv robot {r}", blk, want)

    out = _table(outdir / "outliers.csv",
                 ["tick", "i", "j", "d", "votes", "queue_size", "verdict", "injected"],
                 len(res.outlier_events))
    _same("outliers.csv", out, np.array(res.outlier_events, dtype=float))

    summary = (outdir / "summary.csv").read_text().splitlines()
    if len(summary) != 2:
        _fail(f"summary.csv has {len(summary)} lines, expected 2")
    manifest = json.loads((outdir / "manifest.json").read_text())
    if (manifest["seed"], manifest["n_ticks"], manifest["config_hash"]) != \
            (res.seed, T, res.config.config_hash()):
        _fail("manifest.json does not describe the run")
