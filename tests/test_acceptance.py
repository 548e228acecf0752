"""Acceptance suite: the eleven quantitative exit criteria.

Each test prints one PASS line with the measured numbers; the statistical
criteria (5, 8, 9) run seed-matched batches and take a few minutes total.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import circle_cmd, compose, random_dag, random_world_poses, truth_pairwise
from uwbio.config import RandomInit
from uwbio.cooploc import assign_layers
from uwbio.estimation import cl_update_all
from uwbio.harness import run, run_to_dir
from uwbio.metrics import convergence_time, smoothness
from uwbio.regression import MotionProfile, observability_probe
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.sensing import NoiseModel
from uwbio.world import RobotTruth, VelocityCommand

# Pinned from the first noise-free run of the benchmark scenario; guarded by
# a half-second window against numerics drift, exact determinism is covered
# by criterion 11.
PINNED_TWO_ROBOT_CONVERGENCE_S = 40.8

PAIR = (1, 0)


def _ok(n: int, msg: str) -> None:
    print(f"[criterion {n:02d}] PASS: {msg}")


@pytest.fixture(scope="module")
def two_robot_clean():
    return run(replace(two_robot_benchmark(duration_s=120.0), sample_dump=True))


@pytest.fixture(scope="module")
def two_robot_proof():
    return run(replace(two_robot_benchmark(duration_s=120.0), rate_variant="proof"))


@pytest.fixture(scope="module")
def four_robot():
    return run(four_robot_formation())


def test_criterion_01_noise_free_consistency(two_robot_clean):
    """Every accepted sample satisfies y = theta' phi to 1e-9, all scenarios."""
    worst = 0.0
    count = 0
    for res in (two_robot_clean, run(replace(chain_swarm(3, seed=2, duration_s=60.0),
                                             sample_dump=True))):
        for row in res.samples_dump:
            _, i, j = row[0], int(row[1]), int(row[2])
            phi = np.array(row[3:10])
            y = row[10]
            worst = max(worst, abs(phi @ res.theta_true[(i, j)] - y))
            count += 1
    assert count > 2000
    assert worst < 1e-9
    _ok(1, f"max |y - theta.phi| = {worst:.2e} over {count} samples")


def test_criterion_02_estimator_equals_least_squares(two_robot_clean):
    """Iterated update lands on the batch normal-equation solution."""
    rec = two_robot_clean.final_estimators[PAIR].data
    current = two_robot_clean.last_sample[PAIR]
    # The run's record is one row of its bank; the estimate, one row of an
    # array on the bank's pair axis.
    theta = np.zeros((len(rec.bank.n), 7))
    for it in range(5000):
        cl_update_all(theta, rec.bank, [rec.row], current.phi[None], np.array([current.y]))
    batch = np.linalg.solve(rec.phis.T @ rec.phis + np.outer(current.phi, current.phi),
                            rec.phis.T @ rec.ys + current.phi * current.y)
    gap = float(np.linalg.norm(theta[rec.row] - batch))
    assert gap < 1e-6
    truth_gap = float(np.linalg.norm(batch - two_robot_clean.theta_true[PAIR]))
    assert truth_gap < 1e-9   # noise-free: least squares is the truth
    _ok(2, f"|iterated - batch LS| = {gap:.2e} after <= 5000 updates")


def test_criterion_03_contraction_bound(two_robot_proof):
    """Per-update Lyapunov decrement bound with the proof-variant rate."""
    res = two_robot_proof
    err = res.theta_err[PAIR]
    upd = res.updated[PAIR]
    lmin, lmax = res.lam_min[PAIR], res.lam_max[PAIR]
    checked = 0
    worst_slack = -np.inf
    for k in range(1, res.n_ticks + 1):
        if not upd[k]:
            continue
        v_prev = err[k - 1] ** 2
        dv = err[k] ** 2 - v_prev
        bound = -(lmin[k] ** 2) / (1.0 + lmax[k]) ** 2 * v_prev
        assert dv <= bound + 1e-9, f"tick {k}: dv={dv} bound={bound}"
        worst_slack = max(worst_slack, dv - bound)
        checked += 1
    assert checked > 2000
    _ok(3, f"Lyapunov bound held at {checked} updates (worst slack {worst_slack:.2e})")


@pytest.mark.slow
def test_criterion_04_convergence_time_trend(two_robot_clean):
    """Pinned two-robot convergence plus layer-ordered convergence on chains."""
    conv = two_robot_clean.metrics.theta_convergence_s[PAIR]
    assert conv is not None
    assert abs(conv - PINNED_TWO_ROBOT_CONVERGENCE_S) <= 0.5
    # Converged real-time outputs match ground truth well inside 1e-4.
    assert two_robot_clean.q_rt_err[1][-1] < 1e-4
    assert two_robot_clean.trig_rt_err[1][-1] < 1e-4

    layer_times = {}
    for n in (3, 5, 10):
        res = run(chain_swarm(n, seed=7))
        # A common absolute threshold (5% of the layer-1 link) makes layer
        # times comparable; per-node relative thresholds loosen with depth
        # and would invert the ordering as a pure normalization artifact.
        mag = float(np.linalg.norm(res.q0_true[res.graph.nodes_in_layer(1)[0]]))
        per_layer = {}
        for r in res.q0_true:
            errs = np.where(np.isnan(res.q0_err[r]), np.inf, res.q0_err[r])
            t = convergence_time(errs, mag, 0.05, res.dt)
            assert t is not None, f"robot {r} never converged (n={n})"
            layer = res.graph.layers[r]
            per_layer[layer] = max(per_layer.get(layer, 0.0), t)
        times = [per_layer[l] for l in sorted(per_layer)]
        assert all(times[i + 1] >= times[i] - 1e-9 for i in range(len(times) - 1)), \
            f"layer convergence regressed for n={n}: {times}"
        layer_times[n] = times
    _ok(4, f"two-robot 5% convergence at {conv} s (pin {PINNED_TWO_ROBOT_CONVERGENCE_S});"
           f" chain layer times {layer_times}")


@pytest.mark.slow
def test_criterion_05_noise_robustness_trend():
    """Mean final estimation error is monotone nondecreasing in sigma."""
    sigmas = [0.01, 0.05, 0.1, 0.5]
    seeds = 20
    means = []
    for sigma in sigmas:
        errs = []
        for s in range(seeds):
            noise = NoiseModel(sigma_range=sigma, sigma_odom_pos=sigma)
            cfg = two_robot_benchmark(noise=noise, duration_s=90.0,
                                      random_init=RandomInit(radius=3.0, min_sep=0.8))
            res = run(cfg, seed=500 + s)
            errs.append(res.metrics.final_theta_err[PAIR])
        means.append(float(np.mean(errs)))
    assert all(means[i + 1] >= means[i] for i in range(len(means) - 1)), means
    _ok(5, "mean final error over sigma "
           + ", ".join(f"{s}: {m:.3f}" for s, m in zip(sigmas, means)))


def test_criterion_06_cooperative_exactness(rng):
    """Composed leader pose equals direct ground truth on 100 random DAGs."""
    worst = 0.0
    for _ in range(100):
        n, edges = random_dag(rng, max_layers=4)
        g = assign_layers(edges, n)
        truths = random_world_poses(rng, n)
        pw = {(i, j): truth_pairwise(truths, i, j) for (i, j) in g.ordered_pairs()}
        lead, fresh = compose(g, pw)
        assert min(fresh) == 0
        for i in range(1, n):
            direct = truth_pairwise(truths, i, 0)
            worst = max(worst,
                        float(np.linalg.norm(np.subtract(lead[i][:3], direct[:3]))),
                        math.hypot(lead[i][3] - direct[3], lead[i][4] - direct[4]))
    assert worst < 1e-9
    _ok(6, f"composition error over 100 random DAGs: {worst:.2e}")


def test_criterion_07_closed_loop_formation(four_robot):
    """All tracking errors below 0.02 m / 0.02 rad for the final 25 percent."""
    res = four_robot
    assert res.transition_tick is not None
    window = slice(int(0.75 * (res.n_ticks + 1)), None)
    worst_pos, worst_yaw = 0.0, 0.0
    for r, tr in res.track_truth.items():
        pos = np.linalg.norm(tr[window, :3], axis=1)
        yaw = np.abs(np.arctan2(tr[window, 4], 1.0 - tr[window, 3]))
        assert pos.max() < 0.02, f"robot {r} position error {pos.max():.4f}"
        assert yaw.max() < 0.02, f"robot {r} yaw error {yaw.max():.4f}"
        worst_pos, worst_yaw = max(worst_pos, pos.max()), max(worst_yaw, yaw.max())
    _ok(7, f"held formation: worst position {worst_pos:.2e} m, yaw {worst_yaw:.2e} rad "
           f"(stage 2 from {res.transition_tick * res.dt:.1f} s)")


@pytest.mark.slow
def test_criterion_08_outlier_screening_benefit():
    """Seed-matched screening on/off comparison plus detection success."""
    probs = [0.05, 0.1, 0.2, 0.4]
    seeds = 50
    summary = {}
    for p in probs:
        err_on, err_off, tp, injected = [], [], 0, 0
        for s in range(seeds):
            noise = NoiseModel(sigma_range=0.05, sigma_odom_pos=0.05,
                               outlier_prob=p, sigma_outlier=3.0)
            cfg = two_robot_benchmark(noise=noise, duration_s=90.0)
            on = run(cfg, seed=900 + s)
            off = run(replace(cfg, outlier_screening=False), seed=900 + s)
            err_on.append(on.metrics.final_theta_err[PAIR])
            err_off.append(off.metrics.final_theta_err[PAIR])
            det = on.metrics.detection
            tp += det.true_positives
            injected += det.true_positives + det.false_negatives
        mean_on, mean_off = float(np.mean(err_on)), float(np.mean(err_off))
        success = tp / injected
        summary[p] = (mean_on, mean_off, success)
        assert mean_on <= mean_off, f"p={p}: screening hurt ({mean_on} > {mean_off})"
        if p <= 0.2:
            assert success > 0.8, f"p={p}: detection success {success:.3f}"
    _ok(8, "; ".join(f"p={p}: err {v[0]:.2f} (on) vs {v[1]:.2f} (off), detect {v[2]:.2f}"
                     for p, v in summary.items()))


@pytest.mark.slow
def test_criterion_09_smoothness_comparison():
    """Always-excited baseline is strictly rougher than stage-2 tracking."""
    seeds = 20
    margins = []
    for s in range(seeds):
        cfg = two_robot_benchmark(duration_s=120.0,
                                  random_init=RandomInit(radius=3.0, min_sep=0.8))
        two = run(cfg, seed=700 + s)
        # The PE baseline runs no stage-one program.
        lead, follower = cfg.robots
        pe = run(replace(cfg, pe_baseline=True,
                         robots=(replace(lead, c_v=0.0),
                                 replace(follower, r=0.0, c_v=0.0, c_w=0.0))),
                 seed=700 + s)
        k0 = two.transition_tick
        assert k0 is not None
        s_two = smoothness(two.commands[1][k0:], two.commands[0][k0:], two.dt)
        s_pe = smoothness(pe.commands[1][k0:], pe.commands[0][k0:], pe.dt)
        assert s_pe > s_two, f"seed {s}: baseline {s_pe} not rougher than {s_two}"
        margins.append(s_pe / s_two)
        # Sanity on the same run: excitation is rougher than tracking per second.
        s1_rate = smoothness(two.commands[1][:k0], two.commands[0][:k0], two.dt) \
            / (k0 * two.dt)
        s2_rate = s_two / ((two.n_ticks - k0) * two.dt)
        assert s1_rate > s2_rate
    _ok(9, f"baseline rougher on all {seeds} seed-matched runs "
           f"(median ratio {np.median(margins):.1f}x)")


def test_criterion_10_observability_suite():
    """Degenerate motion profiles produce exactly the predicted nullspaces."""
    still = lambda t: VelocityCommand(0.0, 0.0, 0.0)
    obs = RobotTruth.spawn(1, 0, 0, 0, 0.3)
    nbr = RobotTruth.spawn(0, 2, 1, 0, 1.0)

    d_a = observability_probe(MotionProfile(obs, nbr, still, circle_cmd(0.4, 0.0, 0.5)),
                              ticks=100)
    assert set(d_a.zero_rows) >= {0, 1, 2, 5, 6}

    d_b = observability_probe(MotionProfile(obs, nbr, circle_cmd(0.4, 0.2, 0.5), still),
                              ticks=100)
    assert {5, 6} <= set(d_b.zero_rows)

    same = circle_cmd(0.4, 0.2, 0.5)
    d_c = observability_probe(MotionProfile(obs, nbr, same, same), ticks=100)
    assert 2 in d_c.zero_rows

    d_d = observability_probe(
        MotionProfile(obs, nbr, lambda t: VelocityCommand(0.3, 0.05, 0.0),
                      lambda t: VelocityCommand(0.2, -0.03, 0.0)), ticks=100)
    assert d_d.position_block_rank <= 1

    d_e = observability_probe(
        MotionProfile(RobotTruth.spawn(1, 1.5, 1.0, 0, 2.0),
                      RobotTruth.spawn(0, 0, 0, 0, 0),
                      circle_cmd(0.5, 0.3, 0.4), circle_cmd(0.3, 0.1, -0.5)),
        ticks=400, dt=0.1)
    assert d_e.rank == 7 and d_e.lambda_min > 1e-6

    _ok(10, f"zero rows: observer-still {sorted(d_a.zero_rows)}, neighbor-still "
            f"{sorted(d_b.zero_rows)}, matched-motion row 2, straight-line "
            f"position rank {d_d.position_block_rank}; excited rank 7 "
            f"(lambda_min {d_e.lambda_min:.2e})")


def test_criterion_11_determinism(tmp_path):
    """Identical (config, seed) produces byte-identical logs."""
    files = ("summary.csv", "estimates.csv", "tracking.csv", "commands.csv",
             "outliers.csv")
    noisy = two_robot_benchmark(
        noise=NoiseModel(sigma_range=0.05, sigma_odom_pos=0.02, outlier_prob=0.1),
        duration_s=20.0)
    planar = four_robot_formation(duration_s=30.0)
    compared = 0
    for tag, cfg, seed in (("noisy", noisy, 13), ("planar", planar, 4)):
        run_to_dir(cfg, tmp_path / f"{tag}_a", seed=seed)
        run_to_dir(cfg, tmp_path / f"{tag}_b", seed=seed)
        for name in files:
            a = (tmp_path / f"{tag}_a" / name).read_bytes()
            b = (tmp_path / f"{tag}_b" / name).read_bytes()
            assert a == b, f"{tag}/{name} differs between identical runs"
            compared += 1
    _ok(11, f"{compared} log files byte-identical across reruns")
