"""Tests of the benchmark itself: its checks catch corrupted output, and
tracing leaves the program's output unchanged.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from uwbio import harness  # noqa: E402
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark  # noqa: E402
from uwbio.world import Pose4  # noqa: E402

NOISY = replace(workloads.NOISE, outlier_prob=0.1)


@pytest.fixture(scope="module")
def chain_run():
    """A four-robot chain: three layers, so composition is exercised."""
    return harness.run(chain_swarm(4, seed=1, noise=NOISY, duration_s=40.0), seed=1)


@pytest.fixture(scope="module")
def logged_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("logs")
    cfg = replace(four_robot_formation(noise=workloads.NOISE, duration_s=30.0),
                  outlier_screening=False)
    return harness.run_to_dir(cfg, out, seed=3), out


def _copy(res):
    """A deep copy of a run result that corruption can edit freely."""
    import pickle
    return pickle.loads(pickle.dumps(res))


def test_clean_runs_pass_every_check(chain_run, logged_run):
    summary = checks.check_run(chain_run)
    assert len(summary.theta_errs) == 3 and summary.injected > 0
    res, out = logged_run
    checks.check_run(res)
    checks.check_logs(res, out)


def test_theta_matches_program_truth(chain_run):
    robots = {r.id: (r.x, r.y, r.z, r.yaw) for r in chain_run.config.robots}
    for (i, j), th in chain_run.theta_true.items():
        assert np.allclose(checks.theta_true(robots[i], robots[j]), th, atol=1e-12)


def test_traced_run_leaves_outputs_identical(tmp_path):
    ops = [workloads.Operation("mc", two_robot_benchmark(noise=NOISY, duration_s=8.0),
                               5, True, False),
           workloads.Operation("logs", four_robot_formation(noise=workloads.NOISE,
                                                            duration_s=8.0),
                               5, True, True)]
    for n, op in enumerate(ops):
        plain = op.execute(tmp_path / f"plain{n}")
        tracer = tracing.Tracer()
        with tracer:
            traced = op.execute(tmp_path / f"traced{n}")
        assert bench.digest(plain) == bench.digest(traced)
        assert tracer.stats["harness.run"].calls == 1
        assert tracer.stats["regression.DataRecord.add"].calls > 0
        for name in ("estimates.csv", "tracking.csv", "commands.csv", "outliers.csv"):
            if op.writes_logs:
                assert (tmp_path / f"plain{n}" / name).read_bytes() == \
                    (tmp_path / f"traced{n}" / name).read_bytes()
    # Leaving the tracer restores the program's own functions.
    assert not hasattr(harness.run, "__wrapped__")


def test_self_time_excludes_wrapped_callees():
    tracer = tracing.Tracer()
    with tracer:
        harness.run(two_robot_benchmark(noise=NOISY, duration_s=5.0), seed=2)
    st = tracer.stats
    children = sum(s.total_s for name, s in st.items() if name != "harness.run")
    assert st["harness.run"].self_s == pytest.approx(st["harness.run"].total_s - children,
                                                     rel=1e-6)
    screen = st["outliers.JudgeQueue.screen"]
    assert 0 < screen.tally <= screen.calls


def _corrupt_record(res):
    rec = res.final_estimators[(1, 0)].data
    rec.S[0, 0] += 1e-6


def _corrupt_eigenvalue(res):
    res.final_estimators[(2, 1)].data.lambda_min += 1e-6


def _corrupt_regressor(res):
    rec = res.final_estimators[(1, 0)].data
    rec.history[0] = replace(rec.history[0], phi=rec.history[0].phi * 1.001)


def _corrupt_final_pose(res):
    t = res.final_truths[2]
    wp = t.world_pose
    res.final_truths[2] = replace(t, world_pose=Pose4(wp.x + 1e-3, wp.y, wp.z, wp.yaw))


def _corrupt_theta_err(res):
    res.theta_err[(3, 2)][-1] += 1e-3


def _corrupt_truth_tracking(res):
    res.track_truth[3][100, 0] += 1e-3


def _corrupt_leader_estimate(res):
    lpe = res.final_lpe[3]
    res.final_lpe[3] = replace(lpe, q0_hat=lpe.q0_hat + np.array([0.0, 1e-6, 0.0]))


def _corrupt_verdict(res):
    k = next(n for n, ev in enumerate(res.outlier_events) if ev[5] > 0)
    ev = list(res.outlier_events[k])
    ev[6] = not ev[6]
    res.outlier_events[k] = tuple(ev)


def _drop_event(res):
    res.outlier_events.pop()


@pytest.mark.parametrize("corrupt", [
    _corrupt_record, _corrupt_eigenvalue, _corrupt_regressor, _corrupt_final_pose,
    _corrupt_theta_err, _corrupt_truth_tracking, _corrupt_leader_estimate,
    _corrupt_verdict, _drop_event,
])
def test_check_run_catches_corruption(chain_run, corrupt):
    res = _copy(chain_run)
    corrupt(res)
    with pytest.raises(checks.CheckError):
        checks.check_run(res)


def _edit_cell(path):
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-9) if fields[-1] != "nan" else "0.0"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _drop_row(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("name", ["estimates.csv", "tracking.csv", "commands.csv",
                                  "outliers.csv"])
@pytest.mark.parametrize("edit", [_edit_cell, _drop_row])
def test_check_logs_catches_edited_csv(logged_run, tmp_path, name, edit):
    res, out = logged_run
    for f in out.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    edit(tmp_path / name)
    with pytest.raises(checks.CheckError):
        checks.check_logs(res, tmp_path)


def _summary(err, tp=9, injected=10):
    return checks.RunSummary([err], 1.0, tp, injected)


def test_screening_benefit_check():
    good = [(0.1, True, 0, _summary(1.0)), (0.1, False, 0, _summary(5.0)),
            (0.1, True, 1, _summary(2.0)), (0.1, False, 1, _summary(3.0))]
    checks.check_screening_benefit(good)
    worse = [(0.1, True, 0, _summary(7.0))] + good[1:]
    with pytest.raises(checks.CheckError, match="raised the mean error"):
        checks.check_screening_benefit(worse)
    missed = [(p, on, s, _summary(e.theta_errs[0], tp=8)) for p, on, s, e in good]
    with pytest.raises(checks.CheckError, match="detection"):
        checks.check_screening_benefit(missed)
    with pytest.raises(checks.CheckError, match="seed-matched"):
        checks.check_screening_benefit(good[:3])


def test_integrator_matches_program_step():
    """Straight segments and arcs both land where world.step puts them."""
    from uwbio.world import RobotTruth, VelocityCommand, step
    cmds = np.array([[0.3, 0.1, 0.0], [0.3, -0.1, 0.7], [0.0, 0.0, -1.2], [0.5, 0.0, 1e-10]])
    t = RobotTruth.spawn(0, 1.0, -2.0, 0.5, 2.5)
    for v_h, v_z, w in cmds:
        t = step(t, VelocityCommand(v_h, v_z, w), 0.1)
    got = checks.integrate((1.0, -2.0, 0.5, 2.5), cmds, 0.1)[-1]
    want = (t.world_pose.x, t.world_pose.y, t.world_pose.z, t.world_pose.yaw.radians)
    assert np.allclose(got, want, atol=1e-12)


def test_workloads_build_and_validate():
    for w in workloads.WORKLOADS:
        ops = workloads.build(w, 3)
        workloads.validate(ops)
        assert ops == workloads.build(w, 3)
        drawn = {op.seed for op in ops if op.seed >= workloads.drawn_base(3)}
        assert drawn and len(drawn) < len({op.seed for op in ops})
        assert all(op.seed < workloads.drawn_base(0) for op in ops if op.scored)
        assert drawn != {op.seed for op in workloads.build(w, 4)
                         if op.seed >= workloads.drawn_base(4)}
    with pytest.raises(ValueError):
        workloads.build("nope", 0)



def _known_fault_op():
    return next(op for op in workloads.build("mc_outliers", 0) if op.known_fault)


def test_screen_health_check_catches_poisoned_screen(chain_run):
    checks.check_screen_health(chain_run)
    op = _known_fault_op()
    with pytest.raises(checks.CheckError, match="accepted no clean range"):
        checks.check_screen_health(op.execute(None))
    res = _copy(chain_run)
    res.final_estimators[(2, 1)].data.history.clear()
    with pytest.raises(checks.CheckError, match="record stayed empty"):
        checks.check_screen_health(res)


class _Raises:
    label = "raises"
    seed = 0
    writes_logs = False
    known_fault = False

    def execute(self, outdir):
        raise RuntimeError("simulation crashed")


def test_raising_run_is_failed_and_incorrect(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    m = bench.Measurement([_Raises()], drawn_from=workloads.drawn_base(0))
    m.run_pass("w", check=True)
    m.run_pass("w", check=True)
    assert (m.attempted, m.failed, m.correct) == (2, 2, False)


def test_known_fault_fails_every_pass_but_stays_correct(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    op = replace(_known_fault_op(), config=replace(_known_fault_op().config, duration_s=10.0))
    m = bench.Measurement([op], drawn_from=workloads.drawn_base(0))
    for n in range(3):
        m.run_pass("w", check=n > 0)
    assert (m.attempted, m.failed, m.correct) == (3, 3, True)
    # The same failure on an operation not marked as a known fault is not.
    m = bench.Measurement([replace(op, known_fault=False)], drawn_from=workloads.drawn_base(0))
    m.run_pass("w", check=True)
    assert (m.attempted, m.failed, m.correct) == (1, 1, False)
