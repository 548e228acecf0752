import csv
import importlib.util
import json
import math
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uwbio import harness
from uwbio.cli import main as cli_main
from uwbio.config import ConfigError, RandomInit, Saturation
from uwbio.control import ExcitationTimeout, StageTracker
from uwbio.harness import MissingLogs, _apply_axis, report, run, run_to_dir, sweep, write_run
from uwbio.metrics import detection_stats
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.sensing import NoiseModel
from uwbio.world import RobotTruth


def load_benchmark_module(name: str, monkeypatch):
    """Import benchmarks/<name>.py by path, as benchmarks/run.py does."""
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def short_run():
    return run(two_robot_benchmark(duration_s=60.0))


class TestRun:
    def test_noise_free_estimator_converges(self, short_run):
        res = short_run
        assert res.transition_tick is not None
        assert res.theta_err[(1, 0)][-1] < 1e-3
        assert res.metrics.theta_convergence_s[(1, 0)] is not None

    def test_stage_flags_follow_transition(self, short_run):
        res = short_run
        k = res.transition_tick
        assert not res.stage2_flag[:k].any()
        assert res.stage2_flag[k:].all()

    def test_leader_command_switches_to_cruise(self, short_run):
        res = short_run
        k = res.transition_tick
        # During stage one the leader flies its excitation circle.
        assert res.commands[0][k - 1, 2] == pytest.approx(-0.5)
        # Cruise default keeps the same circle as a constant command.
        assert res.commands[0][k + 1, 2] == pytest.approx(-0.5)
        assert res.commands[0][k + 1, 1] == 0.0

    def test_realtime_estimates_track_truth(self, short_run):
        res = short_run
        assert res.q_rt_err[1][-1] < 1e-3
        assert res.trig_rt_err[1][-1] < 1e-3

    def test_timeout_propagates(self):
        cfg = replace(two_robot_benchmark(duration_s=30.0), stage1_timeout_s=5.0)
        with pytest.raises(ExcitationTimeout):
            run(cfg)

    def test_stage_check_stops_at_the_barrier(self, monkeypatch):
        # Once stage two is active the stage check has nothing left to
        # decide: neither the tracker nor the excitation ratios run again.
        calls = {"update": 0, "ratios": 0}
        update, ratios = StageTracker.update, harness.excitation_ratios

        def counted_update(self, *args):
            calls["update"] += 1
            return update(self, *args)

        def counted_ratios(bank):
            calls["ratios"] += 1
            return ratios(bank)

        monkeypatch.setattr(StageTracker, "update", counted_update)
        monkeypatch.setattr(harness, "excitation_ratios", counted_ratios)
        res = run(two_robot_benchmark(duration_s=60.0))
        assert res.transition_tick < res.n_ticks
        assert calls == {"update": res.transition_tick, "ratios": res.transition_tick}

    def test_seed_override_changes_noisy_run(self):
        cfg = two_robot_benchmark(noise=NoiseModel(sigma_range=0.05), duration_s=10.0)
        a = run(cfg, seed=1)
        b = run(cfg, seed=2)
        assert a.ranges.tolist() != b.ranges.tolist()
        assert not np.array_equal(a.theta_err[(1, 0)], b.theta_err[(1, 0)])

    def test_random_init_is_seed_deterministic(self):
        cfg = two_robot_benchmark(duration_s=5.0,
                                  random_init=RandomInit(radius=3.0, min_sep=0.8))
        a, b = run(cfg, seed=5), run(cfg, seed=5)
        assert np.allclose(a.theta_true[(1, 0)], b.theta_true[(1, 0)], atol=0)
        c = run(cfg, seed=6)
        assert not np.allclose(a.theta_true[(1, 0)], c.theta_true[(1, 0)])

    def test_random_init_unplaceable_raises(self):
        # No point of the 1 m square around the leader lies 1 m away from it.
        cfg = chain_swarm(5)
        robots = cfg.robots[:1] + tuple(replace(r, x=0.0, y=0.0, z=0.0, yaw=0.0)
                                        for r in cfg.robots[1:])
        cfg = replace(cfg, robots=robots, random_init=RandomInit(radius=0.5, min_sep=1.0))
        with pytest.raises(ConfigError, match=r"robot \d+ .*min_sep=1\.0.*radius=0\.5"):
            run(cfg)

    def test_random_init_min_sep_is_from_the_leader(self):
        # A leader off the origin: min_sep is measured from where it stands.
        cfg = two_robot_benchmark(duration_s=1.0, random_init=RandomInit(radius=1.0, min_sep=1.0))
        cfg = replace(cfg, robots=(replace(cfg.robots[0], x=0.6),) + cfg.robots[1:])
        for seed in range(40):
            leader, follower = run(cfg, seed=seed).truth[0]
            assert math.hypot(follower[0] - leader[0], follower[1] - leader[1]) >= 1.0


class TestModes:
    def test_truth_feedback_runs_and_tracks(self):
        cfg = replace(four_robot_formation(duration_s=120.0), truth_feedback=True)
        res = run(cfg)
        assert res.metrics.final_tracking_pos[1] < 0.02

    def test_pe_baseline_mode(self):
        cfg = two_robot_benchmark(duration_s=60.0)
        # The PE baseline runs no stage-one program.
        lead, follower = cfg.robots
        cfg = replace(cfg, pe_baseline=True, robots=(replace(lead, c_v=0.0),
                                                     replace(follower, r=0.0, c_v=0.0, c_w=0.0)))
        res = run(cfg)
        # Excitation rides on the commands for the whole run.
        dev = np.linalg.norm(res.commands[1] - res.commands[0], axis=1)
        assert dev[-100:].mean() > 0.05
        # The injected excitation still localizes the pair.
        assert res.theta_err[(1, 0)][-1] < 0.05

    def test_leader_broadcast_mode_noiseless_equivalence(self):
        base = run(two_robot_benchmark(duration_s=20.0))
        alt = run(replace(two_robot_benchmark(duration_s=20.0),
                          leader_odom_broadcast=True))
        # Without noise the measured leader odometry equals the integrated one.
        assert np.allclose(base.theta_err[(1, 0)], alt.theta_err[(1, 0)], atol=1e-12)

    def test_screening_off_skips_judge(self):
        cfg = replace(two_robot_benchmark(duration_s=10.0), outlier_screening=False)
        res = run(cfg)
        assert res.metrics.detection is None
        assert not res.verdict.any()

    def test_saturation_clamps_and_logs(self, tmp_path):
        from uwbio.config import Saturation
        cfg = replace(two_robot_benchmark(duration_s=10.0),
                      saturation=Saturation(v_h_max=0.1, v_z_max=0.05, w_max=0.3))
        res = run(cfg)
        for r, cmd in res.commands.items():
            assert np.abs(cmd[:, 0]).max() <= 0.1 + 1e-12
            assert np.abs(cmd[:, 1]).max() <= 0.05 + 1e-12
            assert np.abs(cmd[:, 2]).max() <= 0.3 + 1e-12
        assert len(res.saturation_events) > 0
        write_run(res, tmp_path)
        assert (tmp_path / "saturation.csv").exists()

    def test_metrics_recomputable_from_logs(self, tmp_path):
        # Metrics are pure post-processing: re-deriving smoothness from the
        # persisted command log reproduces the summary value exactly.
        import csv as csv_mod
        from uwbio.metrics import smoothness
        cfg = two_robot_benchmark(duration_s=60.0)
        res = run_to_dir(cfg, tmp_path)
        series = {0: [], 1: []}
        with open(tmp_path / "commands.csv") as fh:
            for row in csv_mod.DictReader(fh):
                series[int(row["robot"])].append(
                    [float(row["v_h"]), float(row["v_z"]), float(row["w"])])
        recomputed = smoothness(np.array(series[1]), np.array(series[0]), res.dt)
        assert recomputed == res.metrics.smoothness_total[1]


class TestDeterminismAndLogs:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = two_robot_benchmark(
            noise=NoiseModel(sigma_range=0.03, sigma_odom_pos=0.01, outlier_prob=0.1),
            duration_s=20.0)
        run_to_dir(cfg, tmp_path / "a", seed=11)
        run_to_dir(cfg, tmp_path / "b", seed=11)
        for name in ("summary.csv", "estimates.csv", "tracking.csv",
                     "commands.csv", "outliers.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_manifest_contents(self, tmp_path):
        cfg = two_robot_benchmark(duration_s=5.0)
        run_to_dir(cfg, tmp_path, seed=3)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["config"]["name"] == "two_robot_benchmark"

    def test_sample_dump_written(self, tmp_path):
        cfg = replace(two_robot_benchmark(duration_s=5.0), sample_dump=True)
        run_to_dir(cfg, tmp_path)
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0].startswith("tick,i,j,phi0")
        assert len(lines) > 50

    def test_report_exit_codes(self, tmp_path, capsys):
        good = two_robot_benchmark(duration_s=60.0)
        run_to_dir(good, tmp_path / "good")
        assert report(tmp_path / "good") == 0
        capsys.readouterr()

        short = two_robot_benchmark(duration_s=10.0)   # no convergence that fast
        run_to_dir(short, tmp_path / "short")
        assert report(tmp_path / "short") == 1
        capsys.readouterr()

    def test_rerun_removes_stale_optional_logs(self, tmp_path):
        from uwbio.config import Saturation
        cfg = replace(two_robot_benchmark(duration_s=5.0), sample_dump=True,
                      saturation=Saturation(0.1, 0.05, 0.3))
        run_to_dir(cfg, tmp_path)
        assert (tmp_path / "saturation.csv").exists() and (tmp_path / "samples.csv").exists()
        run_to_dir(two_robot_benchmark(duration_s=5.0), tmp_path)
        assert not (tmp_path / "saturation.csv").exists()
        assert not (tmp_path / "samples.csv").exists()

    def test_report_missing_dir_raises(self, tmp_path):
        with pytest.raises(MissingLogs):
            report(tmp_path / "nothing")

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -0.5])
    def test_report_rejects_a_bound_that_is_not_finite_and_nonnegative(self, tmp_path, bound):
        run_to_dir(two_robot_benchmark(duration_s=5.0), tmp_path)
        with pytest.raises(ConfigError, match="max_track_pos must be"):
            report(tmp_path, max_track_pos=bound, require_convergence=False)

    def test_truth_log_holds_every_tick(self):
        """The truth log starts at the initial poses and ends at the final
        truths; q0_true and the leader pairs' theta_true agree at tick 0."""
        res = run(chain_swarm(4, seed=2, duration_s=3.0))
        assert res.truth.shape == (res.n_ticks + 1, 4, 8)
        start = [RobotTruth.from_row(r, row) for r, row in enumerate(res.truth[0])]
        assert start == [RobotTruth.spawn(r.id, r.x, r.y, r.z, r.yaw) for r in res.config.robots]
        assert [RobotTruth.from_row(r, row) for r, row in enumerate(res.truth[-1])] == \
            res.final_truths
        for (i, j), theta in res.theta_true.items():
            if j == 0:
                assert theta[:3].tobytes() == res.q0_true[i].tobytes()

    def test_benchmark_tracer_wraps_and_restores(self, monkeypatch):
        """benchmarks/run.py imports benchmarks/tracing.py on every run, which
        resolves its METHODS at import and its HARNESS_FUNCTIONS on
        uwbio.harness when a Tracer is entered; a refactor that drops one of
        those names breaks every benchmark run."""
        tracing = load_benchmark_module("tracing", monkeypatch)
        before = {name: getattr(harness, name) for name in tracing.HARNESS_FUNCTIONS}
        methods = {(cls, attr): getattr(cls, attr) for cls, attr in tracing.METHODS}
        with tracing.Tracer() as tracer:
            harness.run(two_robot_benchmark(duration_s=1.0))
        assert tracer.stats["harness.run"].calls == 1
        assert all(getattr(harness, name) is fn for name, fn in before.items())
        assert all(getattr(cls, attr) is fn for (cls, attr), fn in methods.items())

    def test_benchmark_checks_read_their_names(self, monkeypatch, tmp_path):
        """benchmarks/checks.py validates every benchmark run through names
        of the run result (final_estimators' records, final_lpe's rotations,
        final_truths' poses, the logs); a refactor that drops one of them
        rejects every benchmark run."""
        checks = load_benchmark_module("checks", monkeypatch)
        noise = NoiseModel(sigma_range=0.05, sigma_odom_pos=0.002, sigma_odom_yaw=0.001)
        screened = run(chain_swarm(4, noise=replace(noise, outlier_prob=0.05), duration_s=20.0))
        assert screened.config.outlier_screening
        checks.check_run(screened)
        checks.check_screen_health(screened)
        logged = run_to_dir(four_robot_formation(noise=noise, duration_s=30.0), tmp_path)
        checks.check_run(logged)
        checks.check_logs(logged, tmp_path)


@pytest.fixture(scope="module")
def screened_run():
    noise = NoiseModel(sigma_range=0.05, sigma_odom_pos=0.002, outlier_prob=0.1)
    return run(chain_swarm(3, seed=1, noise=noise, duration_s=10.0))


class TestScreenLog:
    """The screen is logged as (rows, pairs) arrays; `outlier_events` is a
    list view of them."""

    @pytest.mark.parametrize("screening", [True, False])
    def test_view_is_the_arrays_tick_first(self, screened_run, screening):
        res = screened_run if screening else run(
            replace(screened_run.config, outlier_screening=False))
        pairs = res.graph.ordered_pairs()
        rebuilt = [(k, i, j, float(res.ranges[k, n]), int(res.votes[k, n]),
                    int(res.queue_size[k, n]), bool(res.verdict[k, n]),
                    bool(res.injected[k, n]))
                   for k in range(res.n_ticks + 1) for n, (i, j) in enumerate(pairs)]
        assert res.outlier_events == rebuilt
        types = (int, int, int, float, int, int, bool, bool)
        assert all(tuple(map(type, ev)) == types for ev in res.outlier_events)
        assert res.injected.any()
        assert res.verdict.any() == screening
        if not screening:
            assert not res.votes.any() and not res.queue_size.any()

    def test_view_is_one_list_and_keeps_edits(self, screened_run):
        res = pickle.loads(pickle.dumps(screened_run))
        events = res.outlier_events
        assert res.outlier_events is events
        edited = (*events[0][:6], not events[0][6], events[0][7])
        events[0] = edited
        events.pop()
        assert res.outlier_events[0] == edited
        assert len(res.outlier_events) == res.verdict.size - 1
        assert res.verdict.tolist() == screened_run.verdict.tolist()
        with pytest.raises(AttributeError):
            res.outlier_events = []

    def test_run_to_dir_leaves_the_view_unbuilt(self, tmp_path, monkeypatch):
        def unread(res):
            pytest.fail("the outlier_events view was built")

        monkeypatch.setattr(harness.RunResult, "outlier_events", property(unread))
        noise = NoiseModel(sigma_range=0.05, outlier_prob=0.1)
        res = run_to_dir(two_robot_benchmark(noise=noise, duration_s=5.0), tmp_path)
        assert res.config.outlier_screening and res.verdict.any()
        with open(tmp_path / "outliers.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == res.verdict.size + 1

    def test_detection_stats_from_the_arrays(self, screened_run):
        res = screened_run
        tally = detection_stats((ev[6], ev[7]) for ev in res.outlier_events)
        assert res.metrics.detection == tally
        assert tally.true_positives > 0


class TestSweep:
    def test_noise_axis_seed_matched(self, tmp_path):
        base = two_robot_benchmark(duration_s=30.0)
        result = sweep(base, "noise", [0.0, 0.05], seeds=2, outdir=tmp_path)
        assert not result.failures
        table = result.by_value()
        assert sorted(table) == [0.0, 0.05]
        assert [r["seed"] for r in table[0.0]] == [r["seed"] for r in table[0.05]]
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "cells.csv").exists()

    def test_swarm_size_axis(self):
        base = chain_swarm(3, seed=1, duration_s=20.0)
        result = sweep(base, "swarm_size", [2, 3], seeds=1)
        assert not result.failures
        assert len(result.rows) == 2

    def test_swarm_size_axis_keeps_base_settings(self):
        base = replace(chain_swarm(3, seed=1, duration_s=20.0), outlier_screening=False,
                       hist_cap=32, rate_variant="proof", judge_capacity=20)
        cfg = _apply_axis(base, "swarm_size", 5, seed=4)
        assert (cfg.n_robots, cfg.name, cfg.seed) == (5, "chain_5", 4)
        assert cfg.edges == chain_swarm(5, seed=4).edges
        assert (cfg.outlier_screening, cfg.hist_cap, cfg.rate_variant,
                cfg.judge_capacity) == (False, 32, "proof", 20)
        assert (cfg.noise, cfg.duration_s, cfg.dt) == (base.noise, base.duration_s, base.dt)

    def test_swarm_size_axis_zeroes_the_layout_values_a_base_leaves_inert(self):
        # A planar base holds no c_v or k4, and a random_init base no
        # follower pose; the chain's layout keeps the rest.
        chain = chain_swarm(4, seed=2)
        planar = _apply_axis(four_robot_formation(duration_s=1.0), "swarm_size", 4, seed=2)
        assert planar.mode_2d and planar.gains == replace(chain.gains, k4=0.0)
        assert planar.robots == tuple(replace(r, c_v=0.0) for r in chain.robots)
        drawn = _apply_axis(two_robot_benchmark(duration_s=1.0, random_init=RandomInit()),
                            "swarm_size", 4, seed=2)
        assert drawn.robots == chain.robots[:1] + tuple(
            replace(r, x=0.0, y=0.0, z=0.0, yaw=0.0) for r in chain.robots[1:])
        for base in (four_robot_formation(duration_s=1.0),
                     two_robot_benchmark(duration_s=1.0, random_init=RandomInit())):
            result = sweep(base, "swarm_size", [3], seeds=2)
            assert not result.failures and len(result.rows) == 2

    def test_fractional_swarm_size_is_a_failure(self):
        base = chain_swarm(3, seed=1, duration_s=20.0)
        result = sweep(base, "swarm_size", [4.5], seeds=1)
        assert not result.rows
        assert [(v, "4.5" in err) for v, _, err in result.failures] == [(4.5, True)]

    @pytest.mark.parametrize("axis, value", [("noise", True), ("outlier_prob", "0.1"),
                                             ("swarm_size", "3"), ("swarm_size", True)])
    def test_bool_or_string_axis_value_is_a_failure(self, axis, value):
        # The loader's kinds: neither is coerced to the number it spells.
        result = sweep(two_robot_benchmark(duration_s=1.0), axis, [value], seeds=1)
        assert not result.rows
        assert [(v, f"{axis} must be" in err) for v, _, err in result.failures] == [(value, True)]

    def test_failures_recorded_not_raised(self):
        base = replace(two_robot_benchmark(duration_s=20.0), stage1_timeout_s=2.0)
        result = sweep(base, "noise", [0.0], seeds=1)
        assert len(result.failures) == 1
        assert "ExcitationTimeout" in result.failures[0][2]

    def test_tables_read_back_as_the_result(self, tmp_path):
        """Every field of cells.csv and sweep.csv reads back as its value:
        a float by value, None as empty, an int or a string as its own
        text; failures.csv holds each error's repr through csv quoting."""
        def reads_back(text, value):
            if value is None:
                return text == ""
            if type(value) is float:
                return float(text) == value or math.isnan(value) and math.isnan(float(text))
            return type(value) in (int, str) and text == str(value)

        def read(name):
            with open(tmp_path / name, newline="") as fh:
                return list(csv.reader(fh))

        base = chain_swarm(3, seed=1, duration_s=10.0)
        result = sweep(base, "swarm_size", [2, 4.5], seeds=2, outdir=tmp_path)
        assert len(result.rows) == 2 and len(result.failures) == 2
        header, *cells = read("cells.csv")
        assert len(cells) == len(result.rows)
        for fields, row in zip(cells, result.rows):
            assert sorted(header) == sorted(row)
            assert all(reads_back(t, row[h]) for h, t in zip(header, fields)), fields
        header, *table = read("sweep.csv")
        assert header == ["axis", "value", "n_runs", "final_theta_err_mean",
                          "final_theta_err_std", "theta_conv_mean_s", "n_not_converged"]
        [(value, cell)] = result.by_value().items()
        errs = [r["final_theta_err_mean"] for r in cell]
        convs = [r["theta_conv_max_s"] for r in cell if r["theta_conv_max_s"] is not None]
        expected = ["swarm_size", value, len(cell), float(np.mean(errs)), float(np.std(errs)),
                    float(np.mean(convs)) if convs else None, len(cell) - len(convs)]
        assert len(table) == 1 and len(table[0]) == len(expected)
        assert all(reads_back(t, v) for t, v in zip(table[0], expected)), table
        header, *failed = read("failures.csv")
        assert header == ["value", "seed", "error"]
        assert len(failed) == len(result.failures)
        for fields, failure in zip(failed, result.failures):
            assert all(reads_back(t, v) for t, v in zip(fields, failure)), fields
            assert fields[2] == failure[2] and "," in fields[2]

    def test_rerun_removes_stale_tables(self, tmp_path):
        timeout = replace(two_robot_benchmark(duration_s=5.0), stage1_timeout_s=1.0)
        sweep(two_robot_benchmark(duration_s=5.0), "noise", [0.0], seeds=1, outdir=tmp_path)
        sweep(timeout, "noise", [0.0], seeds=1, outdir=tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["failures.csv"]
        sweep(two_robot_benchmark(duration_s=5.0), "noise", [0.0], seeds=1, outdir=tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cells.csv", "sweep.csv"]
        # The 5 s cell has not converged; only the stale failures.csv is under test.
        assert report(tmp_path, require_convergence=False) == 0

    def test_run_after_sweep_is_reported_as_the_run(self, tmp_path, capsys):
        sweep(two_robot_benchmark(duration_s=5.0), "noise", [0.0], seeds=1, outdir=tmp_path)
        run_to_dir(two_robot_benchmark(duration_s=10.0), tmp_path)
        assert not {"cells.csv", "sweep.csv"} & {f.name for f in tmp_path.iterdir()}
        capsys.readouterr()
        assert report(tmp_path) == 1          # the 10 s run has not converged
        assert "estimator convergence" in capsys.readouterr().out

    def test_sweep_after_run_leaves_only_the_sweep(self, tmp_path):
        cfg = replace(two_robot_benchmark(duration_s=5.0), saturation=Saturation(0.1, 0.05, 0.3),
                      sample_dump=True)
        run_to_dir(cfg, tmp_path)
        assert {"saturation.csv", "samples.csv"} <= {f.name for f in tmp_path.iterdir()}
        sweep(two_robot_benchmark(duration_s=5.0), "noise", [0.0], seeds=1, outdir=tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cells.csv", "sweep.csv"]

    def test_report_applies_the_thresholds_to_every_cell(self, tmp_path, capsys):
        # At 45 s the noiseless cell converges (40.8 s); at 5 s it does not.
        sweep(two_robot_benchmark(duration_s=45.0), "noise", [0.0], seeds=1, outdir=tmp_path)
        assert report(tmp_path) == 0
        assert report(tmp_path, max_track_pos=0.1) == 1
        assert report(tmp_path, max_track_pos=10.0) == 0
        sweep(two_robot_benchmark(duration_s=5.0), "noise", [0.0], seeds=1, outdir=tmp_path)
        capsys.readouterr()
        assert report(tmp_path) == 1
        assert "cells failing the thresholds: 1 of 1" in capsys.readouterr().out
        assert report(tmp_path, require_convergence=False) == 0

    def test_report_prints_a_sweep_where_every_cell_failed(self, tmp_path, capsys):
        timeout = replace(two_robot_benchmark(duration_s=5.0), stage1_timeout_s=1.0)
        result = sweep(timeout, "noise", [0.0, 0.01], seeds=1, outdir=tmp_path)
        assert not result.rows and len(result.failures) == 2
        capsys.readouterr()
        assert report(tmp_path) == 1
        printed = capsys.readouterr().out
        assert "failures:" in printed and printed.count("ExcitationTimeout") == 2

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(two_robot_benchmark(), "bogus", [1], seeds=1)

    @pytest.mark.parametrize("values, seeds, name", [
        ([], 2, "values"), ([0.0], 0, "seeds"), ([0.0], -3, "seeds"), ([0.0], 1.5, "seeds"),
    ])
    def test_empty_grid_raises_before_any_write(self, tmp_path, values, seeds, name):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=name):
            sweep(two_robot_benchmark(duration_s=1.0), "noise", values, seeds, outdir=out)
        assert not out.exists()


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=60.0).save(cfg_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        capsys.readouterr()
        assert cli_main(["report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "estimator convergence" in printed

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=5.0).save(cfg_path)
        monkeypatch.setenv("UWBIO_OUT", str(tmp_path / "envout"))
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "summary.csv").exists()
        capsys.readouterr()

    def test_sweep_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=10.0).save(cfg_path)
        out = tmp_path / "sweepout"
        code = cli_main(["sweep", "--config", str(cfg_path), "--axis", "noise",
                         "--values", "0.0,0.01", "--seeds", "1", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        # Neither 10 s cell converges, so report passes only when allowed to.
        assert cli_main(["report", str(out)]) == 1
        assert cli_main(["report", str(out), "--allow-unconverged"]) == 0
        capsys.readouterr()

    @staticmethod
    def usage_error(argv, capsys) -> str:
        """The one stderr line of a command that exits 2 on bad input."""
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("uwbio: error: ") and err.count("\n") == 1, err
        return err

    def test_run_config_without_dt_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        data = json.loads(cfg_path.read_text())
        del data["dt"]
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        err = self.usage_error(["run", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert "'dt'" in err
        assert not out.exists()

    def test_run_config_with_a_repeated_key_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        text = cfg_path.read_text()
        assert text.count('"dt": 0.05,') == 1
        cfg_path.write_text(text.replace('"dt": 0.05,', '"dt": 0.05, "dt": 0.1,'))
        out = tmp_path / "out"
        err = self.usage_error(["run", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert "'dt' appears twice" in err
        assert not out.exists()

    def test_run_negative_seed_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        out = tmp_path / "out"
        err = self.usage_error(["run", "--config", str(cfg_path), "--seed", "-1",
                                "--out", str(out)], capsys)
        assert "seed must be >= 0" in err
        assert not out.exists()

    def test_sweep_cli_without_seeds_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        out = tmp_path / "sweepout"
        err = self.usage_error(["sweep", "--config", str(cfg_path), "--axis", "noise",
                                "--values", "0.0", "--seeds", "0", "--out", str(out)], capsys)
        assert "seeds" in err
        assert not out.exists()

    def test_report_bound_must_be_finite_and_nonnegative(self, tmp_path, capsys):
        run_to_dir(two_robot_benchmark(duration_s=5.0), tmp_path)
        assert cli_main(["report", str(tmp_path), "--max-track-pos", "0",
                         "--allow-unconverged"]) == 1
        for bound in ("nan", "inf", "-1"):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                cli_main(["report", str(tmp_path), f"--max-track-pos={bound}",
                          "--allow-unconverged"])
            assert exc.value.code == 2
            assert "--max-track-pos: expected a finite number >= 0" in capsys.readouterr().err

    def test_report_without_logs_is_an_error(self, tmp_path, capsys):
        err = self.usage_error(["report", str(tmp_path)], capsys)
        assert "no summary.csv" in err

    def test_run_missing_config_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        err = self.usage_error(["run", "--config", str(tmp_path / "missing.json"),
                                "--out", str(out)], capsys)
        assert "No such file or directory" in err and "missing.json" in err
        assert not out.exists()

    def test_run_config_directory_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        err = self.usage_error(["run", "--config", str(tmp_path), "--out", str(out)], capsys)
        assert "Is a directory" in err
        assert not out.exists()

    def test_scenario_into_missing_directory_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "nonexistent" / "x.json"
        err = self.usage_error(["scenario", "two_robot_benchmark", str(path)], capsys)
        assert "No such file or directory" in err
        assert not path.parent.exists()

    @staticmethod
    def no_runs(monkeypatch) -> list:
        """Make `harness.run` record its call and raise; returns the record."""
        calls = []

        def forbidden_run(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the output directory is checked before any run")

        monkeypatch.setattr(harness, "run", forbidden_run)
        return calls

    def test_run_out_under_a_file_is_an_error(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        calls = self.no_runs(monkeypatch)
        err = self.usage_error(["run", "--config", str(cfg_path),
                                "--out", str(afile / "sub")], capsys)
        assert "Not a directory" in err
        assert afile.read_text() == "not a directory\n"
        assert calls == []

    def test_sweep_out_under_a_file_is_an_error(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        calls = self.no_runs(monkeypatch)
        err = self.usage_error(["sweep", "--config", str(cfg_path), "--axis", "noise",
                                "--values", "0.0,0.01", "--seeds", "2",
                                "--out", str(afile / "sub")], capsys)
        assert "Not a directory" in err
        assert afile.read_text() == "not a directory\n"
        assert calls == []

    def test_run_one_robot_config_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        data = json.loads(cfg_path.read_text())
        data.update(robots=data["robots"][:1], edges=[], formation={})
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        err = self.usage_error(["run", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert "robots" in err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0.0,", "", "a,0.1", "nan", "0.1,inf"])
    def test_sweep_cli_bad_values_is_a_usage_error(self, tmp_path, capsys, values):
        cfg_path = tmp_path / "cfg.json"
        two_robot_benchmark(duration_s=1.0).save(cfg_path)
        out = tmp_path / "sweepout"
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(cfg_path), "--axis", "noise",
                      "--values", values, "--seeds", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --values:" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_subcommand(self, tmp_path, capsys):
        from uwbio.config import load_config
        path = tmp_path / "four.json"
        assert cli_main(["scenario", "four_robot_formation", str(path)]) == 0
        capsys.readouterr()
        assert load_config(path).name == "four_robot_formation"

    def test_missing_out_dir_errors(self, tmp_path, monkeypatch, capsys):
        # A usage error, raised before the config loads: the file named
        # here does not exist.
        monkeypatch.delenv("UWBIO_OUT", raising=False)
        cfg_path = str(tmp_path / "missing.json")
        for argv in (["run", "--config", cfg_path],
                     ["sweep", "--config", cfg_path, "--axis", "noise", "--values", "0.0"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            assert ("uwbio: error: no output directory: pass --out or set UWBIO_OUT"
                    in capsys.readouterr().err)
