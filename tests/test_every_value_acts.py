"""No config value without an effect.

A value that the rest of its config leaves inert is rejected, with one
ConfigError naming its key and the condition that makes it inert; and every
value a config accepts acts.  The walk below changes each leaf of a few
short configs in turn, through the `_FIELDS` tree `to_dict` writes, and
checks that the change moves a byte of some file `write_run` writes
(`manifest.json` and the `config_hash` column of `summary.csv` aside, which
change with any value), raises a ConfigError naming the key, or raises
another error (an `ExcitationTimeout`, say, for a halved
`stage1_timeout_s`).  Between them the configs reach stage 2, screening on
and off, drawn outliers, 3D and planar runs, the PE baseline, random_init
and active saturation.
"""

import copy
import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

from test_config import set_key
from test_golden import NOISE
from uwbio.config import ConfigError, RandomInit, RobotConfig, Saturation, config_from_dict
from uwbio.estimation import RATE_VARIANTS
from uwbio.harness import run_to_dir
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.world import VelocityCommand


def screened_3d():
    """Two robots in 3D: drawn outliers and a small judge queue, stage 2 at
    tick 130 under a cruise with a v_z, clamped commands, a stage-one
    timeout that halving trips, and the sample dump."""
    cfg = two_robot_benchmark(noise=replace(NOISE, outlier_prob=0.1), duration_s=10.0)
    return replace(cfg, excitation_threshold=0.02, hist_cap=16, judge_capacity=5,
                   stage1_timeout_s=7.0, leader_cruise=VelocityCommand(0.2, 0.1, 0.3),
                   saturation=Saturation(0.3, 0.2, 0.6), sample_dump=True)


def planar_unscreened():
    """The planar formation without outliers or screening: stage 2 at tick
    78, clamped commands with no v_z clamp."""
    cfg = four_robot_formation(noise=NOISE, duration_s=10.0)
    return replace(cfg, excitation_threshold=0.01, hist_cap=16, outlier_screening=False,
                   saturation=Saturation(0.3, None, 0.6))


def excited_drawn():
    """A three-robot chain under the PE baseline (stage-two commands from
    the first tick, the excitation threshold met at tick 85), drawn follower
    poses and the broadcast leader odometry."""
    cfg = chain_swarm(3, seed=4, noise=NOISE, duration_s=5.0)
    robots = (replace(cfg.robots[0], c_v=0.0), RobotConfig(1), RobotConfig(2))
    return replace(cfg, robots=robots, excitation_threshold=0.05, hist_cap=16,
                   pe_baseline=True, leader_odom_broadcast=True,
                   random_init=RandomInit(2.0, 1.5))


def excited_cruising():
    """`excited_drawn` with a set leader cruise, so the leader holds no
    circle."""
    cfg = excited_drawn()
    lead = replace(cfg.robots[0], r=0.0, c_w=0.0)
    return replace(cfg, robots=(lead, *cfg.robots[1:]),
                   leader_cruise=VelocityCommand(0.2, 0.0, 0.3))


def leaves(tree, path=()):
    """(path, value) of every leaf of a `to_dict` tree: every scalar and
    null, by its keys and list indices."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from leaves(value, path + (key,))
    else:
        yield path, tree


def changed(value):
    """Another value of the same kind: a flag flipped, an int plus one, a
    real halved (0.1 for a zero), the other rate variant or a longer name,
    and 0.1 for a null."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.1
    if value in RATE_VARIANTS:
        return next(v for v in RATE_VARIANTS if v != value)
    if isinstance(value, str):
        return value + "_"
    return 0.1


def outputs(cfg, outdir: Path) -> tuple:
    """The run of `cfg` and every file `run_to_dir` writes for it but
    `manifest.json`, by name, with summary.csv's config_hash column left
    out."""
    res = run_to_dir(cfg, outdir)
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name == "summary.csv":
            rows = list(csv.reader(io.StringIO(path.read_text())))
            col = rows[0].index("config_hash")
            out[path.name] = [row[:col] + row[col + 1:] for row in rows]
        elif path.name != "manifest.json":
            out[path.name] = path.read_bytes()
    return res, out


WALKED = {"screened_3d": screened_3d, "planar_unscreened": planar_unscreened,
          "excited_drawn": excited_drawn}


@pytest.mark.parametrize("name", sorted(WALKED))
def test_every_value_acts(name, tmp_path):
    cfg = WALKED[name]()
    res, want = outputs(cfg, tmp_path / "base")
    # The walk reaches what it is meant to.
    assert res.transition_tick is not None
    if cfg.noise.outlier_prob:
        assert res.injected.any()
    if cfg.saturation is not None:
        assert res.saturation_events
    tree = cfg.to_dict()
    inert = []
    for n, (path, value) in enumerate(leaves(tree)):
        if path == ("schema_version",):
            continue
        key = ".".join(map(str, path))
        try:
            moved = outputs(config_from_dict(set_key(copy.deepcopy(tree), path, changed(value))),
                            tmp_path / str(n))[1] != want
        except ConfigError as exc:
            # The key itself, or the list or record it belongs to (the
            # topology check reads `edges` as a whole).
            moved = any(".".join(map(str, path[:k])) in str(exc)
                        for k in range(len(path), 0, -1))
        except Exception:   # any other error is an effect too
            moved = True
        if not moved:
            inert.append(f"{key}: {value!r} -> {changed(value)!r}")
    assert inert == []


# (config, dotted key, value, the condition named): each value the rest of
# its config leaves inert, set away from its default.
INERT = [
    (two_robot_benchmark, "pe_excitation.amplitude", 0.3, "flags.pe_baseline is false"),
    (two_robot_benchmark, "pe_excitation.frequency", 2.0, "flags.pe_baseline is false"),
    (excited_drawn, "robots.0.c_v", 0.1, "flags.pe_baseline is true"),
    (excited_drawn, "robots.2.r", 0.4, "flags.pe_baseline is true"),
    (excited_drawn, "robots.1.c_v", 0.1, "flags.pe_baseline is true"),
    (excited_drawn, "robots.1.c_w", 0.5, "flags.pe_baseline is true"),
    (excited_cruising, "robots.0.r", 0.4, "flags.pe_baseline is true and leader_cruise is set"),
    (excited_cruising, "robots.0.c_w", 0.4,
     "flags.pe_baseline is true and leader_cruise is set"),
    (planar_unscreened, "judge.capacity", 5, "flags.outlier_screening is false"),
    (planar_unscreened, "judge.threshold", 0.6, "flags.outlier_screening is false"),
    (two_robot_benchmark, "noise.sigma_outlier", 1.0, "noise.outlier_prob is 0"),
    (excited_drawn, "robots.1.x", 1.5, "random_init is set"),
    (excited_drawn, "robots.2.y", -1.0, "random_init is set"),
    (excited_drawn, "robots.1.z", 0.2, "random_init is set"),
    (excited_drawn, "robots.2.yaw", 2.0, "random_init is set"),
    (four_robot_formation, "robots.2.c_v", 0.1, "mode_2d is true"),
    (four_robot_formation, "gains.k4", 0.2, "mode_2d is true"),
    (four_robot_formation, "leader_cruise.v_z", 0.1, "mode_2d is true"),
    (planar_unscreened, "saturation.v_z_max", 0.2, "mode_2d is true"),
]


class TestInertRules:
    @pytest.mark.parametrize("build, key, value, when", INERT,
                             ids=[f"{key}-{when}" for _, key, _, when in INERT])
    def test_inert_value_names_its_key_and_condition(self, build, key, value, when):
        path = tuple(int(p) if p.isdigit() else p for p in key.split("."))
        d = set_key(build().to_dict(), path, value)
        with pytest.raises(ConfigError, match=f"^{key} has no effect while {when}: "):
            config_from_dict(d)

    def test_python_config_raises_the_same_error(self):
        cfg = replace(two_robot_benchmark(), outlier_screening=False)
        with pytest.raises(ConfigError) as from_python:
            replace(cfg, judge_capacity=10)
        d = set_key(cfg.to_dict(), ("judge", "capacity"), 10)
        with pytest.raises(ConfigError) as from_file:
            config_from_dict(d)
        assert str(from_python.value) == str(from_file.value) == (
            "judge.capacity has no effect while flags.outlier_screening is false: "
            "it must be 20, got 10")

    def test_negative_zero_counts_as_zero(self):
        # The planar command pass zeroes v_z, so -0.0 writes what 0.0 does.
        cfg = four_robot_formation()
        replace(cfg, gains=replace(cfg.gains, k4=-0.0))

    def test_saturation_v_z_max_is_null_exactly_in_planar_runs(self):
        d = four_robot_formation().to_dict()
        d["saturation"] = {"v_h_max": 0.3, "w_max": 0.6}
        assert config_from_dict(d).saturation == Saturation(0.3, None, 0.6)
        d = two_robot_benchmark().to_dict()
        d["saturation"] = {"v_h_max": 0.3, "v_z_max": None, "w_max": 0.6}
        with pytest.raises(ConfigError, match=r"^saturation\.v_z_max must be a number "
                                              r"unless mode_2d is true"):
            config_from_dict(d)
