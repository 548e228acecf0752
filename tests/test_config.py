import json
import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from test_golden import GOLDEN
from uwbio.config import (_FIELDS, ConfigError, PEBaselineConfig, RandomInit, RobotConfig,
                          Saturation, ScenarioConfig, config_from_dict, load_config)
from uwbio.control import ControlGains
from uwbio.harness import _offsets, run
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.sensing import NoiseModel
from uwbio.world import VelocityCommand


def set_key(d: dict, path: tuple, value) -> dict:
    """`d` with the value at `path` (keys and list indices) replaced."""
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


def loaded(path: tuple, value) -> ScenarioConfig:
    """two_robot_benchmark with `value` at `path` of its dict, loaded."""
    return config_from_dict(set_key(two_robot_benchmark().to_dict(), path, value))


# The ScenarioConfig field at each top-level or flag path of the dict.
FIELD_AT = {path: name for name, (path, _) in _FIELDS.items()}


def replaced(path: tuple, value) -> ScenarioConfig:
    """two_robot_benchmark with `value` set by `replace` on the field at
    the top-level or flag `path` of its dict, or on the field of the record
    (noise, gains, ...) that the path names."""
    cfg = two_robot_benchmark()
    if ".".join(path) in FIELD_AT:
        return replace(cfg, **{FIELD_AT[".".join(path)]: value})
    record, key = path
    return replace(cfg, **{record: replace(getattr(cfg, record), **{key: value})})


def builders(path: tuple) -> list:
    """Each way to build a config with a value at `path` of its dict:
    loading the dict, and `replace` where the path names a field or a field
    of a record the config holds."""
    nested = len(path) == 2 and is_dataclass(getattr(two_robot_benchmark(), path[0], None))
    return [loaded, replaced] if ".".join(path) in FIELD_AT or nested else [loaded]


class TestRoundTrip:
    # Every canned scenario and every golden config, through its JSON text.
    @pytest.mark.parametrize("cfg", [two_robot_benchmark(), four_robot_formation(),
                                     chain_swarm(5, seed=3),
                                     *(GOLDEN[name][0]() for name in sorted(GOLDEN))])
    def test_dict_round_trip(self, cfg):
        clone = config_from_dict(json.loads(cfg.canonical_json()))
        assert clone == cfg
        assert clone.config_hash() == cfg.config_hash()

    def test_file_round_trip(self, tmp_path):
        cfg = two_robot_benchmark(seed=17)
        path = tmp_path / "scenario.json"
        cfg.save(path)
        assert load_config(path) == cfg

    def test_hash_tracks_content(self):
        a = two_robot_benchmark(seed=1)
        b = two_robot_benchmark(seed=2)
        assert a.config_hash() != b.config_hash()

    def test_random_init_round_trip(self):
        cfg = two_robot_benchmark(random_init=RandomInit(radius=3.0, min_sep=0.5))
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_saturation_round_trip(self):
        from dataclasses import replace
        from uwbio.config import Saturation
        cfg = replace(two_robot_benchmark(),
                      saturation=Saturation(v_h_max=0.5, v_z_max=0.2, w_max=1.0))
        assert config_from_dict(cfg.to_dict()) == cfg
        d = cfg.to_dict()
        d["saturation"]["v_h_max"] = 0.0
        for build in (lambda: replace(cfg, saturation=Saturation(v_h_max=0.0, v_z_max=0.2,
                                                                 w_max=1.0)),
                      lambda: config_from_dict(d)):
            with pytest.raises(ConfigError, match=r"saturation\.v_h_max must be > 0"):
                build()


class TestValidation:
    def test_unknown_top_level_key(self):
        d = two_robot_benchmark().to_dict()
        d["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            config_from_dict(d)

    def test_unknown_nested_key(self):
        d = two_robot_benchmark().to_dict()
        d["noise"]["sigma_rnage"] = 0.1
        with pytest.raises(ConfigError, match="sigma_rnage"):
            config_from_dict(d)

    def test_schema_version_checked(self):
        d = two_robot_benchmark().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(d)

    def test_missing_required_key(self):
        d = two_robot_benchmark().to_dict()
        del d["dt"]
        with pytest.raises(ConfigError, match="dt"):
            config_from_dict(d)

    def test_unreachable_topology_rejected(self):
        d = two_robot_benchmark().to_dict()
        d["edges"] = []
        with pytest.raises(Exception):
            config_from_dict(d)

    def test_one_robot_rejected(self):
        # A lone leader has no pair to estimate; the run would fail at once.
        cfg = two_robot_benchmark()
        with pytest.raises(ConfigError, match="robots"):
            replace(cfg, robots=cfg.robots[:1], edges=(), formation={})

    def test_one_robot_rejected_at_load(self):
        d = two_robot_benchmark().to_dict()
        d.update(robots=d["robots"][:1], edges=[], formation={})
        with pytest.raises(ConfigError, match="robots"):
            config_from_dict(d)

    def test_bad_dt(self):
        d = two_robot_benchmark().to_dict()
        d["dt"] = -0.1
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_bad_threshold(self):
        d = two_robot_benchmark().to_dict()
        d["excitation_threshold"] = 1.5
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_bad_gain(self):
        d = two_robot_benchmark().to_dict()
        d["gains"]["k1"] = 0.0
        with pytest.raises(ConfigError, match=r"gains\.k1 must be > 0"):
            config_from_dict(d)

    def test_repeated_edge_rejected(self):
        # The pair would run once, under another config_hash.
        with pytest.raises(ConfigError, match=r"^edges: edge \(1, 0\) appears twice"):
            replace(two_robot_benchmark(), edges=((1, 0), (1, 0)))
        # An edge that layer assignment prunes is not repeated: the
        # diamond's sideways (2, 1) stays.
        replace(chain_swarm(4), edges=((1, 0), (2, 0), (2, 1), (3, 1), (3, 2)))

    def test_formation_for_unknown_robot(self):
        d = two_robot_benchmark().to_dict()
        d["formation"]["9"] = [1.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match=r"^formation\.9: offset for unknown robot 9"):
            config_from_dict(d)

    def test_formation_for_the_leader_names_its_key(self):
        d = two_robot_benchmark().to_dict()
        d["formation"]["0"] = [1.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match=r"^formation\.0: .*the leader, must be zero"):
            config_from_dict(d)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("cfg", [
        replace(two_robot_benchmark(), dt=1),
        replace(two_robot_benchmark(), saturation=Saturation(1, 2, 3)),
        two_robot_benchmark(noise=NoiseModel(sigma_range=0)),
    ], ids=["dt", "saturation", "noise"])
    def test_ints_in_real_fields_hash_as_floats(self, cfg):
        clone = config_from_dict(json.loads(cfg.canonical_json()))
        assert clone == cfg
        assert clone.config_hash() == cfg.config_hash()

    def test_codec_covers_every_field(self):
        # A field missing from the table would be left out of the saved
        # config and of its hash.
        assert sorted(_FIELDS) == sorted(f.name for f in fields(ScenarioConfig))

    def test_canonical_json_is_stable(self):
        cfg = two_robot_benchmark()
        assert cfg.canonical_json() == cfg.canonical_json()
        json.loads(cfg.canonical_json())


class TestStrictValues:
    """Values of the wrong kind are rejected, never coerced, whether the
    config is loaded or built in Python."""

    @pytest.mark.parametrize("path", [("mode_2d",), ("sample_dump",),
                                      ("flags", "outlier_screening"),
                                      ("flags", "truth_feedback")])
    @pytest.mark.parametrize("value", ["false", "no", 0])
    def test_non_bool_flag_rejected(self, path, value):
        for build in builders(path):
            with pytest.raises(ConfigError, match=f"{path[-1]} must be bool"):
                build(path, value)

    @pytest.mark.parametrize("path, value", [(("hist_cap",), 64.9),
                                             (("seed",), 1.7),
                                             (("judge", "capacity"), 5.5),
                                             (("seed",), "3"),
                                             (("hist_cap",), True)])
    def test_non_integral_int_rejected(self, path, value):
        for build in builders(path):
            with pytest.raises(ConfigError, match="must be int"):
                build(path, value)

    def test_integral_float_loads_as_int(self):
        d = two_robot_benchmark().to_dict()
        d["hist_cap"] = 32.0
        cfg = config_from_dict(d)
        assert cfg.hist_cap == 32 and isinstance(cfg.hist_cap, int)

    def test_integral_float_int_field_keeps_the_hash(self):
        # Configs that compare equal hash equal, int fields included.
        cfg = two_robot_benchmark()
        clone = replace(cfg, hist_cap=float(cfg.hist_cap))
        assert type(clone.hist_cap) is int
        assert clone == cfg
        assert clone.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("timeout", [-5.0, 0.0])
    def test_nonpositive_stage1_timeout_rejected(self, timeout):
        d = two_robot_benchmark().to_dict()
        d["stage1_timeout_s"] = timeout
        with pytest.raises(ConfigError, match="stage1_timeout_s"):
            config_from_dict(d)

    @pytest.mark.parametrize("path, value", [(("dt",), "0.05"),
                                             (("noise", "sigma_range"), True),
                                             (("gains", "k1"), "1"),
                                             (("judge", "threshold"), "0.5"),
                                             (("noise", "sigma_range"), "0.1"),
                                             (("pe_excitation", "amplitude"), "0.1")])
    def test_non_number_float_rejected(self, path, value):
        # A value of a record also goes through `replace` on that record.
        for build in builders(path):
            with pytest.raises(ConfigError, match=f"{path[-1]} must be a number"):
                build(path, value)

    def test_non_number_robot_field_rejected(self):
        cfg = two_robot_benchmark()
        with pytest.raises(ConfigError, match=r"robots\.1\.x must be a number"):
            loaded(("robots", 1, "x"), "1.5")
        with pytest.raises(ConfigError, match=r"robots\.1\.x must be a number"):
            replace(cfg, robots=(cfg.robots[0], replace(cfg.robots[1], x="1.5")))

    def test_non_str_name_rejected(self):
        for build in builders(("name",)):
            with pytest.raises(ConfigError, match="name must be str"):
                build(("name",), 7)

    @pytest.mark.parametrize("key", ["dt", "duration_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, key, value):
        d = two_robot_benchmark().to_dict()
        d[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
            config_from_dict(d)

    def test_non_integer_formation_key_rejected(self):
        d = four_robot_formation().to_dict()
        d["formation"]["1.0"] = d["formation"].pop("1")
        with pytest.raises(ConfigError, match="formation key '1.0'"):
            config_from_dict(d)

    @pytest.mark.parametrize("key", [" 1", "+1", "01", "\uff11", "-1", "1 ", "1" * 5000],
                             ids=["space", "plus", "zero", "full_width", "minus", "trailing",
                                  "too_long_for_int"])
    def test_non_canonical_formation_key_rejected(self, key):
        # Each of these names robot 1 (or -1) to int(), or is too long for
        # it; only str(id) is a key.
        d = four_robot_formation().to_dict()
        d["formation"][key] = d["formation"].pop("1")
        with pytest.raises(ConfigError, match="formation key"):
            config_from_dict(d)

    def test_two_keys_for_one_robot_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        four_robot_formation().save(path)
        text = path.read_text().replace('"formation": {', '"formation": {"01": [9.0, 9.0, 0.0], ')
        path.write_text(text)
        with pytest.raises(ConfigError, match="formation key '01'"):
            load_config(path)

    def test_short_formation_offset_rejected(self):
        cfg = four_robot_formation()
        d = cfg.to_dict()
        d["formation"]["2"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match=r"formation\.2 must be a list of 3"):
            config_from_dict(d)
        with pytest.raises(ConfigError, match=r"formation\.2 must be a list of 3"):
            replace(cfg, formation={**cfg.formation, 2: (0.0, 1.0)})

    @pytest.mark.parametrize("key", ["1", 1.0, True, np.int64(1)],
                             ids=["str", "float", "bool", "numpy_int"])
    def test_non_int_formation_key_rejected(self, key):
        # A file holds only string keys; in Python only an int is a robot id.
        with pytest.raises(ConfigError, match=re.escape(f"formation key {repr(key)!r}")):
            replace(two_robot_benchmark(), formation={key: (0.5, -0.5, 0.0)})

    @pytest.mark.parametrize("judge", [{"capacity": 0, "threshold": 0.5},
                                       {"capacity": 20, "threshold": 1.0}])
    def test_bad_judge_rejected_at_load(self, judge):
        d = two_robot_benchmark().to_dict()
        d["judge"] = judge
        with pytest.raises(ConfigError, match=r"judge\.(capacity|threshold) must be"):
            config_from_dict(d)

    @pytest.mark.parametrize("path, value", [
        (("noise", "sigma_outlier"), float("nan")),
        (("gains", "k1"), float("inf")),
        (("robots", 1, "x"), float("nan")),
        (("pe_excitation", "amplitude"), float("nan")),
        (("saturation", "w_max"), float("nan")),
        (("random_init", "radius"), float("nan")),
        (("stage1_timeout_s",), float("inf")),
    ])
    def test_non_finite_real_rejected(self, path, value):
        d = two_robot_benchmark().to_dict()
        d["saturation"] = {"v_h_max": 1.0, "v_z_max": 1.0, "w_max": 1.0}
        d["random_init"] = {"radius": 3.0, "min_sep": 1.0}
        key = ".".join(map(str, path))
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            config_from_dict(set_key(d, path, value))

    @pytest.mark.parametrize("path, value, key", [
        (("judge", "capacity"), 0, "judge.capacity"),
        (("judge", "threshold"), 1.5, "judge.threshold"),
        (("edges",), [[1, 0, 2]], "edges.0"),
        (("edges",), [[1]], "edges.0"),
        (("seed",), -1, "seed"),
        (("duration_s",), 0.01, "duration_s"),      # 0.2 ticks of dt 0.05
        (("duration_s",), 1.03, "duration_s"),      # 20.6 ticks
        (("stage1_timeout_s",), 0.01, "stage1_timeout_s"),   # 0.2 ticks
        (("stage1_timeout_s",), 0.07, "stage1_timeout_s"),   # 1.4 ticks
    ])
    def test_bad_value_rejected_naming_its_key(self, path, value, key):
        for build in builders(path):
            with pytest.raises(ConfigError, match=key):
                build(path, value)

    def test_negative_run_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            run(two_robot_benchmark(duration_s=1.0), seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_run_seed_not_coerced(self, seed):
        # The loader's int rule: only an integral float loads as its int.
        with pytest.raises(ConfigError, match="seed"):
            run(two_robot_benchmark(duration_s=1.0), seed=seed)

    def test_integral_float_run_seed_runs_as_int(self):
        seed = run(two_robot_benchmark(duration_s=1.0), seed=2.0).seed
        assert seed == 2 and type(seed) is int

    @pytest.mark.parametrize("duration_s, dt, ticks", [(0.05, 0.05, 1), (0.3, 0.1, 3),
                                                       (0.7, 0.1, 7)])
    def test_whole_tick_duration_loads(self, duration_s, dt, ticks):
        # 0.3 / 0.1 and 0.7 / 0.1 fall just short of 3 and 7 in floating point.
        d = two_robot_benchmark().to_dict()
        d["duration_s"], d["dt"] = duration_s, dt
        assert config_from_dict(d).n_ticks == ticks


class TestOneRuleSite:
    """Every rule on a single value lives in the loader's table: a file and
    a config built in Python raise one ConfigError naming the dotted key,
    and a bounded value holds its bound to the last float."""

    @pytest.mark.parametrize("path, value, field", [
        (("noise", "sigma_range"), -0.1, {"noise": NoiseModel(sigma_range=-0.1)}),
        (("noise", "sigma_range"), "0.1", {"noise": NoiseModel(sigma_range="0.1")}),
        (("gains", "k1"), 0, {"gains": ControlGains(0, 1.0, 0.5, 0.1)}),
        (("saturation",), {"v_h_max": 0, "v_z_max": 1.0, "w_max": 1.0},
         {"saturation": Saturation(0, 1.0, 1.0)}),
        (("judge", "capacity"), 0, {"judge_capacity": 0}),
        (("formation", "1", 0), math.inf, {"formation": {1: (math.inf, -0.5, 0.0)}}),
        (("hist_cap",), 6, {"hist_cap": 6}),
    ], ids=["sigma_range", "sigma_range_str", "k1", "v_h_max", "judge_capacity",
            "formation", "hist_cap"])
    def test_same_error_on_both_paths(self, path, value, field):
        with pytest.raises(ConfigError) as from_file:
            loaded(path, value)
        with pytest.raises(ConfigError) as from_python:
            replace(two_robot_benchmark(), **field)
        assert str(from_python.value) == str(from_file.value)

    # (path, bound, step): `step` points out of the allowed range, one unit
    # for an int and one float for a real.  A closed bound loads and the
    # value one step out fails; an open bound fails itself.
    CLOSED = [(("gains", "k4"), 0.0, -1), (("pe_excitation", "amplitude"), 0.0, -1),
              (("random_init", "min_sep"), 0.0, -1),
              (("noise", "outlier_prob"), 0.0, -1), (("noise", "outlier_prob"), 1.0, +1),
              (("noise", "sigma_range"), 0.0, -1), (("noise", "sigma_odom_pos"), 0.0, -1),
              (("noise", "sigma_odom_yaw"), 0.0, -1), (("noise", "sigma_outlier"), 0.0, -1),
              (("hist_cap",), 7, -1), (("judge", "capacity"), 1, -1), (("seed",), 0, -1)]
    OPEN = [("dt",), ("duration_s",), ("excitation_threshold",), ("judge", "threshold"),
            ("pe_excitation", "frequency"), ("saturation", "v_h_max"),
            ("saturation", "v_z_max"), ("saturation", "w_max"), ("random_init", "radius"),
            ("gains", "k1"), ("gains", "k2"), ("gains", "k3"), ("stage1_timeout_s",)]

    @staticmethod
    def with_records(path: tuple, value) -> ScenarioConfig:
        # Every record set, and every value it holds in effect: random_init
        # draws the follower's pose, the PE baseline reads pe_excitation and
        # runs no stage-one program, and outliers read sigma_outlier.
        d = two_robot_benchmark(random_init=RandomInit(3.0, 1.0)).to_dict()
        d["saturation"] = {"v_h_max": 1.0, "v_z_max": 1.0, "w_max": 1.0}
        d["flags"]["pe_baseline"] = True
        for robot in d["robots"]:
            robot.update(r=0.0, c_v=0.0, c_w=0.0)
        d["noise"]["outlier_prob"] = 0.1
        return config_from_dict(set_key(d, path, value))

    @pytest.mark.parametrize("path, bound, step", CLOSED,
                             ids=[f"{'.'.join(p)}={b}" for p, b, _ in CLOSED])
    def test_closed_bound_loads_and_the_next_value_fails(self, path, bound, step):
        self.with_records(path, bound)
        outside = (bound + step if isinstance(bound, int)
                   else math.nextafter(bound, step * math.inf))
        with pytest.raises(ConfigError, match=re.escape(f"{'.'.join(path)} must be")):
            self.with_records(path, outside)

    @pytest.mark.parametrize("path", OPEN, ids=[".".join(p) for p in OPEN])
    def test_open_bound_fails(self, path):
        bounds = [0.0, 1.0] if path[-1] in ("excitation_threshold", "threshold") else [0.0]
        for bound in bounds:
            with pytest.raises(ConfigError, match=re.escape(f"{'.'.join(path)} must be")):
                self.with_records(path, bound)

    @pytest.mark.parametrize("cls", [NoiseModel, ControlGains, PEBaselineConfig, RandomInit,
                                     Saturation, RobotConfig, VelocityCommand],
                             ids=lambda cls: cls.__name__)
    def test_records_hold_no_rules(self, cls):
        # A record that checks its own values would raise its own error,
        # without the key, before the table sees them.
        assert not hasattr(cls, "__post_init__")


class TestFormation:
    """Offsets are three finite reals per robot; the leader's is zero, and a
    robot the formation leaves out holds zero."""

    def test_leader_offset_must_be_zero(self):
        with pytest.raises(ConfigError, match="robot 0, the leader, must be zero"):
            replace(two_robot_benchmark(), formation={0: np.array([1.0, 0, 0])})

    def test_offsets_must_be_finite(self):
        with pytest.raises(ConfigError, match=r"formation\.1\.0 must be finite"):
            replace(two_robot_benchmark(), formation={1: np.array([np.inf, 0, 0])})

    def test_missing_robot_defaults_to_zero(self):
        cfg = replace(chain_swarm(3), formation={1: np.array([0.5, -0.5, 0.0])})
        assert cfg.formation == {1: (0.5, -0.5, 0.0)}
        assert _offsets(cfg) == [[0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]]


class TestSchemaV1:
    """A version 1 file differs from version 2 only by `broadcast_horizon`,
    which version 2 dropped."""

    @pytest.mark.parametrize("horizon", [{}, {"broadcast_horizon": 0}], ids=["absent", "zero"])
    def test_zero_or_absent_horizon_upgrades(self, horizon):
        v2 = two_robot_benchmark().to_dict()
        v1 = {**v2, "schema_version": 1, **horizon}
        assert config_from_dict(v1) == config_from_dict(v2)

    def test_nonzero_horizon_rejected(self):
        v1 = {**two_robot_benchmark().to_dict(), "schema_version": 1, "broadcast_horizon": 3}
        with pytest.raises(ConfigError, match="broadcast_horizon"):
            config_from_dict(v1)

    @pytest.mark.parametrize("version", [True, 2.0])
    def test_version_not_coerced(self, version):
        d = {**two_robot_benchmark().to_dict(), "schema_version": version}
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(d)

    def test_horizon_unknown_in_version_2(self):
        d = {**two_robot_benchmark().to_dict(), "broadcast_horizon": 0}
        with pytest.raises(ConfigError, match="broadcast_horizon"):
            config_from_dict(d)


class TestSchemaV3:
    """Version 3 dropped `physics_substeps`: a version 1 or 2 file loads as
    its version 3 form when it holds one sub-step or none."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("substeps", [{}, {"physics_substeps": 1}], ids=["absent", "one"])
    def test_one_or_absent_substeps_upgrade(self, version, substeps):
        v3 = two_robot_benchmark().to_dict()
        old = config_from_dict({**v3, "schema_version": version, **substeps})
        assert old == config_from_dict(v3)
        assert old.to_dict()["schema_version"] == 3
        assert old.config_hash() == two_robot_benchmark().config_hash()

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("substeps", [2, 0, 1.5])
    def test_other_substeps_rejected(self, version, substeps):
        d = {**two_robot_benchmark().to_dict(), "schema_version": version,
             "physics_substeps": substeps}
        with pytest.raises(ConfigError, match="physics_substeps"):
            config_from_dict(d)

    def test_substeps_unknown_in_version_3(self):
        d = {**two_robot_benchmark().to_dict(), "physics_substeps": 1}
        with pytest.raises(ConfigError, match=r"unknown config keys: \['physics_substeps'\]"):
            config_from_dict(d)


class TestRepeatedKeys:
    """json.loads keeps the last of two equal keys; the loader rejects them."""

    @pytest.mark.parametrize("key, old, new", [
        ("dt", '"dt": 0.1,', '"dt": 0.05, "dt": 0.1,'),
        ("k1", '"gains": {', '"gains": {"k1": 2.0, '),
        ("x", '"robots": [{', '"robots": [{"x": 0.5, '),
        ("1", '"formation": {', '"formation": {"1": [0.0, 0.0, 0.0], '),
    ], ids=["top", "nested", "in_a_list", "formation"])
    def test_repeated_key_rejected_naming_it(self, tmp_path, key, old, new):
        path = tmp_path / "cfg.json"
        four_robot_formation().save(path)
        text = path.read_text().replace("\n", "").replace("  ", "")
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=f"key '{key}' appears twice"):
            load_config(path)

    def test_valid_configs_keep_their_hash(self, tmp_path):
        for cfg in (two_robot_benchmark(), four_robot_formation(), chain_swarm(5, seed=3)):
            path = tmp_path / f"{cfg.name}.json"
            cfg.save(path)
            loaded = load_config(path)
            assert loaded == cfg and loaded.config_hash() == cfg.config_hash()
