import json
from dataclasses import fields, replace

import pytest

from uwbio.config import (_FIELDS, ConfigError, RandomInit, Saturation, ScenarioConfig,
                          config_from_dict, load_config)
from uwbio.harness import run
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.sensing import NoiseModel


def set_key(d: dict, path: tuple, value) -> dict:
    """`d` with the value at `path` (keys and list indices) replaced."""
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [two_robot_benchmark(), four_robot_formation(),
                                     chain_swarm(5, seed=3)])
    def test_dict_round_trip(self, cfg):
        clone = config_from_dict(cfg.to_dict())
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
        with pytest.raises(ConfigError):
            Saturation(v_h_max=0.0, v_z_max=0.2, w_max=1.0)


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
        with pytest.raises(ValueError):
            config_from_dict(d)

    def test_formation_for_unknown_robot(self):
        d = two_robot_benchmark().to_dict()
        d["formation"]["9"] = [1.0, 0.0, 0.0]
        with pytest.raises(ConfigError):
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
    """Values of the wrong kind are rejected at load time, never coerced."""

    @pytest.mark.parametrize("path", [("mode_2d",), ("sample_dump",),
                                      ("flags", "outlier_screening")])
    @pytest.mark.parametrize("value", ["false", "no", 0])
    def test_non_bool_flag_rejected(self, path, value):
        d = two_robot_benchmark().to_dict()
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError, match=path[-1]):
            config_from_dict(d)

    @pytest.mark.parametrize("path, value", [(("hist_cap",), 64.9),
                                             (("physics_substeps",), 1.7),
                                             (("judge", "capacity"), 5.5),
                                             (("seed",), "3"),
                                             (("hist_cap",), True)])
    def test_non_integral_int_rejected(self, path, value):
        d = two_robot_benchmark().to_dict()
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError, match="must be int"):
            config_from_dict(d)

    def test_integral_float_loads_as_int(self):
        d = two_robot_benchmark().to_dict()
        d["hist_cap"] = 32.0
        cfg = config_from_dict(d)
        assert cfg.hist_cap == 32 and isinstance(cfg.hist_cap, int)

    @pytest.mark.parametrize("timeout", [-5.0, 0.0])
    def test_nonpositive_stage1_timeout_rejected(self, timeout):
        d = two_robot_benchmark().to_dict()
        d["stage1_timeout_s"] = timeout
        with pytest.raises(ConfigError, match="stage1_timeout_s"):
            config_from_dict(d)

    @pytest.mark.parametrize("path, value", [(("dt",), "0.05"),
                                             (("noise", "sigma_range"), True),
                                             (("gains", "k1"), "1"),
                                             (("judge", "threshold"), "0.5")])
    def test_non_number_float_rejected(self, path, value):
        d = two_robot_benchmark().to_dict()
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError, match=f"{path[-1]} must be a number"):
            config_from_dict(d)

    def test_non_str_name_rejected(self):
        d = two_robot_benchmark().to_dict()
        d["name"] = 7
        with pytest.raises(ConfigError, match="name must be str"):
            config_from_dict(d)

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
        d = four_robot_formation().to_dict()
        d["formation"]["2"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="offset for robot '2'"):
            config_from_dict(d)

    @pytest.mark.parametrize("judge", [{"capacity": 0, "threshold": 0.5},
                                       {"capacity": 20, "threshold": 1.0}])
    def test_bad_judge_rejected_at_load(self, judge):
        d = two_robot_benchmark().to_dict()
        d["judge"] = judge
        with pytest.raises(ValueError):
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
        (("judge", "capacity"), 0, "judge capacity"),
        (("judge", "threshold"), 1.5, "judge threshold"),
        (("edges",), [[1, 0, 2]], "edges.0"),
        (("edges",), [[1]], "edges.0"),
        (("seed",), -1, "seed"),
        (("duration_s",), 0.01, "duration_s"),      # 0.2 ticks of dt 0.05
        (("duration_s",), 1.03, "duration_s"),      # 20.6 ticks
        (("stage1_timeout_s",), 0.01, "stage1_timeout_s"),   # 0.2 ticks
        (("stage1_timeout_s",), 0.07, "stage1_timeout_s"),   # 1.4 ticks
    ])
    def test_bad_value_rejected_naming_its_key(self, path, value, key):
        d = two_robot_benchmark().to_dict()
        with pytest.raises(ConfigError, match=key):
            config_from_dict(set_key(d, path, value))

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
