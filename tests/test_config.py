import json

import pytest

from uwbio.config import ConfigError, RandomInit, config_from_dict, load_config
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark


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
