"""Scenario configuration: a versioned JSON schema with strict validation.

Unknown keys are errors so a typo in a sweep file fails loudly instead of
silently running defaults.  The canonical serialized form (sorted keys) is
hashed into every run manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .control import ControlGains, FormationSpec
from .cooploc import assign_layers
from .outliers import JudgeQueue
from .sensing import NoiseModel
from .world import VelocityCommand

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class RobotConfig:
    """Initial world pose plus stage-one excitation parameters."""

    id: int
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    r: float = 0.0
    c_v: float = 0.0
    c_w: float = 0.0


@dataclass(frozen=True)
class PEBaselineConfig:
    """Sinusoidal excitation riding on the tracking commands for the whole run."""

    amplitude: float = 0.2
    frequency: float = 1.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ConfigError("pe excitation amplitude must be >= 0")
        if self.frequency <= 0:
            raise ConfigError("pe excitation frequency must be > 0")


@dataclass(frozen=True)
class RandomInit:
    """Follower pose randomization: positions uniform in the square
    [-radius, radius]^2, redrawn until at least min_sep from the leader and
    every follower placed before; heading uniform in [-pi, pi).  A run
    raises ConfigError when a follower cannot be placed."""

    radius: float = 4.0
    min_sep: float = 1.0

    def __post_init__(self):
        if self.radius <= 0 or self.min_sep < 0:
            raise ConfigError("random_init requires radius > 0 and min_sep >= 0")


@dataclass(frozen=True)
class Saturation:
    """Symmetric command clamps; off by default to keep asymptotics clean."""

    v_h_max: float
    v_z_max: float
    w_max: float

    def __post_init__(self):
        if min(self.v_h_max, self.v_z_max, self.w_max) <= 0:
            raise ConfigError("saturation bounds must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dt: float
    duration_s: float
    robots: tuple[RobotConfig, ...]
    edges: tuple[tuple[int, int], ...]
    gains: ControlGains                      # k1..k4 shared by all robots
    formation: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    noise: NoiseModel = NoiseModel()
    seed: int = 0
    mode_2d: bool = False
    excitation_threshold: float = 0.1
    hist_cap: int = 64
    stage1_timeout_s: float | None = None
    leader_cruise: VelocityCommand | None = None   # None: keep flying the stage-one circle
    outlier_screening: bool = True
    truth_feedback: bool = False
    pe_baseline: bool = False
    leader_odom_broadcast: bool = False
    rate_variant: str = "stated"
    pe_excitation: PEBaselineConfig = PEBaselineConfig()
    judge_capacity: int = 20
    judge_threshold: float = 0.5
    broadcast_horizon: int = 0
    physics_substeps: int = 1      # physics micro-steps per measurement tick
    random_init: RandomInit | None = None
    saturation: Saturation | None = None
    sample_dump: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigError(f"duration_s must be positive and finite, got {self.duration_s!r}")
        ids = [r.id for r in self.robots]
        if ids != list(range(len(self.robots))) or not ids:
            raise ConfigError("robot ids must be contiguous 0..N with the leader first")
        if not 0 < self.excitation_threshold < 1:
            raise ConfigError("excitation_threshold must be in (0, 1)")
        if self.hist_cap < 7:
            raise ConfigError("hist_cap must be at least the parameter dimension")
        if self.rate_variant not in ("stated", "proof"):
            raise ConfigError(f"unknown rate_variant {self.rate_variant!r}")
        if self.physics_substeps < 1:
            raise ConfigError("physics_substeps must be >= 1")
        if self.stage1_timeout_s is not None and self.stage1_timeout_s <= 0:
            raise ConfigError("stage1_timeout_s must be positive when given")
        for rid in self.formation:
            if rid not in ids:
                raise ConfigError(f"formation offset for unknown robot {rid}")
        # Raises on unreachable robots or malformed edges.
        assign_layers(self.edges, len(self.robots))
        try:
            self.formation_spec()
        except ValueError as exc:   # a non-finite or short offset, or a leader offset
            raise ConfigError(str(exc)) from exc
        # Raises on a capacity below 1 or a threshold outside (0, 1).
        JudgeQueue(self.judge_capacity, self.judge_threshold)

    @property
    def n_robots(self) -> int:
        return len(self.robots)

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s / self.dt))

    def formation_spec(self) -> FormationSpec:
        return FormationSpec({rid: np.asarray(off, dtype=float)
                              for rid, off in self.formation.items()})

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "dt": self.dt,
            "duration_s": self.duration_s,
            "mode_2d": self.mode_2d,
            "seed": self.seed,
            "robots": [{"id": r.id, "x": r.x, "y": r.y, "z": r.z, "yaw": r.yaw,
                        "r": r.r, "c_v": r.c_v, "c_w": r.c_w} for r in self.robots],
            "edges": [list(e) for e in self.edges],
            "gains": {"k1": self.gains.k1, "k2": self.gains.k2,
                      "k3": self.gains.k3, "k4": self.gains.k4},
            "formation": {str(rid): list(off) for rid, off in self.formation.items()},
            "noise": {"sigma_range": self.noise.sigma_range,
                      "sigma_odom_pos": self.noise.sigma_odom_pos,
                      "sigma_odom_yaw": self.noise.sigma_odom_yaw,
                      "outlier_prob": self.noise.outlier_prob,
                      "sigma_outlier": self.noise.sigma_outlier},
            "excitation_threshold": self.excitation_threshold,
            "hist_cap": self.hist_cap,
            "stage1_timeout_s": self.stage1_timeout_s,
            "leader_cruise": None if self.leader_cruise is None else
                {"v_h": self.leader_cruise.v_h, "v_z": self.leader_cruise.v_z,
                 "w": self.leader_cruise.w},
            "flags": {"outlier_screening": self.outlier_screening,
                      "truth_feedback": self.truth_feedback,
                      "pe_baseline": self.pe_baseline,
                      "leader_odom_broadcast": self.leader_odom_broadcast},
            "rate_variant": self.rate_variant,
            "pe_excitation": {"amplitude": self.pe_excitation.amplitude,
                              "frequency": self.pe_excitation.frequency},
            "judge": {"capacity": self.judge_capacity, "threshold": self.judge_threshold},
            "broadcast_horizon": self.broadcast_horizon,
            "physics_substeps": self.physics_substeps,
            "random_init": None if self.random_init is None else
                {"radius": self.random_init.radius, "min_sep": self.random_init.min_sep},
            "saturation": None if self.saturation is None else
                {"v_h_max": self.saturation.v_h_max, "v_z_max": self.saturation.v_z_max,
                 "w_max": self.saturation.w_max},
            "sample_dump": self.sample_dump,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _pop(d: dict, key: str, default=...):
    if key in d:
        return d.pop(key)
    if default is ...:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def _reject_unknown(d: dict, context: str) -> None:
    if d:
        raise ConfigError(f"unknown {context} keys: {sorted(d)}")


def _exact(value, kind: type, key: str):
    """`value` if it is of type `kind` (bool, int or str; an integral
    float counts as an int), else a ConfigError: never a silent coercion."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


def _float(value, key: str) -> float:
    """`value` as a float if it is an int or a float (never a bool or a
    string), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _formation(raw: dict) -> dict[int, tuple[float, ...]]:
    """Robot id -> offset; the JSON keys are robot ids as strings."""
    formation = {}
    for key, offset in raw.items():
        try:
            rid = int(_exact(key, str, "formation key"))
        except ValueError:
            raise ConfigError(f"formation key {key!r} is not a robot id") from None
        if not isinstance(offset, list) or len(offset) != 3:
            raise ConfigError(f"formation offset for robot {key!r} must be a list of "
                              f"3 numbers, got {offset!r}")
        formation[rid] = tuple(_float(x, f"formation offset for robot {key!r}")
                               for x in offset)
    return formation


def _floats(cls, raw: dict, context: str, **fixed):
    """Dataclass `cls` from a JSON object: each float field from its key, or
    its default when the key is absent; other keys are errors."""
    d = dict(raw)
    names = [f.name for f in fields(cls) if f.type in (float, "float")]
    missing = [f.name for f in fields(cls)
               if f.name in names and f.name not in d and f.default is MISSING]
    if missing:
        raise ConfigError(f"missing required {context} keys: {missing}")
    values = {name: _float(d.pop(name), f"{context} {name}") for name in names if name in d}
    _reject_unknown(d, context)
    return cls(**values, **fixed)


def config_from_dict(raw: dict) -> ScenarioConfig:
    d = dict(raw)
    version = _pop(d, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    robots = []
    for rd in _pop(d, "robots"):
        rd = dict(rd)
        robot_id = _exact(_pop(rd, "id"), int, "robot id")
        robots.append(_floats(RobotConfig, rd, "robot", id=robot_id))

    gd = dict(_pop(d, "gains"))
    gains = ControlGains(*(_float(_pop(gd, k), f"gains {k}") for k in ("k1", "k2", "k3", "k4")))
    _reject_unknown(gd, "gains")

    noise = _floats(NoiseModel, _pop(d, "noise", {}), "noise")

    formation = _formation(_pop(d, "formation", {}))

    cruise_raw = _pop(d, "leader_cruise", None)
    cruise = None
    if cruise_raw is not None:
        # v_z may be left out; VelocityCommand itself has no default for it.
        cruise = _floats(VelocityCommand, {"v_z": 0.0, **cruise_raw}, "leader_cruise")

    flags = dict(_pop(d, "flags", {}))
    outlier_screening, truth_feedback, pe_baseline, leader_odom_broadcast = (
        _exact(_pop(flags, key, default), bool, key)
        for key, default in (("outlier_screening", True), ("truth_feedback", False),
                             ("pe_baseline", False), ("leader_odom_broadcast", False)))
    _reject_unknown(flags, "flags")

    pe_exc = _floats(PEBaselineConfig, _pop(d, "pe_excitation", {}), "pe_excitation")

    jd = dict(_pop(d, "judge", {}))
    judge_capacity = _exact(_pop(jd, "capacity", 20), int, "judge capacity")
    judge_threshold = _float(_pop(jd, "threshold", 0.5), "judge threshold")
    _reject_unknown(jd, "judge")

    rid = _pop(d, "random_init", None)
    random_init = None if rid is None else _floats(RandomInit, rid, "random_init")
    sat_raw = _pop(d, "saturation", None)
    saturation = None if sat_raw is None else _floats(Saturation, sat_raw, "saturation")
    timeout = _pop(d, "stage1_timeout_s", None)

    cfg = ScenarioConfig(
        name=_exact(_pop(d, "name"), str, "name"),
        dt=_float(_pop(d, "dt"), "dt"),
        duration_s=_float(_pop(d, "duration_s"), "duration_s"),
        robots=tuple(robots),
        edges=tuple((_exact(i, int, "edge"), _exact(j, int, "edge"))
                    for i, j in _pop(d, "edges")),
        gains=gains,
        formation=formation,
        noise=noise,
        seed=_exact(_pop(d, "seed", 0), int, "seed"),
        mode_2d=_exact(_pop(d, "mode_2d", False), bool, "mode_2d"),
        excitation_threshold=_float(_pop(d, "excitation_threshold", 0.1),
                                    "excitation_threshold"),
        hist_cap=_exact(_pop(d, "hist_cap", 64), int, "hist_cap"),
        stage1_timeout_s=None if timeout is None else _float(timeout, "stage1_timeout_s"),
        leader_cruise=cruise,
        outlier_screening=outlier_screening,
        truth_feedback=truth_feedback,
        pe_baseline=pe_baseline,
        leader_odom_broadcast=leader_odom_broadcast,
        rate_variant=str(_pop(d, "rate_variant", "stated")),
        pe_excitation=pe_exc,
        judge_capacity=judge_capacity,
        judge_threshold=judge_threshold,
        broadcast_horizon=_exact(_pop(d, "broadcast_horizon", 0), int, "broadcast_horizon"),
        physics_substeps=_exact(_pop(d, "physics_substeps", 1), int, "physics_substeps"),
        random_init=random_init,
        saturation=saturation,
        sample_dump=_exact(_pop(d, "sample_dump", False), bool, "sample_dump"),
    )
    _reject_unknown(d, "config")
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
