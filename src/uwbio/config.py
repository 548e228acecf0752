"""Scenario configuration: a versioned JSON schema with strict validation.

Unknown keys are errors so a typo in a sweep file fails loudly instead of
silently running defaults.  The canonical serialized form (sorted keys) is
hashed into every run manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .control import ControlGains, FormationSpec
from .cooploc import assign_layers
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
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
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
        for rid in self.formation:
            if rid not in ids:
                raise ConfigError(f"formation offset for unknown robot {rid}")
        # Raises on unreachable robots or malformed edges.
        assign_layers(self.edges, len(self.robots))
        # Raises on non-finite offsets or a nonzero leader offset.
        FormationSpec({rid: np.asarray(off, dtype=float) for rid, off in self.formation.items()})

    @property
    def n_robots(self) -> int:
        return len(self.robots)

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s / self.dt))

    def formation_spec(self) -> FormationSpec:
        return FormationSpec({rid: np.asarray(off, dtype=float)
                              for rid, off in self.formation.items()})

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=int(seed))

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


def config_from_dict(raw: dict) -> ScenarioConfig:
    d = dict(raw)
    version = _pop(d, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    robots = []
    for rd in _pop(d, "robots"):
        rd = dict(rd)
        robots.append(RobotConfig(
            id=int(_pop(rd, "id")),
            x=float(_pop(rd, "x", 0.0)), y=float(_pop(rd, "y", 0.0)),
            z=float(_pop(rd, "z", 0.0)), yaw=float(_pop(rd, "yaw", 0.0)),
            r=float(_pop(rd, "r", 0.0)), c_v=float(_pop(rd, "c_v", 0.0)),
            c_w=float(_pop(rd, "c_w", 0.0))))
        _reject_unknown(rd, "robot")

    gd = dict(_pop(d, "gains"))
    gains = ControlGains(float(_pop(gd, "k1")), float(_pop(gd, "k2")),
                         float(_pop(gd, "k3")), float(_pop(gd, "k4")))
    _reject_unknown(gd, "gains")

    nd = dict(_pop(d, "noise", {}))
    noise = NoiseModel(
        sigma_range=float(_pop(nd, "sigma_range", 0.0)),
        sigma_odom_pos=float(_pop(nd, "sigma_odom_pos", 0.0)),
        sigma_odom_yaw=float(_pop(nd, "sigma_odom_yaw", 0.0)),
        outlier_prob=float(_pop(nd, "outlier_prob", 0.0)),
        sigma_outlier=float(_pop(nd, "sigma_outlier", 3.0)))
    _reject_unknown(nd, "noise")

    fd = dict(_pop(d, "formation", {}))
    formation = {int(k): tuple(float(x) for x in v) for k, v in fd.items()}

    cruise_raw = _pop(d, "leader_cruise", None)
    cruise = None
    if cruise_raw is not None:
        cd = dict(cruise_raw)
        cruise = VelocityCommand(float(_pop(cd, "v_h")), float(_pop(cd, "v_z", 0.0)),
                                 float(_pop(cd, "w")))
        _reject_unknown(cd, "leader_cruise")

    flags = dict(_pop(d, "flags", {}))
    outlier_screening = bool(_pop(flags, "outlier_screening", True))
    truth_feedback = bool(_pop(flags, "truth_feedback", False))
    pe_baseline = bool(_pop(flags, "pe_baseline", False))
    leader_odom_broadcast = bool(_pop(flags, "leader_odom_broadcast", False))
    _reject_unknown(flags, "flags")

    ped = dict(_pop(d, "pe_excitation", {}))
    pe_exc = PEBaselineConfig(amplitude=float(_pop(ped, "amplitude", 0.2)),
                              frequency=float(_pop(ped, "frequency", 1.0)))
    _reject_unknown(ped, "pe_excitation")

    jd = dict(_pop(d, "judge", {}))
    judge_capacity = int(_pop(jd, "capacity", 20))
    judge_threshold = float(_pop(jd, "threshold", 0.5))
    _reject_unknown(jd, "judge")

    rid = _pop(d, "random_init", None)
    random_init = None
    if rid is not None:
        rd = dict(rid)
        random_init = RandomInit(radius=float(_pop(rd, "radius", 4.0)),
                                 min_sep=float(_pop(rd, "min_sep", 1.0)))
        _reject_unknown(rd, "random_init")

    sat_raw = _pop(d, "saturation", None)
    saturation = None
    if sat_raw is not None:
        sd = dict(sat_raw)
        saturation = Saturation(v_h_max=float(_pop(sd, "v_h_max")),
                                v_z_max=float(_pop(sd, "v_z_max")),
                                w_max=float(_pop(sd, "w_max")))
        _reject_unknown(sd, "saturation")

    cfg = ScenarioConfig(
        name=str(_pop(d, "name")),
        dt=float(_pop(d, "dt")),
        duration_s=float(_pop(d, "duration_s")),
        robots=tuple(robots),
        edges=tuple((int(i), int(j)) for i, j in _pop(d, "edges")),
        gains=gains,
        formation=formation,
        noise=noise,
        seed=int(_pop(d, "seed", 0)),
        mode_2d=bool(_pop(d, "mode_2d", False)),
        excitation_threshold=float(_pop(d, "excitation_threshold", 0.1)),
        hist_cap=int(_pop(d, "hist_cap", 64)),
        stage1_timeout_s=(lambda v: None if v is None else float(v))(_pop(d, "stage1_timeout_s", None)),
        leader_cruise=cruise,
        outlier_screening=outlier_screening,
        truth_feedback=truth_feedback,
        pe_baseline=pe_baseline,
        leader_odom_broadcast=leader_odom_broadcast,
        rate_variant=str(_pop(d, "rate_variant", "stated")),
        pe_excitation=pe_exc,
        judge_capacity=judge_capacity,
        judge_threshold=judge_threshold,
        broadcast_horizon=int(_pop(d, "broadcast_horizon", 0)),
        physics_substeps=int(_pop(d, "physics_substeps", 1)),
        random_init=random_init,
        saturation=saturation,
        sample_dump=bool(_pop(d, "sample_dump", False)),
    )
    _reject_unknown(d, "config")
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
