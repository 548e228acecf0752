"""Scenario configuration: a versioned JSON schema with strict validation.

Unknown keys are errors so a typo in a sweep file fails loudly instead of
silently running defaults.  One table, `_FIELDS`, gives every value its JSON
key and its kind, and the kind carries every rule on that one value: its
type, finiteness, bounds or membership.  Only the loader enforces them; the
records a config holds are plain data.  A config built in Python goes
through the same table on construction, so it holds what its saved file
loads to and raises the same error, naming the same key; its own
`__post_init__` keeps only the rules that span fields.  The canonical
serialized form (sorted keys) is hashed into every run manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .control import ControlGains
from .cooploc import assign_layers
from .estimation import RATE_VARIANTS
from .regression import HIST_CAP
from .sensing import NoiseModel
from .world import VelocityCommand

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def whole_ticks(name: str, seconds: float, dt: float) -> int:
    """`seconds` as a number of dt ticks.  Raises a ConfigError naming `name`
    unless the ratio is within 1e-9 (relative) of a whole number >= 1, so no
    duration is silently rounded."""
    ticks = seconds / dt
    if not (math.isfinite(ticks) and round(ticks) >= 1
            and math.isclose(ticks, round(ticks), rel_tol=1e-9)):
        raise ConfigError(f"{name} must be a whole number (>= 1) of dt ticks, "
                          f"got {seconds!r} / {dt!r} = {ticks!r}")
    return round(ticks)


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


@dataclass(frozen=True)
class RandomInit:
    """Follower pose randomization: positions uniform in the square
    [-radius, radius]^2, redrawn until at least min_sep from the leader and
    every follower placed before; heading uniform in [-pi, pi).  A run
    raises ConfigError when a follower cannot be placed."""

    radius: float = 4.0
    min_sep: float = 1.0


@dataclass(frozen=True)
class Saturation:
    """Symmetric command clamps; off by default to keep asymptotics clean."""

    v_h_max: float
    v_z_max: float
    w_max: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dt: float
    duration_s: float
    robots: tuple[RobotConfig, ...]
    edges: tuple[tuple[int, int], ...]
    gains: ControlGains
    formation: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    noise: NoiseModel = NoiseModel()
    seed: int = 0
    mode_2d: bool = False
    excitation_threshold: float = 0.1
    hist_cap: int = HIST_CAP
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
    physics_substeps: int = 1      # physics micro-steps per measurement tick
    random_init: RandomInit | None = None
    saturation: Saturation | None = None
    sample_dump: bool = False

    def __post_init__(self):
        # A config built in Python holds what its saved file loads to, and
        # raises what loading that file raises: its own tree goes back
        # through the one table, which checks every single value.  Only the
        # rules that span fields are left here.
        tree = self.to_dict()
        del tree["schema_version"]
        for name, value in _load_fields(tree).items():
            object.__setattr__(self, name, value)
        whole_ticks("duration_s", self.duration_s, self.dt)
        if self.stage1_timeout_s is not None:
            whole_ticks("stage1_timeout_s", self.stage1_timeout_s, self.dt)
        ids = [r.id for r in self.robots]
        if ids != list(range(len(self.robots))) or not ids:
            raise ConfigError("robot ids must be contiguous 0..N with the leader first")
        if len(ids) < 2:
            raise ConfigError("robots must hold a leader and at least one follower to pair")
        for rid in self.formation:
            if rid not in ids:
                raise ConfigError(f"formation.{rid}: offset for unknown robot {rid}")
        if any(self.formation.get(0, ())):
            raise ConfigError(f"formation.0: offset for robot 0, the leader, must be zero, "
                              f"got {self.formation[0]!r}")
        try:
            assign_layers(self.edges, len(self.robots))
        except ValueError as exc:   # an unreachable robot or a malformed edge
            raise ConfigError(f"edges: {exc}") from exc

    @property
    def n_robots(self) -> int:
        return len(self.robots)

    @property
    def n_ticks(self) -> int:
        return whole_ticks("duration_s", self.duration_s, self.dt)

    @property
    def stage1_timeout_ticks(self) -> int | None:
        if self.stage1_timeout_s is None:
            return None
        return whole_ticks("stage1_timeout_s", self.stage1_timeout_s, self.dt)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"schema_version": SCHEMA_VERSION}
        for name, (path, kind) in _FIELDS.items():
            parent, _, key = path.rpartition(".")
            node = d.setdefault(parent, {}) if parent else d
            node[key] = kind.dump(getattr(self, name))
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _object(raw, key: str) -> dict:
    """A copy of the JSON object `raw`, for popping its keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object, got {raw!r}")
    return dict(raw)


def _reject_unknown(d: dict, context: str) -> None:
    if d:
        raise ConfigError(f"unknown {context} keys: {sorted(d)}")


class _Scalar:
    """A bool, int, str or real value, never coerced: an integral float
    counts as an int and an int as a real, nothing else.  A real field dumps
    an int or a float as a float, so configs that compare equal hash equal,
    and any other value as it is, for `load` to reject.  Each rule `where`
    adds is checked in turn once the kind holds; `_REAL`'s first rule is
    finiteness, so every kind made from it rejects nan and inf."""

    def __init__(self, kind: type, rules: tuple = ()):
        self.kind = kind
        self.rules = rules

    def where(self, rule, text: str) -> _Scalar:
        """This kind, whose values must also pass `rule`; a value that fails
        it raises `<key> must be <text>, got <value>`."""
        return _Scalar(self.kind, self.rules + ((rule, text),))

    def dump(self, value):
        if self.kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return value

    def load(self, raw, key: str):
        if self.kind is float:
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ConfigError(f"{key} must be a number, got {raw!r}")
            raw = float(raw)
        elif self.kind is int and isinstance(raw, float) and raw.is_integer():
            raw = int(raw)
        if type(raw) is not self.kind:
            raise ConfigError(f"{key} must be {self.kind.__name__}, got {raw!r}")
        for rule, text in self.rules:
            if not rule(raw):
                raise ConfigError(f"{key} must be {text}, got {raw!r}")
        return raw


_BOOL, _INT, _STR = (_Scalar(kind) for kind in (bool, int, str))
_REAL = _Scalar(float).where(math.isfinite, "finite")
_POSITIVE = _REAL.where(lambda v: v > 0, "> 0")
_NONNEG = _REAL.where(lambda v: v >= 0, ">= 0")
_OPEN_UNIT = _REAL.where(lambda v: 0 < v < 1, "in (0, 1)")
_COUNT = _INT.where(lambda v: v >= 1, ">= 1")
_SEED = _INT.where(lambda v: v >= 0, ">= 0")     # numpy's SeedSequence needs it
# dt and duration_s, under one rule that also rejects nan and inf.
_TIME = _Scalar(float).where(lambda v: 0 < v < math.inf, "positive and finite")


class _Optional:
    """A value of `kind`, or null for None."""

    def __init__(self, kind):
        self.kind = kind

    def dump(self, value):
        return None if value is None else self.kind.dump(value)

    def load(self, raw, key: str):
        return None if raw is None else self.kind.load(raw, key)


class _List:
    """A JSON list of values of one kind (exactly `length` of them when
    given), loaded as a tuple."""

    def __init__(self, kind, length: int | None = None):
        self.kind = kind
        self.length = length

    def dump(self, value) -> list:
        return [self.kind.dump(x) for x in value]

    def load(self, raw, key: str) -> tuple:
        if not isinstance(raw, list) or self.length not in (None, len(raw)):
            shape = "a list" if self.length is None else f"a list of {self.length}"
            raise ConfigError(f"{key} must be {shape}, got {raw!r}")
        return tuple(self.kind.load(x, f"{key}.{n}") for n, x in enumerate(raw))


class _Record:
    """A frozen dataclass as a JSON object with one key per field, of the
    kind given here or else the scalar kind its annotation names; a key
    left out takes the field's default, or the one in `defaults`."""

    def __init__(self, cls: type, defaults: dict | None = None, **kinds):
        self.cls = cls
        scalars = {"bool": _BOOL, "int": _INT, "str": _STR, "float": _REAL}
        self.kinds = {f.name: kinds.get(f.name, scalars[f.type]) for f in fields(cls)}
        self.defaults = defaults or {}
        self.required = [f.name for f in fields(cls)
                         if f.default is MISSING and f.name not in self.defaults]

    def dump(self, value) -> dict:
        return {name: kind.dump(getattr(value, name)) for name, kind in self.kinds.items()}

    def load(self, raw, key: str):
        d = _object(raw, key)
        missing = [name for name in self.required if name not in d]
        if missing:
            raise ConfigError(f"missing required {key} keys: {missing}")
        values = {**self.defaults, **{name: kind.load(d.pop(name), f"{key}.{name}")
                                      for name, kind in self.kinds.items() if name in d}}
        _reject_unknown(d, key)
        return self.cls(**values)


class _Formation:
    """Robot id -> offset; the JSON keys are robot ids as `str(id)` writes
    them.  Any key but an int dumps as its repr, which no robot id reads as,
    so a formation built in Python with the key "1" fails as a file would."""

    _OFFSET = _List(_REAL, 3)

    def dump(self, value) -> dict:
        return {str(rid) if type(rid) is int else repr(rid): self._OFFSET.dump(off)
                for rid, off in value.items()}

    def load(self, raw, key: str) -> dict:
        formation = {}
        for rid, offset in _object(raw, key).items():
            try:
                robot = int(_STR.load(rid, key))
                if robot < 0 or rid != str(robot):     # " 1", "+1", "01", "\uff11", ...
                    raise ValueError
            except ValueError:
                raise ConfigError(f"formation key {rid!r} is not a robot id") from None
            formation[robot] = self._OFFSET.load(offset, f"{key}.{rid}")
        return formation


# Every ScenarioConfig field: its dotted JSON path and its kind, in the
# order `to_dict` writes them.  `to_dict` and `_load_fields` both walk this
# table; a key left out of the JSON takes the field's default.  The kinds
# hold every rule on a single value.
_FIELDS = {
    "name": ("name", _STR),
    "dt": ("dt", _TIME),
    "duration_s": ("duration_s", _TIME),
    "mode_2d": ("mode_2d", _BOOL),
    "seed": ("seed", _SEED),
    "robots": ("robots", _List(_Record(RobotConfig))),
    "edges": ("edges", _List(_List(_INT, 2))),
    # k4 = 0 is legitimate for planar runs (no altitude channel to close).
    "gains": ("gains", _Record(ControlGains, k1=_POSITIVE, k2=_POSITIVE, k3=_POSITIVE,
                               k4=_NONNEG)),
    "formation": ("formation", _Formation()),
    "noise": ("noise", _Record(NoiseModel, sigma_range=_NONNEG, sigma_odom_pos=_NONNEG,
                               sigma_odom_yaw=_NONNEG, sigma_outlier=_NONNEG,
                               outlier_prob=_REAL.where(lambda v: 0 <= v <= 1, "in [0, 1]"))),
    "excitation_threshold": ("excitation_threshold", _OPEN_UNIT),
    "hist_cap": ("hist_cap", _INT.where(lambda v: v >= 7, ">= 7, the parameter dimension")),
    "stage1_timeout_s": ("stage1_timeout_s", _Optional(_POSITIVE)),
    # v_z may be left out; VelocityCommand itself has no default for it.
    "leader_cruise": ("leader_cruise", _Optional(_Record(VelocityCommand, {"v_z": 0.0}))),
    "outlier_screening": ("flags.outlier_screening", _BOOL),
    "truth_feedback": ("flags.truth_feedback", _BOOL),
    "pe_baseline": ("flags.pe_baseline", _BOOL),
    "leader_odom_broadcast": ("flags.leader_odom_broadcast", _BOOL),
    "rate_variant": ("rate_variant", _STR.where(RATE_VARIANTS.__contains__,
                                                f"one of {RATE_VARIANTS}")),
    "pe_excitation": ("pe_excitation", _Record(PEBaselineConfig, amplitude=_NONNEG,
                                               frequency=_POSITIVE)),
    "judge_capacity": ("judge.capacity", _COUNT),
    "judge_threshold": ("judge.threshold", _OPEN_UNIT),
    "physics_substeps": ("physics_substeps", _COUNT),
    "random_init": ("random_init", _Optional(_Record(RandomInit, radius=_POSITIVE,
                                                     min_sep=_NONNEG))),
    "saturation": ("saturation", _Optional(_Record(Saturation, v_h_max=_POSITIVE,
                                                   v_z_max=_POSITIVE, w_max=_POSITIVE))),
    "sample_dump": ("sample_dump", _BOOL),
}


def _load_fields(d: dict) -> dict:
    """Every ScenarioConfig field the `to_dict` tree `d` (without its
    schema_version) holds, loaded through `_FIELDS`; pops the keys of `d`,
    and raises on a required key left out or on an unknown key."""
    parents = {path.rpartition(".")[0] for path, _ in _FIELDS.values()} - {""}
    nested = {parent: _object(d.pop(parent, {}), parent) for parent in sorted(parents)}
    required = {f.name for f in fields(ScenarioConfig)
                if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for name, (path, kind) in _FIELDS.items():
        parent, _, key = path.rpartition(".")
        node = nested[parent] if parent else d
        if key in node:
            values[name] = kind.load(node.pop(key), path)
        elif name in required:
            raise ConfigError(f"missing required config key {path!r}")
    for parent, node in nested.items():
        _reject_unknown(node, parent)
    _reject_unknown(d, "config")
    return values


def config_from_dict(raw: dict) -> ScenarioConfig:
    d = _object(raw, "config")
    version = d.pop("schema_version", None)
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise ConfigError(f"unsupported schema_version {version!r}")
    if version == 1:
        # Version 2 dropped broadcast_horizon: leader odometry is read on the
        # tick it is sent, so only a horizon of 0 meant what version 2 does.
        horizon = _INT.load(d.pop("broadcast_horizon", 0), "broadcast_horizon")
        if horizon != 0:
            raise ConfigError(f"broadcast_horizon {horizon} is not supported: a version 1 "
                              f"config loads only with broadcast_horizon 0 or absent")
    return ScenarioConfig(**_load_fields(d))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; raises on a repeated key, where json.loads
    would keep its last value."""
    keys = [k for k, _ in pairs]
    for k in keys:
        if keys.count(k) > 1:
            raise ConfigError(f"key {k!r} appears twice in one object")
    return dict(pairs)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
