"""The benchmark's workloads: which simulation runs each one performs.

One operation is one simulation run of `uwbio.harness`.  A workload is a
fixed list of operations built from the benchmark seed; a measurement
repeats that list (one "pass") until its time is used up.

Every workload mixes two kinds of operations:

- *reference* operations use fixed simulation seeds.  The accuracy metrics
  (`final_theta_err`, `final_track_pos_m`) are read from them only.  Both
  are deterministic functions of (config, seed), but they scatter by a
  factor of two or more from one seed to the next at realistic noise, so
  a handful of fresh seeds per run could not resolve a change in them.
  On a fixed panel they read the same on every run of the same code and
  move exactly when the estimator changes.
- *drawn* operations take their simulation seeds from the benchmark seed,
  at or above `drawn_base(seed)`, so every run also times and checks
  inputs it has not seen before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from uwbio import harness
from uwbio.config import ScenarioConfig, config_from_dict
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.sensing import NoiseModel

# One realistic sensor model for every workload: 5 cm UWB range noise and
# 2 mm / 1 mrad of odometry noise per step.
NOISE = NoiseModel(sigma_range=0.05, sigma_odom_pos=0.002, sigma_odom_yaw=0.001)

# Outlier probabilities of the mc_outliers cells.  The detection-success
# check applies to all of them (each is <= 0.2).
MC_OUTLIER_PROBS = (0.05, 0.1, 0.2)
MC_DURATION_S = 30.0
MC_REFERENCE_SEEDS = 4
MC_DRAWN_SEEDS = 2

CHAIN_ROBOTS = 10
CHAIN_DURATION_S = 90.0
CHAIN_OUTLIER_PROB = 0.05

FORMATION_REFERENCE_SEEDS = 2

# (outlier probability, run seed) of the reference mc_outliers cell whose
# screened run shows a fault of outliers.JudgeQueue: its first range is an
# injected outlier, which an empty queue accepts unconditionally; every
# clean range after it then draws 1 of 1 votes and is rejected, so the
# screen accepts only outliers (29 of 601 ranges) for the whole run.
KNOWN_FAULT = (0.2, 2)

WORKLOADS = ("chain10_noisy", "mc_outliers", "formation_logs")


@dataclass(frozen=True)
class Operation:
    """One simulation run the benchmark times and checks."""

    label: str
    config: ScenarioConfig
    seed: int
    scored: bool           # counts toward final_theta_err / final_track_pos_m
    writes_logs: bool      # runs through run_to_dir and writes CSV logs
    # Fails checks.check_screen_health on every run: the JudgeQueue fault of
    # KNOWN_FAULT.  Its failure counts in `failed` but leaves `correct` true.
    known_fault: bool = False

    def execute(self, outdir: Path):
        """The timed part: one simulation run, plus log writing if any."""
        if self.writes_logs:
            return harness.run_to_dir(self.config, outdir, seed=self.seed)
        return harness.run(self.config, seed=self.seed)


def drawn_base(seed: int) -> int:
    """First simulation seed of the drawn operations; disjoint from the
    reference seeds, which are below 10000."""
    if seed < 0:
        raise ValueError("the benchmark seed must be >= 0")
    return 10_000 * (seed + 1)


def _chain10_noisy(seed: int) -> list[Operation]:
    noise = replace(NOISE, outlier_prob=CHAIN_OUTLIER_PROB)
    ops = []
    for reference, s in ((True, 0), (False, drawn_base(seed))):
        # Layout and noise both come from the run seed, as in the
        # swarm_size sweep axis.
        cfg = chain_swarm(CHAIN_ROBOTS, seed=s, noise=noise, duration_s=CHAIN_DURATION_S)
        ops.append(Operation(f"chain10/seed={s}", cfg, s, reference, False))
    return ops


def _mc_outliers(seed: int) -> list[Operation]:
    ops = []
    for reference, base_seed, n_seeds in ((True, 0, MC_REFERENCE_SEEDS),
                                          (False, drawn_base(seed), MC_DRAWN_SEEDS)):
        base = two_robot_benchmark(noise=NOISE, seed=base_seed, duration_s=MC_DURATION_S)
        for p in MC_OUTLIER_PROBS:
            # The outlier_prob sweep axis, with the sweep's seed rule.
            cell = replace(base, noise=replace(base.noise, outlier_prob=p))
            for s in range(n_seeds):
                run_seed = base.seed + s
                for screening in (True, False):
                    tag = "on" if screening else "off"
                    ops.append(Operation(f"mc/p={p}/{tag}/seed={run_seed}",
                                         replace(cell, outlier_screening=screening),
                                         run_seed, reference and screening, False,
                                         known_fault=reference and screening
                                         and (p, run_seed) == KNOWN_FAULT))
    return ops


def _formation_logs(seed: int) -> list[Operation]:
    cfg = replace(four_robot_formation(noise=NOISE), outlier_screening=False)
    seeds = [(True, s) for s in range(FORMATION_REFERENCE_SEEDS)]
    seeds.append((False, drawn_base(seed)))
    return [Operation(f"formation/seed={s}", cfg, s, reference, True)
            for reference, s in seeds]


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass of `workload` for benchmark seed `seed`."""
    by_name = {"chain10_noisy": _chain10_noisy, "mc_outliers": _mc_outliers,
               "formation_logs": _formation_logs}
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    return by_name[workload](seed)


def validate(ops: list[Operation]) -> None:
    """Round-trip every config through its JSON form, as `uwbio run --config`
    loads it, and require the same canonical hash."""
    for op in ops:
        loaded = config_from_dict(json.loads(op.config.canonical_json()))
        if loaded.config_hash() != op.config.config_hash():
            raise ValueError(f"{op.label}: config does not survive its JSON round trip")
