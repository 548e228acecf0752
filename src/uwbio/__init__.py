"""Range-plus-odometry relative pose estimation and formation control."""

__version__ = "0.1.0"

import os

# Every matrix the pipeline multiplies, inverts or diagonalizes is at most
# 7x7 per robot pair, which OpenBLAS never splits across threads; its worker
# pool only spins, about 0.18 s of CPU per process on a 2-core host.  Pin it
# to one thread before numpy is first imported, unless the caller chose a
# thread count.  If numpy was imported before this package, it does nothing.
if not any(os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os

from .geometry import Angle, DegenerateRotation, Rotation3Z, cross2
from .world import Pose4, RobotTruth, VelocityCommand, advance, frame_offset
from .sensing import NoiseModel, RangeStream, odom_step
from .regression import (DataRecord, MotionProfile, RankDiagnosis, RecordBank, RegressorSample,
                         build_samples, excitation_ratios, observability_probe, true_thetas)
from .estimation import ThetaEstimate, cl_update_all, reconstruct_poses
from .cooploc import (LeaderPoseEstimate, TopologyGraph, UnreachableNode, assign_layers,
                      compose_layers, leader_realtime_rows)
from .control import (ControlGains, ExcitationTimeout, FormationSpec, StageTracker,
                      stage1_rows, stage2_rows, tracking_error_rows, tracking_error_truth_rows)
from .outliers import JudgeBank
from .metrics import DetectionStats, convergence_time, detection_stats, smoothness
from .config import (ConfigError, PEBaselineConfig, RandomInit, RobotConfig,
                     ScenarioConfig, config_from_dict, load_config)
from .harness import RunResult, SweepResult, report, run, run_to_dir, sweep, write_run
