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
from .world import Pose4, RobotTruth, VelocityCommand, frame_offset, step
from .sensing import MeasurementTriplet, NoiseModel
from .regression import (DataRecord, EmptyRecord, MotionProfile, RankDiagnosis,
                         RegressorSample, build_sample, excitation_ratio,
                         observability_probe, true_thetas)
from .estimation import (RelativePoseEstimate, ThetaEstimate,
                         cl_update, reconstruct_pose)
from .cooploc import (LeaderPoseEstimate, MissingNeighborEstimate, TopologyGraph,
                      UnreachableNode, assign_layers, leader_initial_estimate,
                      leader_realtime_estimate)
from .control import (ControlGains, ExcitationTimeout, FormationSpec, StageTracker,
                      TrackingError, stage1_command, stage2_command,
                      tracking_error_estimated, tracking_error_truth)
from .outliers import JudgeQueue, ScreenResult
from .metrics import DetectionStats, convergence_time, detection_stats, smoothness
from .config import (ConfigError, PEBaselineConfig, RandomInit, RobotConfig,
                     ScenarioConfig, config_from_dict, load_config)
from .harness import RunResult, SweepResult, report, run, run_to_dir, sweep, write_run
