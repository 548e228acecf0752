"""Range-plus-odometry relative pose estimation and formation control."""

__version__ = "0.1.0"

from .geometry import (Angle, DegenerateRotation, PlanarRotation, Rotation3Z,
                       cross2, norm_project, wrap_angle)
from .world import Pose4, RobotTruth, VelocityCommand, relative_truth, step
from .sensing import MeasurementTriplet, NoiseModel, OdomBroadcast
from .regression import (DataRecord, EmptyRecord, MotionProfile, RankDiagnosis,
                         RecordPolicy, RegressorSample, ThetaTrue, build_sample,
                         excitation_ratio, observability_probe)
from .estimation import (RelativePoseEstimate, StaleBroadcast, ThetaEstimate,
                         cl_update, realtime_relative_pose, reconstruct_pose)
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
