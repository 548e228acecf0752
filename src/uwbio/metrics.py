"""Post-processing metrics over run logs: pure functions of recorded series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def smoothness(v_series, v_leader, dt: float) -> float:
    """Time integral of the command deviation from the leader (left Riemann sum).

    Both series are (T, 3) stacks of (v_h, v_z, w) commands; lower is smoother.
    """
    v_series = np.asarray(v_series, dtype=float)
    v_leader = np.asarray(v_leader, dtype=float)
    if v_series.shape != v_leader.shape:
        raise ValueError("series must have equal shapes")
    if len(v_series) == 0:
        return 0.0
    return float(np.linalg.norm(v_series - v_leader, axis=1).sum() * dt)


def convergence_time(err, truth_magnitude: float, ratio: float = 0.05,
                     dt: float = 1.0) -> float | None:
    """First time after which the relative error stays below `ratio` for the
    remainder of the series (sustained criterion).  None when never satisfied.
    """
    if truth_magnitude <= 0:
        raise ValueError("truth magnitude must be positive")
    rel = np.asarray(err, dtype=float) / truth_magnitude
    below = rel < ratio
    if not below[-1]:
        return None
    # Last index where the criterion is violated; converged right after it.
    above = np.flatnonzero(~below)
    first = 0 if len(above) == 0 else int(above[-1]) + 1
    return first * dt


@dataclass(frozen=True)
class DetectionStats:
    """Outlier screening tallies against the injected ground truth."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def success_rate(self) -> float | None:
        """Detected / injected outliers; None when nothing was injected."""
        injected = self.true_positives + self.false_negatives
        if injected == 0:
            return None
        return self.true_positives / injected

    @property
    def false_positive_rate(self) -> float:
        inliers = self.false_positives + self.true_negatives
        if inliers == 0:
            return 0.0
        return self.false_positives / inliers


def detection_stats(events) -> DetectionStats:
    """Tally (flagged_outlier, injected_outlier) event pairs."""
    tp = fp = tn = fn = 0
    for flagged, injected in events:
        if injected and flagged:
            tp += 1
        elif injected and not flagged:
            fn += 1
        elif not injected and flagged:
            fp += 1
        else:
            tn += 1
    return DetectionStats(tp, fp, tn, fn)


@dataclass
class RunMetrics:
    """Summary numbers distilled from one run's logs."""

    # Final estimation error per ordered pair: mean |theta_err| over the
    # last tenth of the run (noise-robust reading of "final").
    final_theta_err: dict = field(default_factory=dict)
    theta_convergence_s: dict = field(default_factory=dict)
    q0_convergence_s: dict = field(default_factory=dict)
    final_tracking_pos: dict = field(default_factory=dict)
    final_tracking_yaw: dict = field(default_factory=dict)
    smoothness_total: dict = field(default_factory=dict)
    smoothness_stage2: dict = field(default_factory=dict)
    detection: DetectionStats | None = None


def tail_mean(series, fraction: float = 0.1) -> float:
    series = np.asarray(series, dtype=float)
    n = max(1, int(len(series) * fraction))
    return float(np.mean(series[-n:]))
