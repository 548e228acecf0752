"""Per-layer tracing from the benchmark's side of each layer boundary.

The layers are the modules of `uwbio`.  A Tracer wraps their public entry
points while it is active: methods on their classes, and free functions on
the names `uwbio.harness` imported (the harness looks those names up at
call time, so the wrappers see every call the tick loop makes).  Nothing
inside the program changes.

Each wrapper counts calls and measures self time: its own duration minus
the part of it that wrapped callees took.  Some wrappers also tally an
outcome, from which a ratio of useful work to attempts is reported.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path

from uwbio import control, harness, outliers, regression, sensing
from uwbio.cooploc import MissingNeighborEstimate
from uwbio.geometry import DegenerateRotation

METHODS = (
    (sensing.RangeStream, "sample"),
    (sensing.OdomStream, "update"),
    (outliers.JudgeQueue, "screen"),
    (regression.DataRecord, "add"),
    (control.StageTracker, "update"),
)

HARNESS_FUNCTIONS = (
    "build_sample", "excitation_ratio", "cl_update", "reconstruct_pose",
    "leader_initial_estimate", "leader_realtime_estimate",
    "stage1_command", "stage2_command", "tracking_error_estimated", "tracking_error_truth",
    "step", "convergence_time", "tail_mean", "smoothness", "detection_stats",
    "run", "write_run",
)


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


# Outcome tallies: (metric suffix, function of (call args, result) giving
# the amount to add).  A call that raises passes its exception as result.
TALLIES = {
    "outliers.JudgeQueue.screen": (
        "accept_ratio", lambda a, r: not isinstance(r, Exception) and not r.is_outlier),
    "regression.build_sample": ("none_ratio", lambda a, r: r is None),
    "regression.DataRecord.add": ("kept_ratio", lambda a, r: r is True),
    "estimation.cl_update": ("noop_ratio", lambda a, r: r is a[0]),
    "estimation.reconstruct_pose": (
        "degenerate_ratio", lambda a, r: isinstance(r, DegenerateRotation)),
    "cooploc.leader_initial_estimate": (
        "missing_ratio", lambda a, r: isinstance(r, MissingNeighborEstimate)),
    "harness.write_run": (
        "bytes", lambda a, r: 0 if isinstance(r, Exception) else _dir_bytes(r)),
}


def layer_name(fn) -> str:
    """`<module>.<qualified name>` of a program function, e.g.
    `outliers.JudgeQueue.screen`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    tally: float = 0.0


class Tracer:
    """Context manager that wraps the layer entry points while active."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = layer_name(fn)
        st = self.stats.setdefault(name, Stat())
        tally = TALLIES.get(name, (None, None))[1]
        stack = self._stack
        clock = time.perf_counter

        def close(t0, args, outcome):
            elapsed = clock() - t0
            st.calls += 1
            st.total_s += elapsed
            st.self_s += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
            if tally is not None:
                st.tally += tally(args, outcome)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                close(t0, args, exc)
                raise
            close(t0, args, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        targets = [(cls, attr) for cls, attr in METHODS]
        targets += [(harness, attr) for attr in HARNESS_FUNCTIONS]
        for owner, attr in targets:
            fn = getattr(owner, attr)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def layer_metrics(calls: dict[str, Stat], self_s: dict[str, float]) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit).  `calls` holds the counts
    and tallies of one traced pass, `self_s` the self time per pass to report.
    Every wrapped entry point appears, called or not."""
    out = {}
    for name in sorted(calls):
        st = calls[name]
        out[f"{name}.calls"] = (st.calls, "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        if name in TALLIES:
            suffix = TALLIES[name][0]
            if suffix == "bytes":
                out[f"{name}.bytes"] = (int(st.tally), "B")
            else:
                # A layer that was never called reports a ratio of 0.
                out[f"{name}.{suffix}"] = (st.tally / st.calls if st.calls else 0.0, "1")
    return out

