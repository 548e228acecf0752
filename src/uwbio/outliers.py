"""Triangle-inequality screening of range measurements.

A clean pair of range samples can never differ by more than the sum of the
two robots' displacements in between.  Each candidate is voted on by a
bounded queue of previously accepted triplets; a majority of violations
(strictly above the threshold) marks it as an outlier and it is discarded
without touching the queue.  The queue keeps only the freshest accepted
triplets so odometry drift cannot poison old comparisons.

The queues of all pairs are stacked on a leading pair axis (`JudgeBank`):
each is a fixed ring of `capacity` rows, one per accepted triplet laid out
as [d, z_i (3), z_j (3)]; at capacity the next triplet overwrites the
oldest row.  All votes of all pairs in a tick come from one array
expression over the rings.  The front end `JudgeQueue.screen` and its
`ScreenResult` are kept for `benchmarks/tracing.py` until ROADMAP item 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import row_norms
from .sensing import MeasurementTriplet


@dataclass(frozen=True)
class ScreenResult:
    is_outlier: bool
    votes: int
    queue_size: int     # queue size at voting time


class JudgeBank:
    """The judge queues of several pairs, stacked on a leading pair axis.

    `ring[p]` holds pair p's accepted triplets, one row each laid out as
    [d, z_i (3), z_j (3)]; `count[p]` triplets were accepted so far, and
    the next one goes to row count % capacity, so once the ring is full it
    overwrites the oldest entry.  Rows not yet written hold NaN, which
    never votes.  The vote reads the ring through the views `_d` and `_z`.
    """

    def __init__(self, pairs: int, capacity: int = 20, threshold: float = 0.5):
        self.capacity = capacity
        self.threshold = threshold
        self.ring = np.full((pairs, capacity, 7), np.nan)
        self.count = [0] * pairs
        self._d = self.ring[:, :, 0]
        self._z = self.ring[:, :, 1:].reshape(pairs, capacity, 2, 3)

    @property
    def size(self) -> list[int]:
        """Queued triplets per pair."""
        return [min(c, self.capacity) for c in self.count]

    def accept_all(self, rows: list[int], cand: np.ndarray) -> None:
        """Enqueue cand[r] (a ring row) into the queue of each pair r in
        rows, evicting the oldest entry of a full queue."""
        for r in rows:
            self.ring[r, self.count[r] % self.capacity] = cand[r]
            self.count[r] += 1

    def screen_all(self, d: np.ndarray, z: np.ndarray) -> tuple[list[bool], list[int], list[int]]:
        """Vote one candidate per pair, range d[p] with odometry
        z[p] = [z_i, z_j], against that pair's queue and enqueue the
        accepted ones; returns (is_outlier, votes, queue size at voting
        time), one entry per pair.

        An entry votes "outlier" when the range difference meets or exceeds
        the summed odometry displacements since that entry.  The verdict is
        outlier iff votes / size is strictly above the threshold; an empty
        queue accepts unconditionally (cold start).
        """
        # Every slack is the per-entry norm(z_i - z_i') + norm(z_j - z_j').
        dist = row_norms(z.reshape(len(d), 1, 2, 3) - self._z)
        against = np.abs(d[:, None] - self._d) >= dist[..., 0] + dist[..., 1]
        votes = against.sum(axis=1).tolist()
        size = self.size
        is_outlier = [n > 0 and v / n > self.threshold for v, n in zip(votes, size)]
        ok = [p for p, out in enumerate(is_outlier) if not out]
        if ok:
            self.accept_all(ok, np.column_stack((d, z)))
        return is_outlier, votes, size


class JudgeQueue:
    """Bounded queue of accepted triplets used to vote on new candidates:
    a front end to a JudgeBank of one pair."""

    def __init__(self, capacity: int = 20, threshold: float = 0.5):
        self._bank = JudgeBank(1, capacity, threshold)

    def screen(self, candidate: MeasurementTriplet) -> ScreenResult:
        """Vote the candidate against the queue; accepted candidates are
        enqueued (see JudgeBank.screen_all).  The queue keeps no t_k."""
        z = np.concatenate((candidate.z_i, candidate.z_j))
        out, votes, size = self._bank.screen_all(np.array([candidate.d]), z[None])
        return ScreenResult(out[0], votes[0], size[0])
