"""Triangle-inequality screening of range measurements.

A clean pair of range samples can never differ by more than the sum of the
two robots' displacements in between.  Each candidate is voted on by a
bounded queue of previously accepted triplets; a majority of violations
(strictly above the threshold) marks it as an outlier and it is discarded
without touching the queue.  The queue keeps only the freshest accepted
triplets so odometry drift cannot poison old comparisons.

The queue is a fixed ring of `capacity` rows, one per accepted triplet
laid out as [d, z_i (3), z_j (3), t_k]; at capacity the next triplet
overwrites the oldest row.  All votes on a candidate come from one array
expression over the filled rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensing import MeasurementTriplet


@dataclass(frozen=True)
class ScreenResult:
    is_outlier: bool
    votes: int
    queue_size: int     # queue size at voting time


class JudgeQueue:
    """Bounded queue of accepted triplets used to vote on new candidates."""

    def __init__(self, capacity: int = 20, threshold: float = 0.5):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.capacity = capacity
        self.threshold = threshold
        self._ring = np.zeros((capacity, 8))
        self._oldest = 0      # row of the oldest entry once the ring is full
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def entries(self) -> tuple[MeasurementTriplet, ...]:
        """The queued triplets, oldest first (a snapshot, not the storage)."""
        rows = np.roll(self._ring[:self._size], -self._oldest, axis=0)
        return tuple(MeasurementTriplet(float(r[0]), r[1:4].copy(), r[4:7].copy(),
                                        int(r[7])) for r in rows)

    def accept(self, triplet: MeasurementTriplet) -> None:
        """Enqueue a triplet, evicting the oldest one at capacity."""
        if self._size < self.capacity:
            row = self._size
            self._size += 1
        else:
            row = self._oldest
            self._oldest = (row + 1) % self.capacity
        entry = self._ring[row]
        entry[0] = triplet.d
        entry[1:4] = triplet.z_i
        entry[4:7] = triplet.z_j
        entry[7] = triplet.t_k

    def screen(self, candidate: MeasurementTriplet) -> ScreenResult:
        """Vote the candidate against the queue; accepted candidates are enqueued.

        An entry votes "outlier" when the range difference meets or exceeds
        the summed odometry displacements since that entry.  The verdict is
        outlier iff votes / size is strictly above the threshold; an empty
        queue accepts unconditionally (cold start).
        """
        size = self._size
        votes = 0
        if size:
            filled = self._ring[:size]
            disp = (np.concatenate((candidate.z_i, candidate.z_j)) - filled[:, 1:7]
                    ).reshape(size, 2, 3)
            # vecdot reduces each 3-vector with the same BLAS dot product
            # np.linalg.norm uses, so every slack is bit-equal to the
            # per-entry norm(z_i - z_i') + norm(z_j - z_j').
            dist = np.sqrt(np.vecdot(disp, disp))
            slack = dist[:, 0] + dist[:, 1]
            votes = int(np.count_nonzero(np.abs(candidate.d - filled[:, 0]) >= slack))
        is_outlier = size > 0 and votes / size > self.threshold
        if not is_outlier:
            self.accept(candidate)
        return ScreenResult(is_outlier, votes, size)
