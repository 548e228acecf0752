"""Concurrent-learning parameter estimator and relative pose reconstruction.

Each ordered robot pair owns a 7-vector estimate updated from the current
innovation plus innovations replayed over the recorded history:

    theta <- theta - eta * [ S theta - b + phi_k (phi_k' theta - y_k) ]

with S, b maintained by the pair's DataRecord.  The learning rate is
eta = lambda_min(S) / (lambda_max(U_k) + lambda_max(S)^2) as stated by the
update law; a second variant with denominator (lambda_max(U_k) +
lambda_max(S))^2, the one the convergence proof actually uses, is
selectable.  lambda_max(U_k) = phi_k'phi_k = 1 for unit-norm regressors.
While the record is rank deficient lambda_min is 0 and the update is a
no-op, so the estimate simply waits for sufficient excitation.

The estimates of all pairs are rows of one (pairs, 7) array, and
`cl_update_all` steps every pair that got a sample in a tick at once, one
stacked product per record length; `cl_update` is its one-pair front end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import NORM_TOL, DegenerateRotation, Rotation3Z, unit_pair
from .regression import THETA_DIM, DataRecord, RecordBank, RegressorSample, pair_index

RATE_VARIANTS = ("stated", "proof")


@dataclass(frozen=True)
class ThetaEstimate:
    """Current parameter estimate bundled with its pair's data record."""

    theta_hat: np.ndarray
    data: DataRecord
    rate_variant: str = "stated"


@dataclass(frozen=True)
class RelativePoseEstimate:
    """Initial relative position and frame rotation recovered from theta."""

    p0_hat: np.ndarray
    R0_hat: Rotation3Z


def learning_rate(lam_min: float, lam_max: float, lam_u: float = 1.0,
                  variant: str = "stated") -> float:
    """eta of one pair from its record's eigenvalues and lambda_max(U_k);
    0 while the record is rank deficient (lambda_min = 0)."""
    if variant == "stated":
        denom = lam_u + lam_max ** 2
    elif variant == "proof":
        denom = (lam_u + lam_max) ** 2
    else:
        raise ValueError(f"unknown rate variant {variant!r}")
    if denom <= 0.0:
        return 0.0
    return lam_min / denom


def cl_update_all(theta: np.ndarray, bank: RecordBank, rows: list[int],
                  phi: np.ndarray, y: np.ndarray, variant: str = "stated") -> list[bool]:
    """One concurrent-learning step for pairs rows[m] (ascending, with
    non-empty records) against their records plus the current samples
    (phi[m], y[m]), written into theta[rows] in place; theta (pairs, 7) is
    on the bank's pair axis.  Returns which pairs moved: a pair whose
    learning rate is 0 keeps its estimate untouched.

    The rates are scalar per pair; the products run stacked per record
    length, so every product has the shape it has for one pair (a record
    zero-padded to a longer length sums in another order and moves the
    last bits).
    """
    lam_min, lam_max = bank.lambda_min.tolist(), bank.lambda_max.tolist()
    eta = [learning_rate(lam_min[r], lam_max[r], lam_u, variant)
           for r, lam_u in zip(rows, np.vecdot(phi, phi).tolist())]
    groups: dict[int, list[int]] = {}
    for m, (r, rate) in enumerate(zip(rows, eta)):
        if rate != 0.0:
            groups.setdefault(bank.n[r], []).append(m)
    for length, sel in groups.items():
        r = pair_index([rows[m] for m in sel], len(theta))
        cur = pair_index(sel, len(rows))
        th = theta[r]
        phis = bank.phis[r, :length]
        # Replay innovations over the raw recorded samples; with all
        # residuals zero the step is exactly zero, not just zero up to
        # rounding.
        resid = np.matmul(phis, th[:, :, None])[:, :, 0] - bank.ys[r, :length]
        grad = np.matmul(phis.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]
        grad += phi[cur] * (np.vecdot(phi[cur], th) - y[cur])[:, None]
        theta[r] = th - np.array([eta[m] for m in sel])[:, None] * grad
    return [rate != 0.0 for rate in eta]


def cl_update(est: ThetaEstimate, current: RegressorSample) -> ThetaEstimate:
    """One concurrent-learning step against the record plus the current
    sample: a front end to `cl_update_all` with one pair."""
    data = est.data
    if len(data) == 0:
        raise ValueError("cl_update requires a non-empty record")
    # The record may be one row of a bank of several pairs (a run's final
    # estimators are); the estimate goes into the same row of a bank-sized
    # theta.
    bank, row = data._bank, data._row
    theta = np.zeros((len(bank.n), THETA_DIM))
    theta[row] = est.theta_hat
    moved = cl_update_all(theta, bank, [row], current.phi[None],
                          np.array([current.y]), est.rate_variant)
    return replace(est, theta_hat=theta[row]) if moved[0] else est


def reconstruct_poses(theta: np.ndarray) -> list[tuple[float, ...] | None]:
    """Initial relative pose of every pair of a (pairs, 7) estimate array, as
    (x, y, z, c, s): the position block plus the normalized trig pair; None
    while a pair's trig pair is uninformative (the caller then keeps what it
    built from that pair before)."""
    out = []
    for x, y, z, _, _, c_raw, s_raw in theta.tolist():
        try:
            out.append((x, y, z, *unit_pair(c_raw, s_raw)))
        except DegenerateRotation:
            out.append(None)
    return out


def reconstruct_pose(est: ThetaEstimate) -> RelativePoseEstimate:
    """One pair's initial relative pose: a front end to `reconstruct_poses`.
    Raises DegenerateRotation while the trig pair is uninformative."""
    pose, = reconstruct_poses(est.theta_hat[None])
    if pose is None:
        raise DegenerateRotation(f"trig pair {est.theta_hat[5:].tolist()} is shorter than "
                                 f"{NORM_TOL}")
    return RelativePoseEstimate(np.array(pose[:3]), Rotation3Z(*pose[3:]))
