"""Channel estimators operating on the despread pilot signal.

Covers the full comparison set: the optimal linear MMSE filter with known
covariances under per-block random pilot allocation, the rank-limited
approximate MMSE filter built from the GEVD covariance estimate, the
improved per-block variant that exploits knowledge of the serving cell's
pilot choices, and the least-squares and fixed-allocation MMSE baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covest import LowRankCovEstimate, PilotCovEstimate, _matrix_of
from .linalg import NotPositiveDefinite, hermitize, solve_hermitian

# Spectral handling of the improved filter's corrected pilot covariance,
# which is assembled from noisy estimates and is frequently indefinite at
# practical training lengths.  Eigenvalues are left untouched while the
# matrix is comfortably PD (smallest eigenvalue above GATE * largest) and
# are otherwise raised to FLOOR * largest, bounding the filter's dynamic
# range without disturbing the well-estimated directions.
IMPROVED_EIG_GATE = 1e-3
IMPROVED_EIG_FLOOR = 8e-3


@dataclass
class MmseFilter:
    """Linear channel-estimation filter; the estimate is w^H y.

    clamped marks an improved filter whose corrected pilot covariance had
    its spectrum floored (see improved_mmse_filter).
    """

    w: np.ndarray  # (N, N)
    clamped: bool = False

    def apply(self, y_pilot: np.ndarray) -> np.ndarray:
        """Estimate channels from despread vectors of shape (..., N).

        The product y @ conj(w) is w^H y for every vector at once; the
        sweep harness applies stacks of per-UE filters the same way.
        """
        return np.asarray(y_pilot) @ self.w.conj()


def mmse_optimal_filter(r_pilot, r_cov, power: float) -> MmseFilter:
    """MMSE filter W = sqrt(power) * r_pilot^{-1} r_cov.

    With the true pilot-phase covariance and the true channel covariance
    this is the linear filter minimizing E||h - W^H y||^2 for the despread
    signal under random pilot allocation.  Passing estimated matrices
    yields the corresponding data-driven filter.
    """
    w = np.sqrt(power) * solve_hermitian(_matrix_of(r_pilot), _matrix_of(r_cov))
    return MmseFilter(w=w)


def approx_mmse_filter(lowrank: LowRankCovEstimate, power: float) -> MmseFilter:
    """Rank-limited approximate MMSE filter from a GEVD covariance estimate.

    W = (1/sqrt(power)) X_r diag(v) Q_r^H with v_r = lam_r / sigma_r,
    i.e. (sigma_r - 1) / ((tau_p - 1) sigma_r) per retained mode.  An
    estimate with no retained modes yields the zero filter.
    """
    n = lowrank.scaled_matrix.shape[0]
    if lowrank.rank_effective == 0:
        w = np.zeros((n, n), dtype=complex)
    else:
        v = lowrank.lam / lowrank.sigma
        w = (lowrank.x * v) @ lowrank.q.conj().T / np.sqrt(power)
    return MmseFilter(w=w)


def approx_mmse_estimate(
    lowrank: LowRankCovEstimate, power: float, y_pilot: np.ndarray
) -> np.ndarray:
    """Approximate MMSE estimate evaluated mode by mode.

    h_hat = (1/sqrt(power)) sum_r q_r v_r (x_r^H y); numerically identical
    to applying the matrix form of approx_mmse_filter, but needs only
    rank_effective inner products per estimate.  Accepts batched despread
    vectors of shape (..., N).
    """
    y_pilot = np.asarray(y_pilot, dtype=complex)
    if lowrank.rank_effective == 0:
        return np.zeros_like(y_pilot)
    v = lowrank.lam / lowrank.sigma
    z = v * (y_pilot @ lowrank.x.conj())
    return (z @ lowrank.q.T) / np.sqrt(power)


def improved_mmse_filter(
    pilot_cov: PilotCovEstimate,
    intracell_lowranks: list[LowRankCovEstimate],
    pilot_row: np.ndarray,
    ue: int,
    tau_p: int,
    power: float,
) -> MmseFilter:
    """Per-block MMSE filter using the serving cell's known pilot choices.

    The pilot-phase covariance is corrected per intra-cell UE i != ue:
    a UE sharing this block's pilot contributes at full despreading gain
    (weight tau_p - 1 on its scaled covariance estimate), a UE on another
    pilot is removed entirely (weight -1), replacing the all-UEs-average
    embedded in the time-averaged pilot covariance.  The corrected matrix
    inherits the estimation noise of every subtracted term and is often
    indefinite; its spectrum is floored (see IMPROVED_EIG_FLOOR) whenever
    it is not comfortably positive definite, so the filter stays usable
    instead of amplifying noise through a near-singular inverse.

    Raises
    ------
    NotPositiveDefinite
        If the corrected matrix has no positive eigenvalue at all, which
        signals unusable covariance estimates; callers should fall back to
        the block-independent approximate filter and record the event.
    """
    pilot_row = np.asarray(pilot_row)
    shares = pilot_row == pilot_row[ue]
    m = _matrix_of(pilot_cov).copy()
    for i, lowrank in enumerate(intracell_lowranks):
        if i == ue:
            continue
        weight = (tau_p - 1.0) if shares[i] else -1.0
        m += weight * lowrank.scaled_matrix
    m = hermitize(m)
    eigenvalues, basis = np.linalg.eigh(m)
    if eigenvalues[-1] <= 0:
        raise NotPositiveDefinite("corrected pilot covariance has no signal power")
    clamped = eigenvalues[0] <= IMPROVED_EIG_GATE * eigenvalues[-1]
    if clamped:
        eigenvalues = np.maximum(eigenvalues, IMPROVED_EIG_FLOOR * eigenvalues[-1])
    target = intracell_lowranks[ue].scaled_matrix
    w = (basis / eigenvalues) @ (basis.conj().T @ target)
    return MmseFilter(w=w / np.sqrt(power), clamped=clamped)


def ls_estimate(y_pilot: np.ndarray, power: float, tau_p: int) -> np.ndarray:
    """Least-squares estimate h_hat = y / (sqrt(power) * tau_p).

    Needs no covariance information; interference from UEs sharing the
    same pilot passes straight through (pilot contamination).
    """
    return np.asarray(y_pilot, dtype=complex) / (np.sqrt(power) * tau_p)


def mmse_fixed_filter(
    r_desired: np.ndarray,
    power_desired: float,
    shared: list[tuple[np.ndarray, float]],
    r_nn: np.ndarray,
    tau_p: int,
) -> MmseFilter:
    """LMMSE filter for the despread signal under fixed pilot allocation.

    Only UEs assigned the same pilot appear in the despread signal, so the
    filter matrix aggregates the desired UE, the pilot-sharing interferers
    given as (covariance, power) pairs, and the noise:

        W = sqrt(p) (p tau_p R + sum_i p_i tau_p R_i + R_nn)^{-1} R
    """
    r_desired = np.asarray(r_desired, dtype=complex)
    m = power_desired * tau_p * r_desired + np.asarray(r_nn, dtype=complex)
    for r_i, p_i in shared:
        m = m + p_i * tau_p * np.asarray(r_i, dtype=complex)
    w = np.sqrt(power_desired) * solve_hermitian(hermitize(m), r_desired)
    return MmseFilter(w=w)
