"""Channel estimators operating on the despread pilot signal.

Covers the full comparison set: the optimal linear MMSE filter with known
covariances under per-block random pilot allocation, the rank-limited
approximate MMSE filter built from the GEVD covariance estimate, the
improved per-block variant that exploits knowledge of the serving cell's
pilot choices, and the least-squares and fixed-allocation MMSE baselines.

A filter is an (N, N) array W, or a (K, N, N) stack with one filter per
UE; the estimate of a despread vector y is W^H y, computed for a whole
batch of vectors (..., N) as y @ W.conj().  The improved filter, built
per pilot pattern for a few vectors each, stays factored (`MmseFilter`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covest import LowRankCovEstimate
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
    """Result of improved_mmse_filter, kept factored: the filter is
    W = V diag(1 / eigenvalues) V^H S / sqrt(power), with V and the
    eigenvalues of the corrected pilot covariance and S the UE's scaled
    covariance estimate.  clamped tells whether the spectrum was floored.

    `apply` filters a few vectors without forming W; every other builder
    returns a plain (N, N) array.
    """

    basis: np.ndarray  # (N, N) eigenvectors V
    eigenvalues: np.ndarray  # (N,), floored when clamped
    target: np.ndarray  # (N, N) S
    power: float
    clamped: bool = False

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Estimates W^H y of despread vectors y (..., N), as y @ w.conj()."""
        v = self.basis
        projected = (y @ v.conj()) / self.eigenvalues
        return (projected @ v.T) @ self.target.conj() / np.sqrt(self.power)

    @property
    def w(self) -> np.ndarray:
        """The dense filter W (N, N)."""
        w = (self.basis / self.eigenvalues) @ (self.basis.conj().T @ self.target)
        return w / np.sqrt(self.power)


def mmse_optimal_filter(r_pilot: np.ndarray, r_cov: np.ndarray, power: float) -> np.ndarray:
    """MMSE filter W = sqrt(power) * r_pilot^{-1} r_cov.

    With the true pilot-phase covariance and the true channel covariance
    this is the linear filter minimizing E||h - W^H y||^2 for the despread
    signal under random pilot allocation.  Passing estimated matrices
    yields the corresponding data-driven filter.  Stacks (K, N, N) of
    both give the K filters (K, N, N).
    """
    return np.sqrt(power) * solve_hermitian(r_pilot, r_cov)


def approx_mmse_filter(lowrank: LowRankCovEstimate, power: float) -> np.ndarray:
    """Rank-limited approximate MMSE filter (N, N) from a GEVD covariance estimate.

    W = (1/sqrt(power)) X_r diag(v) Q_r^H with v_r = lam_r / sigma_r,
    i.e. (sigma_r - 1) / ((tau_p - 1) sigma_r) per retained mode.  An
    estimate with no retained modes yields the zero filter.
    """
    v = lowrank.lam / lowrank.sigma
    return (lowrank.x * v) @ lowrank.q.conj().T / np.sqrt(power)


def improved_pilot_base(
    pilot_cov: np.ndarray, intracell_lowranks: list[LowRankCovEstimate], ue: int
) -> np.ndarray:
    """The part of improved_mmse_filter's corrected pilot covariance that no
    pilot pattern changes: pilot_cov minus every other intra-cell UE's
    scaled covariance estimate, (N, N)."""
    base = np.array(pilot_cov, dtype=complex)
    for i, lowrank in enumerate(intracell_lowranks):
        if i != ue:
            base -= lowrank.scaled_matrix
    return base


def improved_mmse_filter(
    pilot_cov: np.ndarray,
    intracell_lowranks: list[LowRankCovEstimate],
    pilot_row: np.ndarray,
    ue: int,
    tau_p: int,
    power: float,
    base: np.ndarray | None = None,
) -> MmseFilter:
    """Per-block MMSE filter using the serving cell's known pilot choices.

    pilot_cov is UE `ue`'s (N, N) pilot covariance, exactly Hermitian as
    estimate_pilot_cov returns it, and pilot_row (K,) the serving cell's
    pilots in this block.  The pilot-phase covariance is
    corrected per intra-cell UE i != ue: a UE sharing this block's pilot
    contributes at full despreading gain (weight tau_p - 1 on its scaled
    covariance estimate), a UE on another pilot is removed entirely
    (weight -1), replacing the all-UEs-average embedded in the
    time-averaged pilot covariance.  The matrix is assembled as the
    pattern-independent `base` (improved_pilot_base, computed here unless
    a caller that builds several patterns of one UE passes it) plus tau_p
    times each sharer's estimate.  The corrected matrix
    inherits the estimation noise of every subtracted term and is often
    indefinite; its spectrum is floored (see IMPROVED_EIG_FLOOR) whenever
    it is not comfortably positive definite, so the filter stays usable
    instead of amplifying noise through a near-singular inverse.  The
    result keeps the eigendecomposition, so applying it to a few vectors
    costs no (N, N) filter.

    Raises
    ------
    NotPositiveDefinite
        If the corrected matrix has no positive eigenvalue at all, which
        signals unusable covariance estimates; callers should fall back to
        the block-independent approximate filter and record the event.
    """
    if base is None:
        base = improved_pilot_base(pilot_cov, intracell_lowranks, ue)
    pilot_row = np.asarray(pilot_row)
    m = base.copy()
    for i, lowrank in enumerate(intracell_lowranks):
        if i != ue and pilot_row[i] == pilot_row[ue]:
            m += tau_p * lowrank.scaled_matrix
    # Exactly Hermitian: pilot_cov and every scaled_matrix are, and so are
    # their sums and real multiples.
    eigenvalues, basis = np.linalg.eigh(m)
    if eigenvalues[-1] <= 0:
        raise NotPositiveDefinite("corrected pilot covariance has no signal power")
    clamped = eigenvalues[0] <= IMPROVED_EIG_GATE * eigenvalues[-1]
    if clamped:
        eigenvalues = np.maximum(eigenvalues, IMPROVED_EIG_FLOOR * eigenvalues[-1])
    target = intracell_lowranks[ue].scaled_matrix
    return MmseFilter(basis, eigenvalues, target, power, bool(clamped))


def ls_estimate(y_pilot: np.ndarray, power: float, tau_p: int) -> np.ndarray:
    """Least-squares estimate h_hat = y / (sqrt(power) * tau_p).

    Needs no covariance information; interference from UEs sharing the
    same pilot passes straight through (pilot contamination).
    """
    return np.asarray(y_pilot, dtype=complex) / (np.sqrt(power) * tau_p)


def fixed_pilot_cov(
    covs: np.ndarray, power: float, pilot_row: np.ndarray, r_nn: np.ndarray, tau_p: int
) -> np.ndarray:
    """M (K, N, N) with E[y_k y_k^H] = tau_p M_k for the despread signal y_k
    of each serving-cell UE k under fixed pilot allocation.

    covs (L, K, N, N) holds every UE's covariance seen at the serving BS
    (cell 0) and pilot_row (L, K) the fixed pilot of every UE.  Only UEs on
    UE k's pilot appear in y_k, so, all at the same power p,

        M_k = sum_{(l, i) on k's pilot} p tau_p R_li + R_nn
    """
    pilot_row = np.asarray(pilot_row)
    shares = pilot_row[None] == pilot_row[0][:, None, None]  # (K, L, K)
    m = np.einsum("kli,linm->knm", (power * tau_p) * shares, covs, optimize=True) + r_nn  # GEMM
    return hermitize(m)


def mmse_fixed_filter(
    covs: np.ndarray, power: float, pilot_row: np.ndarray, r_nn: np.ndarray, tau_p: int
) -> np.ndarray:
    """LMMSE filters (K, N, N) for the serving cell under fixed pilot
    allocation, W_k = sqrt(p) M_k^{-1} R_0k with M_k of fixed_pilot_cov."""
    m = fixed_pilot_cov(covs, power, pilot_row, r_nn, tau_p)
    return np.sqrt(power) * solve_hermitian(m, covs[0])
