"""Data-driven covariance estimation for the despread uplink signal.

Two second-order statistics can be estimated at a BS without any
cross-cell cooperation: the per-UE pilot-phase covariance of the despread
signal, and the combined covariance of all antenna samples (pilot and
data phases together).  Their difference isolates the serving UE's
channel covariance; this module implements both the direct subtraction
estimator and the rank-limited estimator built from the generalized
eigenvalue decomposition of the pencil {pilot covariance, combined
covariance}, which keeps only modes whose generalized eigenvalue exceeds
one.

Estimates are plain complex arrays: the combined covariance is one
(N, N) matrix per BS, the pilot covariances of K UEs are one (K, N, N)
stack, and only the rank-limited estimate carries its pencil modes in a
`LowRankCovEstimate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.blas import zherk

from .linalg import gevd, hermitize, load_diagonal, retry_loaded

# Eigenvalues this close to 1 carry no usable signal power and are never kept.
SIGMA_ONE_TOL = 1e-9


class DegeneratePilotCount(ValueError):
    """Raised when tau_p < 2: the covariance separation is undefined."""


@dataclass
class LowRankCovEstimate:
    """Rank-limited estimate of one UE's scaled channel covariance.

    scaled_matrix equals power * R_hat and is assembled as the Hermitian
    part of Q_r diag(lam) Q_r^H from the retained pencil modes, so that it
    equals its conjugate transpose bit for bit.  sigma holds the
    retained generalized eigenvalues (all > 1), lam the mode weights
    (sigma - 1) / (tau_p - 1), and x the dual basis columns satisfying
    x_r^H q_s = delta_rs.  loaded is True when the combined covariance
    failed its Cholesky screen and the pencil was solved with it loaded.
    """

    scaled_matrix: np.ndarray
    rank_requested: int
    rank_effective: int
    q: np.ndarray  # (N, rank_effective)
    x: np.ndarray  # (N, rank_effective)
    sigma: np.ndarray  # (rank_effective,)
    lam: np.ndarray  # (rank_effective,)
    loaded: bool

    def truncated(self, rank: int) -> LowRankCovEstimate:
        """The estimate gevd_lowrank_estimator returns for `rank` (at most
        rank_requested) on the same pencil, bit for bit, without a second
        GEVD: the leading modes of this one."""
        if not 1 <= rank <= self.rank_requested:
            raise ValueError(f"rank must be in [1, {self.rank_requested}], got {rank}")
        if rank == self.rank_requested:
            return self
        return _lowrank(self.q, self.x, self.sigma, self.lam, rank, self.loaded)


# Blocks whose Grams one zherk call sums: a divisor of the harness's
# batch size, so that a batch's sums hold whole groups.
GRAM_GROUP = 16


class AllCovAccumulator:
    """Streaming sum of per-block Grams x_b x_b^H: a sample covariance, or,
    with `ues`, one per UE on a leading axis.

    The Grams of each GRAM_GROUP consecutive blocks, counted from the
    first block added, are summed by one BLAS Hermitian rank-k update
    (zherk) per UE into the lower triangle of the running sum, group after
    group.  An incomplete group's blocks are kept (a copy) until it is
    complete, and a reading of the sum (`estimate`, `merge`) adds them as
    a group of their own.  So the sum of a run of blocks is the same bits
    however its blocks are split among `add` calls.
    """

    def __init__(self, n_antennas: int, ues: int | None = None):
        lead = () if ues is None else (ues,)
        self._sum = np.zeros((*lead, n_antennas, n_antennas), dtype=complex)
        self._samples = 0
        self._pending = None  # the blocks of the incomplete group

    def add(self, signals: np.ndarray) -> None:
        """Accumulate signals (B, [K,] N, S), or one block ([K,] N, S),
        the K axis present when the accumulator has a UE axis."""
        blocks = np.asarray(signals, dtype=complex)
        if blocks.ndim == self._sum.ndim:
            blocks = blocks[None]
        self._samples += len(blocks) * blocks.shape[-1]
        if self._pending is not None:
            blocks = np.concatenate([self._pending, blocks])
        whole = len(blocks) - len(blocks) % GRAM_GROUP
        _add_grams(self._sum, blocks[:whole])
        self._pending = blocks[whole:].copy() if whole < len(blocks) else None

    def _total(self) -> np.ndarray:
        """The sum, with the Grams of the incomplete group added."""
        if self._pending is None:
            return self._sum
        total = self._sum.copy()
        _add_grams(total, self._pending)
        return total

    def merge(self, other: AllCovAccumulator) -> None:
        """Add every sample accumulated by `other`."""
        self._sum += other._total()
        self._samples += other._samples

    def copy(self) -> AllCovAccumulator:
        """An accumulator of the samples of this one, independent of it."""
        other = AllCovAccumulator.__new__(AllCovAccumulator)
        other._sum = self._sum.copy()
        other._samples = self._samples
        other._pending = self._pending  # never written in place
        return other

    def estimate(self) -> np.ndarray:
        """The sample covariance ([K,] N, N) of every sample added so far,
        exactly Hermitian."""
        if self._samples == 0:
            raise ValueError("no samples accumulated")
        # Only the lower triangle holds the sum; the rest is zero.
        low = self._total() / self._samples
        return low + np.tril(low, -1).conj().swapaxes(-1, -2)


def _add_grams(sums: np.ndarray, blocks: np.ndarray) -> None:
    """Add to the lower triangles of `sums` ([K,] N, N) the Grams of
    `blocks` (B, [K,] N, S), one zherk call per UE and GRAM_GROUP blocks."""
    n, s = blocks.shape[-2:]
    # zherk(trans=2) of the F-ordered transpose of a C-ordered (N, M)
    # sample matrix x adds conj(x x^H) to the upper triangle of an F-ordered
    # matrix: x x^H in the lower triangle of its C-ordered transpose.
    grams = [gram.T for gram in sums.reshape(-1, n, n)]
    for first in range(0, len(blocks), GRAM_GROUP):
        group = blocks[first : first + GRAM_GROUP].reshape(-1, len(grams), n, s)
        # Per UE, the group's samples as one C-ordered (N, G S) matrix.
        x = np.ascontiguousarray(group.transpose(1, 2, 0, 3)).reshape(len(grams), n, -1)
        for gram, samples in zip(grams, x):
            zherk(1.0, samples.T, 1.0, gram, 2, 0, 1)


def estimate_pilot_cov(
    acc: AllCovAccumulator, tau_p: int, loading_factor: float = 0.0
) -> np.ndarray:
    """Time-averaged pilot-phase covariance ([K,] N, N) from the sum `acc`
    of T despread vectors y_t per UE, each added as a one-sample block:
    (1 / (T tau_p)) sum_t y_t y_t^H plus optional diagonal loading of
    loading_factor * trace / N."""
    return load_diagonal(acc.estimate() / tau_p, float(loading_factor))


def subtraction_estimator(
    pilot_cov: np.ndarray, all_cov: np.ndarray, tau_p: int, power: float
) -> np.ndarray:
    """Channel covariance estimate by direct subtraction.

    Returns (pilot_cov - all_cov) / ((tau_p - 1) * power), Hermitian by
    construction; pilot covariances (K, N, N) against the combined
    covariance (N, N) give K estimates (K, N, N).  On sample inputs the
    result is generally not PSD and may be indefinite; use the GEVD
    estimator when a valid covariance is required.
    """
    if tau_p < 2:
        raise DegeneratePilotCount("tau_p must be >= 2")
    return hermitize(np.subtract(pilot_cov, all_cov)) / ((tau_p - 1) * power)


def gevd_lowrank_estimator(
    pilot_cov: np.ndarray, all_cov: np.ndarray, tau_p: int, power: float, rank: int
) -> LowRankCovEstimate:
    """Rank-limited covariance estimate from the GEVD of {pilot, combined}.

    Both covariances are (N, N), the pilot one of a single UE.  Decomposes
    pilot_cov = Q Sigma Q^H and all_cov = Q Q^H, then keeps at most `rank`
    modes among those with generalized eigenvalue above one;
    the retained mode r contributes (sigma_r - 1)/(tau_p - 1) q_r q_r^H to
    power * R_hat.  If the combined covariance is not positive definite, a
    single diagonal-loading retry is attempted before giving up, and the
    estimate reports it as `loaded`.
    """
    if tau_p < 2:
        raise DegeneratePilotCount("tau_p must be >= 2")
    b = np.asarray(all_cov)
    n = b.shape[0]
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    result, loaded = retry_loaded(partial(gevd, pilot_cov), b)

    above_one = int((result.eigenvalues > 1.0 + SIGMA_ONE_TOL).sum())
    sigma = result.eigenvalues[:above_one]
    lam = (sigma - 1.0) / (tau_p - 1.0)
    return _lowrank(result.Q, result.X, sigma, lam, rank, loaded)


def _lowrank(q, x, sigma, lam, rank: int, loaded: bool) -> LowRankCovEstimate:
    """The estimate of rank at most `rank` from pencil modes q, x in
    descending order; sigma and lam hold every mode above one, or at least
    `rank` of them."""
    r = min(rank, len(sigma))
    q = q[:, :r]
    return LowRankCovEstimate(
        # Exactly Hermitian, so that sums of estimates are too.
        scaled_matrix=hermitize((q * lam[:r]) @ q.conj().T),
        rank_requested=rank,
        rank_effective=r,
        q=q,
        x=x[:, :r],
        sigma=sigma[:r],
        lam=lam[:r],
        loaded=loaded,
    )
