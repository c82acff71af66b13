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

from .buffers import CHUNK_BYTES, fresh
from .linalg import gevd, hermitize, load_diagonal, retry_loaded

# Eigenvalues this close to 1 carry no usable signal power and are never kept.
SIGMA_ONE_TOL = 1e-9


def gram_blocks(n_antennas: int) -> int:
    """Blocks of the Gram stack that `AllCovAccumulator.add` forms at once:
    as many (N, N) Grams as fit in CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (n_antennas * n_antennas * 16))


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


class AllCovAccumulator:
    """Streaming accumulator for the combined sample covariance.

    Feeds on batches of per-block antenna samples so that long runs never
    need to hold all received signals in memory.  Each block's Gram
    x_b x_b^H is added to the running sum in block order, so the sum of a
    run of blocks is the same bits however its blocks are split among
    `add` calls.  Accumulators of disjoint sample sets combine with
    `merge`.
    """

    def __init__(self, n_antennas: int):
        self._sum = np.zeros((n_antennas, n_antennas), dtype=complex)
        self._samples = 0

    def add(self, signals: np.ndarray, *, buffers=fresh) -> None:
        """Accumulate signals of shape (N, S) or (B, N, S), block by block.

        The blocks' Grams are formed a stack at a time, in the "grams"
        array of `buffers`, from the samples and their conjugate, its
        "gram_conj" array (see `mimoce.buffers`); a stack holds at most
        `gram_blocks(N)` blocks.
        """
        signals = np.ascontiguousarray(signals, dtype=complex)
        if signals.ndim == 2:
            signals = signals[None]
        b, n, s = signals.shape
        step = gram_blocks(n)
        for first in range(0, b, step):
            x = signals[first : first + step]
            conj = np.conjugate(x, out=buffers("gram_conj", x.shape))
            grams = np.matmul(x, conj.transpose(0, 2, 1), out=buffers("grams", (len(x), n, n)))
            for gram in grams:
                self._sum += gram
        self._samples += b * s

    def merge(self, other: AllCovAccumulator) -> None:
        """Add every sample accumulated by `other`."""
        self._sum += other._sum
        self._samples += other._samples

    def copy(self) -> AllCovAccumulator:
        """An accumulator of the samples of this one, independent of it."""
        other = AllCovAccumulator(self._sum.shape[0])
        other._sum[...] = self._sum
        other._samples = self._samples
        return other

    def estimate(self) -> np.ndarray:
        """The (N, N) sample covariance of every sample added so far."""
        if self._samples == 0:
            raise ValueError("no samples accumulated")
        return hermitize(self._sum / self._samples)


def estimate_pilot_cov(
    despread_vectors: np.ndarray, tau_p: int, loading_factor: float = 0.0
) -> np.ndarray:
    """Time-averaged pilot-phase covariance from T despread vectors.

    Takes despread vectors (..., T, N), one (T, N) window per UE on the
    leading axes, and returns (..., N, N): (1 / (T tau_p)) sum_t y_t y_t^H
    plus optional diagonal loading of loading_factor * trace / N.
    """
    y = np.asarray(despread_vectors, dtype=complex)
    if y.ndim < 2:
        raise ValueError("expected despread vectors of shape (..., T, N)")
    t_used = y.shape[-2]
    raw = hermitize(y.swapaxes(-1, -2) @ y.conj()) / (t_used * tau_p)
    return load_diagonal(raw, float(loading_factor))


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
