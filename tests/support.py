"""Shared test fixtures: synthetic networks with closed-form statistics.

Builds abstract single-BS networks where every UE covariance is chosen
directly (no geometry), so the despread pilot-phase covariance and the
combined all-samples covariance have exact analytic values against which
the estimators can be checked algebraically.
"""

from dataclasses import dataclass

import numpy as np

from mimoce.covest import AllCovAccumulator, estimate_pilot_cov
from mimoce.linalg import hermitize


@dataclass
class SyntheticNetwork:
    """Single-BS network with hand-picked covariances.

    The desired UE has index 0 of `covariances`; `powers` aligns with it.
    r_pilot / r_all are the analytic second-order statistics of the
    despread pilot signal of the desired UE and of the raw antenna
    samples.
    """

    covariances: list  # per-UE N x N PSD matrices (desired first)
    powers: np.ndarray
    r_nn: np.ndarray
    tau_p: int

    @property
    def n(self) -> int:
        return self.r_nn.shape[0]

    @property
    def r_desired(self) -> np.ndarray:
        return self.covariances[0]

    @property
    def power_desired(self) -> float:
        return float(self.powers[0])

    @property
    def total_signal_cov(self) -> np.ndarray:
        return sum(p * r for p, r in zip(self.powers, self.covariances))

    @property
    def r_all(self) -> np.ndarray:
        return self.total_signal_cov + self.r_nn

    @property
    def r_pilot(self) -> np.ndarray:
        extra = self.power_desired * (self.tau_p - 1) * self.r_desired
        return self.total_signal_cov + extra + self.r_nn


def pilot_cov_of(vectors, tau_p, loading_factor=0.0):
    """estimate_pilot_cov of despread vectors (T, N), or (K, T, N) with a
    window per UE, added to an accumulator one vector per block."""
    y = np.asarray(vectors, dtype=complex)
    acc = AllCovAccumulator(y.shape[-1], None if y.ndim == 2 else y.shape[0])
    acc.add(np.moveaxis(y, -2, 0)[..., None])
    return estimate_pilot_cov(acc, tau_p, loading_factor)


def random_psd(rng, n, rank=None, scale=1.0):
    rank = n if rank is None else rank
    w = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return hermitize(scale * w @ w.conj().T / rank)


def make_synthetic(rng, n=16, desired_rank=3, n_interferers=3, tau_p=6,
                   noise_power=0.3) -> SyntheticNetwork:
    covariances = [random_psd(rng, n, rank=desired_rank)]
    for _ in range(n_interferers):
        covariances.append(random_psd(rng, n, scale=0.4))
    powers = np.concatenate([[1.0], rng.uniform(0.3, 1.2, size=n_interferers)])
    r_nn = noise_power * np.eye(n, dtype=complex)
    return SyntheticNetwork(
        covariances=covariances, powers=powers, r_nn=r_nn, tau_p=tau_p
    )
