"""Shared test fixtures: synthetic networks with closed-form statistics,
and a Monte-Carlo reference for the fixed-allocation rows.

Builds abstract single-BS networks where every UE covariance is chosen
directly (no geometry), so the despread pilot-phase covariance and the
combined all-samples covariance have exact analytic values against which
the estimators can be checked algebraically.
"""

from dataclasses import dataclass, replace

import numpy as np

from mimoce.airlink import allocate_pilots, despread_batch, simulate_blocks
from mimoce.channel import sample_channels
from mimoce.config import FIXED_KINDS, EstimatorSpec
from mimoce.covest import AllCovAccumulator, estimate_pilot_cov
from mimoce.harness import _Run, _RunState, nmse
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


def fixed_allocation_reference(config, run_seed, blocks, batch=50):
    """Monte-Carlo reference for the ls_fixed and mmse_fixed rows of one run.

    Receives `blocks` held-out blocks, a multiple of `batch`, under the
    fixed cyclic allocation with sample_channels, simulate_blocks and despread_batch, channels and
    noise drawn from a stream no run uses, and scores the run's filters of
    both kinds on them with harness.nmse.  Returns, per label, the NMSE of
    each block averaged over the center UEs (blocks,), and the run's
    contribution of that label, its expected NMSE.
    """
    config = replace(config, estimators=[EstimatorSpec(kind) for kind in sorted(FIXED_KINDS)])
    sysc = config.system
    run = _Run(config, run_seed)
    state = _RunState(run, sysc)
    exact = {label: contribution.nmse for label, contribution in state.evaluate().items()}
    rows = allocate_pilots(batch, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "fixed_cyclic")
    rng = np.random.default_rng([*run_seed, 7007])
    scores = {label: [] for label in exact}
    for _ in range(blocks // batch):
        h = sample_channels(run.factors, rng, batch)  # (B, L, K, N)
        pilot_rx, _ = simulate_blocks(h, rows, state.book, run.powers, run.noise_factor, rng, 0)
        d = despread_batch(pilot_rx, state.book, rows[:, 0])  # (B, K, N)
        for label, w in state.static_filters.items():
            h_hat = np.einsum("bkn,knm->bkm", d, w.conj())
            scores[label].append(nmse(h[:, 0], h_hat, run.covs[0]).mean(axis=1))
    return {label: (np.concatenate(scores[label]), exact[label]) for label in exact}
