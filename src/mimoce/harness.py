"""Monte-Carlo NMSE experiment driver.

One run builds a network, simulates T coherence blocks to feed the
sample-covariance estimators, constructs every configured channel
estimator, and evaluates NMSE on a disjoint set of freshly drawn
evaluation blocks.  Sweeps repeat this over a grid of T or tau_p values
and average across seeded Monte-Carlo runs; all randomness is derived
from the master seed with explicit keys, so results are reproducible and
independent of the worker-thread count.

Training and evaluation share one receive path: batches of channel draws
(`_RunState._batches`), each received under a pilot allocation into raw
antenna samples and the despread vectors of all center UEs
(`_RunState._receive`).  Every estimator is a filter applied to those
vectors: a per-UE (K, N, N) stack, or per pilot pattern for gevd_impr.

Every random value is drawn from one layout: a fresh Generator keyed by
(master seed, run, stream id, batch) (`_STREAMS`, `_RunState._rng`).
Batch i of a batched stream (training and held-out channels, pilot noise,
the data phase) draws from key i; whole-run draws (geometry and the two
pilot allocations) take batch 0.  No Generator is carried from one batch
to the next, so what a batch holds depends only on its key.

The sweep points of one Monte-Carlo run draw from the same run-keyed
streams, so a sweep runs one job per (run, tau_p) (`run_single`).  The
points of a job differ only in their training window T: the job builds
the network, the held-out blocks and the true-covariance filters once,
and walks the training batches of its longest window once.  Every
random draw is block-major, so the first T blocks of that walk are the
blocks a run of window T alone receives, bit for bit: each shorter
window is finished on the way from a prefix of the batch it ends in
(`_RunState.train`), and a T sweep synthesizes only its longest window.
A sweep varies one variable, so every job of a run walks the same
batches: a T sweep has one job per run, and the jobs of a tau_p sweep
share the one window `system.blocks`.  They draw the same network, the
same channels of every training and held-out batch, and the same data
phase of every training batch (it has streams of its own, not the pilot
noise's); `_SharedRun` computes each of these once per run and drops it when the
last of the run's jobs takes it.  So a job of a tau_p sweep synthesizes
only its own pilot phase.  Neither the walk nor the sharing changes a
result bit.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .airlink import (
    allocate_pilots,
    despread_batch,
    make_noise_covariance,
    make_pilot_book,
    simulate_blocks,
)
from .blas import single_threaded_blas
from .channel import (
    bs_covariances,
    build_geometry,
    covariance_factors,
    sample_channels,
    steering_vector,
)
from .config import DATA_DRIVEN_KINDS, RANKED_KINDS, ExperimentConfig, SystemConfig
from .covest import (
    AllCovAccumulator,
    estimate_pilot_cov,
    gevd_lowrank_estimator,
    subtraction_estimator,
)
from .estimators import (
    approx_mmse_filter,
    improved_mmse_filter,
    improved_pilot_base,
    ls_estimate,
    mmse_fixed_filter,
    mmse_optimal_filter,
)
from .linalg import NotPositiveDefinite, psd_factor, retry_loaded
from .seeding import derive_rng

# Blocks simulated per vectorized batch; a fixed constant, because batch i
# of a stream draws blocks [i * BATCH_BLOCKS, ...) from its own key.
BATCH_BLOCKS = 256

# Stream ids of the run's keys (master seed, run, stream id, batch).  Fresh
# evaluation blocks are drawn from dedicated streams, so estimation and
# evaluation data are disjoint by construction.
_STREAMS = {
    "geometry": 0,
    "est_alloc": 1,
    "est_channels": 2,
    "est_signals": 3,
    "eval_alloc": 4,
    "eval_channels": 5,
    "eval_signals_random": 6,
    "eval_signals_fixed_cyclic": 7,
    "data": 8,
    "data_noise": 9,
}

# Pilot allocation under which each estimator kind is evaluated.
_ALLOCATION = {
    "mmse_random": "random",
    "subt": "random",
    "gevd": "random",
    "gevd_impr": "random",
    "ls_fixed": "fixed_cyclic",
    "mmse_fixed": "fixed_cyclic",
}

# Kinds whose filters come from the true covariances alone, so they depend
# on the sweep point only through tau_p.
_TRUE_COVARIANCE_KINDS = ("mmse_random", "ls_fixed", "mmse_fixed")


class ZeroTraceCovariance(ValueError):
    """Raised when the NMSE normalizer tr(R) is not positive."""


@dataclass
class NmseResult:
    """Aggregated NMSE of one estimator at one sweep point."""

    estimator: str
    sweep_variable: str
    sweep_value: int
    nmse: float
    nmse_db: float
    runs_aggregated: int
    fallback_count: int


@dataclass
class RunContribution:
    """Per-run NMSE of one estimator, before Monte-Carlo averaging."""

    estimator: str
    nmse: float
    fallbacks: int


def nmse(h_true: np.ndarray, h_hat: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """Squared estimation error ||h_hat - h_true||^2 / tr(R) per realization.

    Channel vectors have shape (..., N) and covariances (..., N, N); leading
    axes broadcast, so one call scores a whole batch of UEs and blocks.
    """
    trace = np.trace(np.asarray(covariance), axis1=-2, axis2=-1).real
    if np.any(trace <= 0):
        raise ZeroTraceCovariance("covariance trace must be positive")
    sq = np.abs(np.asarray(h_hat) - np.asarray(h_true)) ** 2
    return sq.sum(axis=-1) / trace


def _gram(samples: np.ndarray, antennas: int) -> AllCovAccumulator:
    """An accumulator holding the samples (B, N, S)."""
    acc = AllCovAccumulator(antennas)
    acc.add(samples)
    return acc


def _publish(future: Future, compute):
    """Set `future` to compute() and return it, or set the exception raised."""
    try:
        result = compute()
    except BaseException as exc:
        future.set_exception(exc)
        raise
    future.set_result(result)
    return result


class _SharedRun:
    """What the `jobs` jobs of one Monte-Carlo run compute identically.

    Every draw is keyed by (master seed, run, stream, batch), so every job
    of a run builds the same network, batch i of a channel stream is one
    read-only array in every job that draws it, and the data phase of
    training batch i, drawn from its own batch-i keys, has Gram sums that
    are functions of the run, i and the cut alone: one job computes each
    of these for all.

    The jobs of a run walk the same batches, so each of them claims every
    key once: a claimed item is kept until `jobs` claims have taken it,
    and then dropped.  With one job (a T sweep) a key is dropped by the
    claim that stores it, so nothing is kept.

    Each kept item is a Future owned by the first job that claims it.  The
    owner computes it outside the lock and publishes it, or the exception
    it raised; the other jobs wait on it.  The owner of a channel batch
    publishes it right after the draw, and any other owner waits on
    nothing but channel batches before it publishes, so no wait can come
    back to a job that is waiting.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._lock = threading.Lock()
        self._store: dict[tuple, Future] = {}
        self._left: dict[tuple, int] = {}  # claims still to come per stored key

    def claim(self, key: tuple) -> tuple[Future, bool]:
        """The Future of `key` and whether the caller owns it.

        The owner must publish the result or an exception before it waits
        on anything but a channel batch.
        """
        with self._lock:
            future = self._store.get(key)
            owner = future is None
            if owner:
                future = self._store[key] = Future()
                self._left[key] = self.jobs
            self._left[key] -= 1
            if not self._left[key]:
                del self._store[key], self._left[key]
            return future, owner

    def get(self, key: tuple, compute):
        """compute(), once per run."""
        future, owner = self.claim(key)
        return _publish(future, compute) if owner else future.result()


class _RunState:
    """One Monte-Carlo run at one tau_p: network, statistics, held-out
    blocks and true-covariance filters, and, for the training window in
    hand (`train`), the sample covariances and the filters built from
    them.  What other jobs of the run compute too comes from `shared`."""

    def __init__(
        self,
        config: ExperimentConfig,
        system: SystemConfig,
        run_seed,
        shared: _SharedRun | None = None,
    ):
        self.config = config
        self.system = system  # its blocks are the longest training window
        self.keys = tuple(run_seed)
        self.shared = _SharedRun(1) if shared is None else shared
        self.kinds = {spec.kind for spec in config.estimators}
        self.fallbacks = {spec.label: 0 for spec in config.estimators}

        sysc = system
        self.power = sysc.uplink_power
        self.powers = np.full((sysc.cells, sysc.ues_per_cell), self.power)
        self.book = make_pilot_book(sysc.tau_p)
        (
            self.covs,
            self.factors,
            self.r_nn,
            self.noise_factor,
            self.total_cov,
        ) = self.shared.get(("network",), self._network)
        self.pilot_covs = None  # (K, N, N) sample pilot covariances
        self.all_cov = None  # (N, N) sample combined covariance
        self.lowranks: dict[int, list] = {}
        self.static_filters: dict[str, np.ndarray] = {
            spec.label: self._true_covariance_filters(spec.kind)
            for spec in config.estimators
            if spec.kind in _TRUE_COVARIANCE_KINDS
        }
        self.held_out = None  # drawn by the first evaluate, after its training

    def _network(self) -> tuple[np.ndarray, ...]:
        """Covariances, their factors, noise covariance and factor, and the
        network-wide covariance at the center BS; no sweep variable
        changes them."""
        sysc = self.system
        geometry = build_geometry(
            sysc.cells,
            sysc.ues_per_cell,
            sysc.cell_radius,
            sysc.ring_radius,
            sysc.pathloss_exponent,
            self._rng("geometry"),
        )
        covs = bs_covariances(
            geometry, 0, sysc.antennas, math.radians(sysc.half_spread_deg)
        )
        jammer = None
        if sysc.jammer_power > 0:
            a = steering_vector(sysc.antennas, math.radians(sysc.jammer_angle_deg))
            jammer = (a, sysc.jammer_power)
        r_nn = make_noise_covariance(sysc.antennas, sysc.noise_power, jammer)
        # White noise is coloured by the scalar sqrt(sigma^2): psd_factor of
        # sigma^2 I is exactly sqrt(sigma^2) I, and simulate_blocks adds the
        # scalar path's noise with the same bits.
        noise_factor = psd_factor(r_nn) if jammer else math.sqrt(sysc.noise_power)
        total_cov = self.power * np.einsum("lkij->ij", covs)
        return covs, covariance_factors(covs), r_nn, noise_factor, total_cov

    def pilot_cov_true(self) -> np.ndarray:
        """Despread-signal covariances (K, N, N) of the center UEs under random allocation."""
        tau_p = self.system.tau_p
        return self.total_cov + self.power * (tau_p - 1) * self.covs[0] + self.r_nn

    def _rng(self, stream: str, batch: int = 0) -> np.random.Generator:
        """A fresh Generator of batch `batch` of one of the run's streams;
        whole-run draws take batch 0."""
        return derive_rng(*self.keys, _STREAMS[stream], batch)

    def _batches(self, stop: int, stream: str):
        """Yield (batch index i, block slice, channels (B, L, K, N)) per
        batch of blocks [0, stop) of a channel stream.

        Batch i is drawn from the stream's batch-i key, so it is a read-only
        array that depends only on its key: a batch that the run's other
        jobs draw too is drawn once and shared.  The owner of a batch
        publishes it right after the draw.
        """

        def draw(batch, size):
            h = sample_channels(self.factors, self._rng(stream, batch), blocks=size)
            h.flags.writeable = False
            return h

        for batch, first in enumerate(range(0, stop, BATCH_BLOCKS)):
            size = min(BATCH_BLOCKS, stop - first)
            h = self.shared.get((stream, first, size), partial(draw, batch, size))
            yield batch, slice(first, first + size), h

    def _receive(self, h, rows, signals_stream, tau_u: int = 0, *data_streams):
        """Receive a batch under pilot rows (B, L, K); a data phase needs
        its phase and noise streams.

        Returns pilot_rx (B, N, tau_p), data_rx (B, N, tau_u) and the
        despread pilot vectors of every center UE, shape (K, B, N).
        """
        pilot_rx, data_rx = simulate_blocks(
            h, rows, self.book, self.powers, self.noise_factor, signals_stream, tau_u,
            *data_streams,
        )
        d = despread_batch(pilot_rx, self.book, rows[:, 0])  # (B, K, N)
        return pilot_rx, data_rx, d.transpose(1, 0, 2)

    def train(self, windows: list[int]):
        """Yield each training window T of `windows` (ascending, the last
        one `system.blocks`) once the estimates from its first T blocks are
        built.

        One walk over the batches of the longest window serves every
        window.  Every draw is block-major, so the first T blocks of the
        walk are the blocks a run of window T alone receives, bit for bit.
        A window that ends inside a batch takes the pilot-phase accumulator
        of the batches before it plus the Gram of the batch's first
        T - first blocks of pilot samples, that batch's data-phase Gram of
        the same cut, and the despread prefix of T blocks.
        """
        if not self.kinds & DATA_DRIVEN_KINDS:
            yield from windows
            return
        sysc = self.system
        rows = allocate_pilots(
            sysc.blocks, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "random",
            self._rng("est_alloc"),
        )
        acc = AllCovAccumulator(sysc.antennas)  # pilot phase of the full batches walked
        despread = np.empty((sysc.ues_per_cell, sysc.blocks, sysc.antennas), dtype=complex)
        grams: list[tuple[Future, int]] = []  # per batch walked, its data item and cut
        for batch, blocks, h in self._batches(sysc.blocks, "est_channels"):
            pilot_rx, data, d = self._train(batch, h, rows[blocks], blocks.start, windows)
            despread[:, blocks] = d
            for window in windows:
                if blocks.start < window <= blocks.stop:
                    cut = window - blocks.start
                    window_acc = _gram(pilot_rx[:cut], sysc.antennas)
                    window_acc.merge(acc)
                    self._estimate(window_acc, [*grams, (data, cut)], despread[:, :window])
                    yield window
            if blocks.stop < sysc.blocks:  # a later window takes this batch whole
                acc.add(pilot_rx)
                grams.append((data, len(h)))

    def _train(
        self, batch: int, h, rows, first: int, windows: list[int]
    ) -> tuple[np.ndarray, Future, np.ndarray]:
        """Receive training batch `batch`, of channels h, which starts at
        block `first`, under pilot rows (B, L, K).  Its pilot noise comes
        from the batch's `est_signals` key and its data phase from its
        `data` and `data_noise` keys.

        Returns its pilot_rx, the Future of its data item (per cut, the
        data-phase accumulator of the batch's first cut blocks) and its
        despread vectors (K, B, N).  The cuts are the batch size and each
        of `windows` that ends inside the batch; every job of the run has
        the same windows, so they are the cuts every job needs.  The run's
        first job to claim a batch synthesizes its data phase and publishes
        it at once; every other job receives the pilot phase only and waits
        for the data phase when it builds its estimates.  A batch's channels are
        claimed before its data phase, so the owner of a channel batch
        waits on nothing before it publishes.
        """
        size = len(h)
        data, owner = self.shared.claim(("data", first, size))
        data_phase = ()
        if owner:
            data_phase = (
                self.system.tau_u, self._rng("data", batch), self._rng("data_noise", batch)
            )
        try:
            pilot_rx, data_rx, d = self._receive(
                h, rows, self._rng("est_signals", batch), *data_phase
            )
            if owner:
                cuts = {size} | {w - first for w in windows if first < w < first + size}
                data.set_result(
                    {cut: _gram(data_rx[:cut], self.system.antennas) for cut in cuts}
                )
        except BaseException as exc:
            if owner:
                data.set_exception(exc)
            raise
        return pilot_rx, data, d

    def _estimate(self, acc, grams, despread) -> None:
        """Build the sample covariances and the filters of one training
        window from its pilot-phase accumulator, the (data item Future,
        cut) of each of its batches in batch order and its despread vectors
        (K, T, N); `acc` is left as it was."""
        sysc = self.system
        # The phases are summed apart, each in batch order, so the sum does
        # not depend on which job synthesized which data phase.
        data = AllCovAccumulator(sysc.antennas)
        for item, cut in grams:
            data.merge(item.result()[cut])
        data.merge(acc)
        self.all_cov = data.estimate()
        self.pilot_covs = estimate_pilot_cov(despread, sysc.tau_p, sysc.cov_loading)
        self.fallbacks = dict.fromkeys(self.fallbacks, 0)
        # Only the ranked kinds (gevd, gevd_impr) carry a rank.  One GEVD
        # per UE at the largest rank serves every rank: a smaller one keeps
        # the leading modes of the same pencil.
        ranks = {spec.rank for spec in self.config.estimators if spec.rank}
        if ranks:
            top = [
                gevd_lowrank_estimator(pilot, self.all_cov, sysc.tau_p, self.power, max(ranks))
                for pilot in self.pilot_covs
            ]
            self.lowranks = {rank: [low.truncated(rank) for low in top] for rank in ranks}
        for spec in self.config.estimators:
            if spec.kind in RANKED_KINDS:
                # One fallback per UE estimate whose GEVD loaded all_cov.
                lowranks = self.lowranks[spec.rank]
                self.fallbacks[spec.label] += sum(low.loaded for low in lowranks)
            if spec.kind == "subt":
                estimates = subtraction_estimator(
                    self.pilot_covs, self.all_cov, sysc.tau_p, self.power
                )
                # Per UE, so that a failed Cholesky loads only that UE's matrix.
                built = [
                    retry_loaded(
                        partial(mmse_optimal_filter, r_cov=estimate, power=self.power), pilot
                    )
                    for pilot, estimate in zip(self.pilot_covs, estimates)
                ]
                self.fallbacks[spec.label] += sum(events for _, events in built)
                w = np.stack([filt for filt, _ in built])
            elif spec.kind == "gevd":
                w = np.stack([approx_mmse_filter(low, self.power) for low in lowranks])
            else:
                continue  # true covariances, or gevd_impr: per pilot pattern
            self.static_filters[spec.label] = w

    def _true_covariance_filters(self, kind: str) -> np.ndarray:
        """(K, N, N) filters of a kind built from the true covariances."""
        sysc = self.system
        if kind == "mmse_random":
            return mmse_optimal_filter(self.pilot_cov_true(), self.covs[0], self.power)
        if kind == "mmse_fixed":
            fixed_row = allocate_pilots(
                1, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "fixed_cyclic"
            )[0]
            return mmse_fixed_filter(self.covs, self.power, fixed_row, self.r_nn, sysc.tau_p)
        w = ls_estimate(np.eye(sysc.antennas), self.power, sysc.tau_p)  # ls_fixed
        return np.stack([w] * sysc.ues_per_cell)

    def _held_out(self, eval_blocks: int):
        """Draw the held-out blocks.

        Returns the pilot rows (E, L, K) of each allocation in use, the
        center-cell channels (K, E, N) and the despread vectors (K, E, N) of
        each allocation.  All allocations see the same channel draws;
        held-out batch i takes its pilot noise from batch i of the
        allocation's `eval_signals` stream.
        """
        sysc = self.system
        modes = sorted({_ALLOCATION[kind] for kind in self.kinds})
        rows = {
            mode: allocate_pilots(
                eval_blocks, sysc.cells, sysc.ues_per_cell, sysc.tau_p, mode,
                self._rng("eval_alloc"),
            )
            for mode in modes
        }
        channels, despread = [], {mode: [] for mode in modes}
        for batch, blocks, h in self._batches(eval_blocks, "eval_channels"):
            # A C-order copy, so that h_center is block-major in memory
            # whatever the layout of h: that fixes the order in which
            # evaluate sums the NMSE terms.
            channels.append(h[:, 0].copy())
            for mode in modes:
                signals = self._rng(f"eval_signals_{mode}", batch)
                despread[mode].append(self._receive(h, rows[mode][blocks], signals)[2])
        h_center = np.concatenate(channels).transpose(1, 0, 2)
        return rows, h_center, {mode: np.concatenate(d, axis=1) for mode, d in despread.items()}

    def evaluate(self) -> dict[str, float]:
        """Mean NMSE per estimator over the held-out blocks, with the
        filters of the training window in hand."""
        if self.held_out is None:
            self.held_out = self._held_out(self.config.eval_blocks)
        rows, h_center, despread = self.held_out
        total = self.config.eval_blocks * self.system.ues_per_cell
        err = {}
        for spec in self.config.estimators:
            if spec.kind == "gevd_impr":
                h_hat = self._improved_estimates(
                    spec.rank, spec.label, rows["random"], despread["random"]
                )
            else:
                h_hat = despread[_ALLOCATION[spec.kind]] @ self.static_filters[spec.label].conj()
            err[spec.label] = float(nmse(h_center, h_hat, self.covs[0][:, None]).sum()) / total
        return err

    def _improved_estimates(
        self, rank: int, label: str, rows: np.ndarray, d_random: np.ndarray
    ) -> np.ndarray:
        """Apply the per-block improved filters to despread vectors (K, E, N)
        received under pilot rows (E, L, K): every held-out block at once.

        A filter depends on the block only through which center-cell UEs
        share UE k's pilot, so blocks are grouped by that pattern.  Each
        (UE, pattern) filter is built once per training window, from the
        UE's pattern-independent matrix (assembled once), and applied in
        factored form to that pattern's vectors alone.  Fallbacks count
        degraded filters per (block, UE) use.
        """
        center = rows[:, 0]  # (E, K)
        lowranks = self.lowranks[rank]
        h_hat = np.empty_like(d_random)
        for k in range(center.shape[1]):
            base = improved_pilot_base(self.pilot_covs[k], lowranks, k)
            patterns, first, group = np.unique(
                center == center[:, k : k + 1],
                axis=0,
                return_index=True,
                return_inverse=True,
            )
            for g in range(len(patterns)):
                blocks = np.flatnonzero(group == g)
                d = d_random[k, blocks]
                try:
                    filt = improved_mmse_filter(
                        self.pilot_covs[k], lowranks, center[first[g]], k,
                        self.system.tau_p, self.power, base,
                    )
                except NotPositiveDefinite:
                    h_hat[k, blocks] = d @ approx_mmse_filter(lowranks[k], self.power).conj()
                    degraded = True
                else:
                    h_hat[k, blocks] = filt.apply(d)
                    degraded = filt.clamped
                if degraded:
                    self.fallbacks[label] += len(blocks)
        return h_hat


def run_single(
    config: ExperimentConfig,
    sweep_values: list[int],
    run_seed,
    shared: _SharedRun | None = None,
) -> list[list[RunContribution]]:
    """Execute one Monte-Carlo run at sweep points of one tau_p.

    Returns the contributions of each value of `sweep_values`, in order.
    The points differ only in their training window, so one walk over
    the training blocks serves them all.  Deterministic given (config,
    sweep value, run_seed): the seed keys every random stream of the run
    (geometry, estimation blocks, evaluation blocks), so a point gets the
    same contributions in any group.  `shared` holds what the run's other
    jobs compute too; it may be passed only by jobs of one config and
    run_seed that walk the same batches (the jobs of one run of a sweep),
    and it is built for their number.  The result is the same with or
    without it.  BLAS runs single-threaded for the duration of the call.
    """
    config.validate()
    systems = [config.system_for(value) for value in sweep_values]
    if len({system.tau_p for system in systems}) != 1:
        raise ValueError("run_single takes sweep values of one tau_p")
    longest = max(systems, key=lambda system: system.blocks)
    per_window = {}
    with single_threaded_blas():
        state = _RunState(config, longest, run_seed, shared)
        for blocks in state.train(sorted({system.blocks for system in systems})):
            per_label = state.evaluate()
            per_window[blocks] = [
                RunContribution(
                    estimator=spec.label,
                    nmse=per_label[spec.label],
                    fallbacks=state.fallbacks[spec.label],
                )
                for spec in config.estimators
            ]
    return [per_window[system.blocks] for system in systems]


def _walk(config: ExperimentConfig) -> tuple[int, int]:
    """Jobs per run, and the training blocks each of them walks: its
    longest window, where a data-driven estimator trains."""
    systems = [config.system_for(value) for value in config.sweep.values]
    jobs = len({system.tau_p for system in systems})
    training = 0
    if {spec.kind for spec in config.estimators} & DATA_DRIVEN_KINDS:
        training = max([0, *(system.blocks for system in systems)])
    return jobs, training


def shared_channel_bytes(config: ExperimentConfig) -> int:
    """Most bytes of channel draws that one Monte-Carlo run in flight keeps
    for a second job of the run: its training and held-out windows in a
    tau_p sweep, nothing in a T sweep."""
    jobs, training = _walk(config)
    blocks = training + max(config.eval_blocks, 0) if jobs > 1 else 0
    sysc = config.system
    links = sysc.cells * sysc.ues_per_cell
    return blocks * links * sysc.antennas * np.dtype(complex).itemsize


def simulated_blocks(config: ExperimentConfig) -> int:
    """Blocks a sweep passes to simulate_blocks: each job receives the
    training batches of its longest window once and its held-out batches
    once per pilot allocation in use."""
    jobs, training = _walk(config)
    modes = len({_ALLOCATION[spec.kind] for spec in config.estimators})
    per_job = training + modes * max(config.eval_blocks, 0)
    return per_job * jobs * config.monte_carlo_runs


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[NmseResult]:
    """Run the full sweep-values x estimators x Monte-Carlo-runs grid.

    Per-run results are averaged in a fixed order keyed by run index, so
    the aggregate is bitwise-identical regardless of `workers`.  BLAS runs
    single-threaded for the duration of the sweep, so `workers` is the
    only source of parallelism.
    """
    config.validate()
    systems = [config.system_for(value) for value in config.sweep.values]
    groups = defaultdict(list)  # per tau_p, its sweep values
    for value, system in zip(config.sweep.values, systems):
        groups[system.tau_p].append(value)
    # One job per (run, tau_p): a T sweep is one job per run, whose single
    # training walk serves every T.  Run-major, so that a run's jobs run
    # close together: each shared item is dropped at the run's last claim
    # of it, so memory grows with the runs in flight, not with
    # monte_carlo_runs.
    jobs = []
    for run_index in range(config.monte_carlo_runs):
        shared = _SharedRun(len(groups))
        jobs += [(run_index, values, shared) for values in groups.values()]

    def execute(job):
        run_index, values, shared = job
        # Streams are keyed by run index only, so run r sees the same
        # geometry and evaluation blocks at every sweep point: sweep curves
        # are paired comparisons.  The channels and data phase of a batch
        # are the same at every tau_p (the channel streams carry no pilots,
        # and the data phase has streams of its own), so _SharedRun
        # computes each once per run and drops it at its last use.  Jobs of
        # one run that run at once split that work between them: each
        # draws the channel batches and data phases it claims first.
        contributions = run_single(config, values, (config.master_seed, run_index), shared)
        return {(value, run_index): c for value, c in zip(values, contributions)}

    store: dict[tuple[int, int], list[RunContribution]] = {}
    with single_threaded_blas():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for contributions in pool.map(execute, jobs):
                    store.update(contributions)
        else:
            for job in jobs:
                store.update(execute(job))

    results = []
    for sweep_value in config.sweep.values:
        for position, spec in enumerate(config.estimators):
            values = []
            fallbacks = 0
            for run_index in range(config.monte_carlo_runs):
                contribution = store[(sweep_value, run_index)][position]
                values.append(contribution.nmse)
                fallbacks += contribution.fallbacks
            mean = sum(values) / len(values)
            results.append(
                NmseResult(
                    estimator=spec.label,
                    sweep_variable=config.sweep.variable,
                    sweep_value=int(sweep_value),
                    nmse=mean,
                    nmse_db=10.0 * math.log10(mean) if mean > 0 else float("-inf"),
                    runs_aggregated=config.monte_carlo_runs,
                    fallback_count=fallbacks,
                )
            )
    return results
