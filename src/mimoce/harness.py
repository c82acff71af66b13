"""Monte-Carlo NMSE experiment driver.

One run builds a network, simulates T coherence blocks to feed the
sample-covariance estimators, constructs every configured channel
estimator, and evaluates NMSE on a disjoint set of freshly drawn
evaluation blocks.  Sweeps repeat this over a grid of T or tau_p values
and average across seeded Monte-Carlo runs; all randomness is derived
from the master seed with explicit keys, so results are reproducible and
independent of the worker-thread count.

Training and evaluation share one receive path: batches of channel draws,
each received under a pilot allocation into raw antenna samples and the
despread vectors of all center UEs (`_RunState._receive`).  Every
estimator is a filter applied to those vectors: a per-UE (K, N, N) stack,
or per pilot pattern for gevd_impr.

Every random value is drawn from one layout: a fresh Generator keyed by
(master seed, run, stream id, batch) (`_STREAMS`, `_Run._rng`).  Batch i
of a batched stream (training and held-out channels, pilot noise, the
data phase) draws from key i; whole-run draws (geometry and the two pilot
allocations) take batch 0.  No Generator is carried from one batch to the
next, so what a batch holds depends only on its key.

A sweep runs one job per Monte-Carlo run (`run_single`), which serves
every sweep point.  The run (`_Run`) builds the network once, and each
tau_p of the sweep has a `_RunState`: its pilot rows, its filters and its
despread vectors.  The points of one tau_p differ only in their training
window T.  Every random draw is block-major, so the first T blocks of the
longest window are the blocks a run of window T alone receives, bit for
bit: each shorter window takes a prefix of the batch it ends in, and a T
sweep synthesizes only its longest window.

Each training batch and each held-out batch of a run is one task.  The
task draws the batch's channels once and receives them under every
tau_p; the data phase has streams of its own, so it is synthesized once,
with the first tau_p's pilot phase.  The run merges the tasks'
sample-covariance sums in batch order, then runs one task per tau_p that
builds and evaluates the estimates of each window.  The tasks go to the
sweep's worker pool (`_fan_out`), so a sweep of fewer runs than workers
still keeps every worker busy, and their results are taken in key order,
so no result bit depends on `workers`.

A batch task draws and receives its blocks in chunks of at most
CHUNK_BYTES of channels, one Generator per stream continued from chunk to
chunk, so a batch holds the same bits in any chunking.  The channel
factors are stored without the leading columns that are zero in all of
them, and each chunk's channels are scaled by the UEs' amplitudes once
for all its receives.  Only the receive samples that the Gram sums read
are kept for the whole batch: the data phase and each tau_p's pilot
phase, each stored (N, B, S) so that a window's prefix is read in place.

A batch task receives into buffers that its thread reuses
(`mimoce.buffers`): a chunk's channels, their normals, its noise, data
symbols and phases, the batch's receive samples and the conjugate copy
the Gram sums take.  `run_sweep` owns one `ThreadBuffers` for the whole
sweep, so each thread that runs a task keeps one set, sized once for the
sweep's largest chunk and batch, however many runs it serves; the sets
are freed when the sweep returns.  A `run_single` called on its own owns
the sets of its call.  A task copies out what it keeps (despread vectors,
held-out channels, Gram sums), so nothing it returns points into a
buffer.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
from .buffers import ThreadBuffers, slot_bytes
from .channel import (
    bs_covariances,
    build_geometry,
    covariance_factors,
    sample_channels,
    steering_vector,
    trim_factors,
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

# Bytes of the channels of one chunk.  A batch task draws and receives its
# blocks a chunk at a time, continuing one Generator per stream, so the
# chunks change no bit, and its per-thread arrays are sized by the chunk,
# not the batch: about 28 blocks at full scale, 175 at desk scale.
CHUNK_BYTES = 3 << 20

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


def _gram(samples: np.ndarray, buffers) -> AllCovAccumulator:
    """An accumulator holding the samples (B, N, S)."""
    acc = AllCovAccumulator(samples.shape[1])
    acc.add(samples, buffers=buffers)
    return acc


def _merged(antennas: int, *parts: AllCovAccumulator) -> AllCovAccumulator:
    """A fresh accumulator of the samples of `parts`, merged in order."""
    acc = AllCovAccumulator(antennas)
    for part in parts:
        acc.merge(part)
    return acc


def _block_major(blocks: int, ues: int, antennas: int) -> np.ndarray:
    """An empty (K, E, N) array of vectors stored block by block, the layout
    that fixes the order in which evaluate sums the NMSE terms."""
    return np.empty((blocks, ues, antennas), dtype=complex).transpose(1, 0, 2)


def _fan_out(pool: ThreadPoolExecutor | None, tasks: list) -> list:
    """The result of each task, in task order.

    Every task is submitted to `pool` (without a pool, each runs here in
    turn).  The caller then runs, in order, every task that no worker has
    started, and only after that waits for the rest.  A task waits on
    nothing, so this cannot deadlock even when the caller is a pool
    worker and every other worker is busy.  Waiting on a started task
    before taking the next unstarted one would leave the caller idle
    while the workers run the tasks one at a time.
    """
    if pool is None:
        return [task() for task in tasks]
    submitted = [pool.submit(task) for task in tasks]
    try:
        mine = [(task(),) if job.cancel() else () for task, job in zip(tasks, submitted)]
    except BaseException:
        for job in submitted:
            job.cancel()
        raise
    return [own[0] if own else job.result() for own, job in zip(mine, submitted)]


def _received(buffers, antennas: int, blocks: int, samples: list[int]) -> list[np.ndarray]:
    """One (B, N, S) array per entry S of `samples`, each stored (N, B, S)
    in the "received" array of `buffers`, so that the first b blocks of
    each are an (N, b*S) matrix without a copy."""
    flat = buffers("received", (antennas * blocks * sum(samples),))
    ends = np.cumsum([0, *samples]) * antennas * blocks
    return [
        flat[start:end].reshape(antennas, blocks, size).transpose(1, 0, 2)
        for start, end, size in zip(ends, ends[1:], samples)
    ]


def _into(buffers, **views):
    """`buffers`, except that the arrays named in `views` are those views."""

    def serve(name, shape, dtype=complex):
        return views[name] if name in views else buffers(name, shape, dtype)

    return serve


def _batches(stop: int) -> list[tuple[int, slice]]:
    """(batch index i, block slice) of each batch of blocks [0, stop)."""
    return [
        (batch, slice(first, min(first + BATCH_BLOCKS, stop)))
        for batch, first in enumerate(range(0, stop, BATCH_BLOCKS))
    ]


class _Run:
    """One Monte-Carlo run: its keyed streams, its network (covariances,
    their factors without the columns that are zero in all of them, noise
    covariance and factor, and the network-wide covariance at the center
    BS), which no sweep variable changes, and the center-cell channels
    (K, E, N) of its held-out blocks.  Its batch tasks receive their blocks
    in chunks of `chunk` blocks and take their arrays from the calling
    thread's set of `buffers`, its own ones unless given."""

    def __init__(self, config: ExperimentConfig, run_seed, buffers: ThreadBuffers | None = None):
        self.config = config
        self.keys = tuple(run_seed)
        self.buffers = ThreadBuffers() if buffers is None else buffers
        self.kinds = {spec.kind for spec in config.estimators}
        sysc = config.system
        self.power = sysc.uplink_power
        self.powers = np.full((sysc.cells, sysc.ues_per_cell), self.power)
        self.amplitudes = np.sqrt(self.powers)[:, :, None]
        self.chunk = _chunk_blocks(sysc)
        geometry = build_geometry(
            sysc.cells,
            sysc.ues_per_cell,
            sysc.cell_radius,
            sysc.ring_radius,
            sysc.pathloss_exponent,
            self._rng("geometry"),
        )
        self.covs = bs_covariances(
            geometry, 0, sysc.antennas, math.radians(sysc.half_spread_deg)
        )
        jammer = None
        if sysc.jammer_power > 0:
            a = steering_vector(sysc.antennas, math.radians(sysc.jammer_angle_deg))
            jammer = (a, sysc.jammer_power)
        self.r_nn = make_noise_covariance(sysc.antennas, sysc.noise_power, jammer)
        # White noise is coloured by the scalar sqrt(sigma^2): psd_factor of
        # sigma^2 I is exactly sqrt(sigma^2) I, and simulate_blocks adds the
        # scalar path's noise with the same bits.
        self.noise_factor = psd_factor(self.r_nn) if jammer else math.sqrt(sysc.noise_power)
        self.total_cov = self.power * np.einsum("lkij->ij", self.covs)
        self.factors = trim_factors(covariance_factors(self.covs))
        self.h_center = _block_major(config.eval_blocks, sysc.ues_per_cell, sysc.antennas)

    def _rng(self, stream: str, batch: int = 0) -> np.random.Generator:
        """A fresh Generator of batch `batch` of one of the run's streams;
        whole-run draws take batch 0."""
        return derive_rng(*self.keys, _STREAMS[stream], batch)

    def _chunks(self, blocks: slice) -> list[slice]:
        """Batch `blocks` in consecutive chunks of at most `chunk` blocks."""
        return [
            slice(first, min(first + self.chunk, blocks.stop))
            for first in range(blocks.start, blocks.stop, self.chunk)
        ]

    def receive(
        self, states: list[_RunState], windows: list[int], pool: ThreadPoolExecutor | None
    ) -> list[list]:
        """Receive every training and held-out batch under every state,
        one task per batch.

        Returns, per state, the accumulator of all samples of each training
        window (ascending, the last one the states' `system.blocks`): the
        pilot phase of its first T blocks under the state's rows and the
        data phase of the same blocks.  Each sum is merged in batch order,
        so it does not depend on which worker ran which task.  Without a
        data-driven estimator nothing is trained, and every accumulator is
        None.
        """
        training = _batches(windows[-1]) if self.kinds & DATA_DRIVEN_KINDS else []
        tasks = [partial(self._train, states, windows, *batch) for batch in training]
        tasks += [
            partial(self._held_out, states, *batch)
            for batch in _batches(self.config.eval_blocks)
        ]
        results = _fan_out(pool, tasks)
        combined: list[list] = [[] if training else [None] * len(windows) for _ in states]
        n = self.config.system.antennas
        data = AllCovAccumulator(n)  # the data phase of the full batches so far
        pilots = [AllCovAccumulator(n) for _ in states]  # and each state's pilot phase
        for (_, blocks), (data_grams, pilot_grams) in zip(training, results):
            for window in windows:
                if blocks.start < window <= blocks.stop:
                    cut = window - blocks.start
                    window_data = _merged(n, data, data_grams[cut])
                    for acc, grams, out in zip(pilots, pilot_grams, combined):
                        out.append(_merged(n, window_data, _merged(n, grams[cut], acc)))
            size = blocks.stop - blocks.start
            for acc, grams in zip([data, *pilots], [data_grams, *pilot_grams]):
                acc.merge(grams[size])
        return combined

    def _train(
        self, states: list[_RunState], windows: list[int], batch: int, blocks: slice
    ) -> tuple[dict, list[dict]]:
        """Receive training batch `batch`, blocks `blocks`, under the rows
        of every state, and write each state's despread vectors of it.  The
        pilot noise comes from the batch's `est_signals` key and the data
        phase, synthesized with the first state's pilot phase, from its
        `data` and `data_noise` keys.  Each chunk's channels are drawn once
        and scaled by the UEs' amplitudes; its receive samples go into the
        batch's whole arrays, which the sample-covariance sums read once
        the last chunk is in.

        Returns, per cut (the batch size and each of `windows` that ends
        inside the batch), the accumulator of the data phase of the batch's
        first cut blocks, and the same of each state's pilot phase.
        """
        size = blocks.stop - blocks.start
        cuts = {size} | {w - blocks.start for w in windows if blocks.start < w < blocks.stop}
        sysc = self.config.system
        buffers = self.buffers.get()
        data_rx, *pilot_rxs = _received(
            buffers, sysc.antennas, size, [sysc.tau_u, *(state.system.tau_p for state in states)]
        )
        # One Generator per stream for the whole batch, continued from
        # chunk to chunk.
        channels = self._rng("est_channels", batch)
        pilot_noise = [self._rng("est_signals", batch) for _ in states]
        data_streams = (self._rng("data", batch), self._rng("data_noise", batch))
        for chunk in self._chunks(blocks):
            local = slice(chunk.start - blocks.start, chunk.stop - blocks.start)
            h = sample_channels(self.factors, channels, chunk.stop - chunk.start, buffers=buffers)
            h *= self.amplitudes
            data_phase = (sysc.tau_u, *data_streams)
            for state, pilot_rx, noise in zip(states, pilot_rxs, pilot_noise):
                into = _into(buffers, pilot_rx=pilot_rx[local], data_rx=data_rx[local])
                d = state._receive(h, state.rows[chunk], noise, *data_phase, buffers=into)[2]
                state.despread[:, chunk] = d
                data_phase = ()
        data = {cut: _gram(data_rx[:cut], buffers) for cut in cuts}
        pilots = [{cut: _gram(pilot_rx[:cut], buffers) for cut in cuts} for pilot_rx in pilot_rxs]
        return data, pilots

    def _held_out(self, states: list[_RunState], batch: int, blocks: slice) -> None:
        """Receive held-out batch `batch`, blocks `blocks`, under every
        allocation in use of every state, and write the center-cell
        channels and each state's despread vectors of it.  All allocations
        see the same channel draws, chunk by chunk; each takes its pilot
        noise from batch `batch` of its `eval_signals` stream."""
        buffers = self.buffers.get()
        channels = self._rng("eval_channels", batch)
        pilot_noise = [
            {mode: self._rng(f"eval_signals_{mode}", batch) for mode in state.eval_rows}
            for state in states
        ]
        for chunk in self._chunks(blocks):
            h = sample_channels(self.factors, channels, chunk.stop - chunk.start, buffers=buffers)
            self.h_center[:, chunk] = h[:, 0].transpose(1, 0, 2)
            h *= self.amplitudes
            for state, noise in zip(states, pilot_noise):
                for mode, rows in state.eval_rows.items():
                    d = state._receive(h, rows[chunk], noise[mode], buffers=buffers)[2]
                    state.held_out[mode][:, chunk] = d


class _RunState:
    """One tau_p of a Monte-Carlo run: its pilot book and pilot rows, its
    true-covariance filters, the despread vectors of its training and
    held-out blocks, and, for the training window in hand (`_estimate`),
    the sample covariances and the filters built from them."""

    def __init__(self, run: _Run, system: SystemConfig):
        self.run = run
        self.config = config = run.config
        self.system = sysc = system  # its blocks are the longest training window
        self.fallbacks = {spec.label: 0 for spec in config.estimators}
        self.book = make_pilot_book(sysc.tau_p)
        self.rows = None  # (T, L, K) training pilot rows
        self.despread = None  # (K, T, N) training despread vectors
        if run.kinds & DATA_DRIVEN_KINDS:
            self.rows = allocate_pilots(
                sysc.blocks, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "random",
                run._rng("est_alloc"),
            )
            self.despread = np.empty(
                (sysc.ues_per_cell, sysc.blocks, sysc.antennas), dtype=complex
            )
        modes = sorted({_ALLOCATION[kind] for kind in run.kinds})
        # Per allocation in use: the held-out pilot rows (E, L, K) and
        # despread vectors (K, E, N).
        self.eval_rows = {
            mode: allocate_pilots(
                config.eval_blocks, sysc.cells, sysc.ues_per_cell, sysc.tau_p, mode,
                run._rng("eval_alloc"),
            )
            for mode in modes
        }
        self.held_out = {
            mode: _block_major(config.eval_blocks, sysc.ues_per_cell, sysc.antennas)
            for mode in modes
        }
        self.pilot_covs = None  # (K, N, N) sample pilot covariances
        self.all_cov = None  # (N, N) sample combined covariance
        self.lowranks: dict[int, list] = {}
        self.static_filters: dict[str, np.ndarray] = {
            spec.label: self._true_covariance_filters(spec.kind)
            for spec in config.estimators
            if spec.kind in _TRUE_COVARIANCE_KINDS
        }

    def pilot_cov_true(self) -> np.ndarray:
        """Despread-signal covariances (K, N, N) of the center UEs under random allocation."""
        run = self.run
        return run.total_cov + run.power * (self.system.tau_p - 1) * run.covs[0] + run.r_nn

    def _receive(self, h, rows, signals_stream, tau_u: int = 0, *data_streams, buffers):
        """Receive channels h (B, L, K, N), already scaled by the UEs'
        amplitudes, under pilot rows (B, L, K); a data phase needs its
        phase and noise streams.

        Returns pilot_rx (B, N, tau_p) and data_rx (B, N, tau_u), both in
        `buffers`, and the despread pilot vectors of every center UE, a new
        array (K, B, N).
        """
        run = self.run
        pilot_rx, data_rx = simulate_blocks(
            h, rows, self.book, None, run.noise_factor, signals_stream, tau_u,
            *data_streams, buffers=buffers,
        )
        d = despread_batch(pilot_rx, self.book, rows[:, 0])  # (B, K, N)
        return pilot_rx, data_rx, d.transpose(1, 0, 2)

    def finish(self, windows: list[int], combined: list) -> list[list[RunContribution]]:
        """The contributions of each training window of `windows`: its
        estimates are built from `combined`, its all-samples accumulator
        (None: nothing is trained), and evaluated on the held-out blocks."""
        out = []
        for window, acc in zip(windows, combined):
            if acc is not None:
                self._estimate(acc, window)
            per_label = self.evaluate()
            out.append(
                [
                    RunContribution(spec.label, per_label[spec.label], self.fallbacks[spec.label])
                    for spec in self.config.estimators
                ]
            )
        return out

    def _estimate(self, acc: AllCovAccumulator, window: int) -> None:
        """Build the sample covariances and the filters of training window
        `window` from the accumulator of all its samples and its first
        `window` despread vectors."""
        sysc = self.system
        power = self.run.power
        self.all_cov = acc.estimate()
        self.pilot_covs = estimate_pilot_cov(
            self.despread[:, :window], sysc.tau_p, sysc.cov_loading
        )
        self.fallbacks = dict.fromkeys(self.fallbacks, 0)
        # Only the ranked kinds (gevd, gevd_impr) carry a rank.  One GEVD
        # per UE at the largest rank serves every rank: a smaller one keeps
        # the leading modes of the same pencil.
        ranks = {spec.rank for spec in self.config.estimators if spec.rank}
        if ranks:
            top = [
                gevd_lowrank_estimator(pilot, self.all_cov, sysc.tau_p, power, max(ranks))
                for pilot in self.pilot_covs
            ]
            self.lowranks = {rank: [low.truncated(rank) for low in top] for rank in ranks}
        for spec in self.config.estimators:
            if spec.kind in RANKED_KINDS:
                # One fallback per UE estimate whose GEVD loaded all_cov.
                lowranks = self.lowranks[spec.rank]
                self.fallbacks[spec.label] += sum(low.loaded for low in lowranks)
            if spec.kind == "subt":
                estimates = subtraction_estimator(self.pilot_covs, self.all_cov, sysc.tau_p, power)
                # Per UE, so that a failed Cholesky loads only that UE's matrix.
                built = [
                    retry_loaded(partial(mmse_optimal_filter, r_cov=estimate, power=power), pilot)
                    for pilot, estimate in zip(self.pilot_covs, estimates)
                ]
                self.fallbacks[spec.label] += sum(events for _, events in built)
                w = np.stack([filt for filt, _ in built])
            elif spec.kind == "gevd":
                w = np.stack([approx_mmse_filter(low, power) for low in lowranks])
            else:
                continue  # true covariances, or gevd_impr: per pilot pattern
            self.static_filters[spec.label] = w

    def _true_covariance_filters(self, kind: str) -> np.ndarray:
        """(K, N, N) filters of a kind built from the true covariances."""
        sysc = self.system
        run = self.run
        if kind == "mmse_random":
            return mmse_optimal_filter(self.pilot_cov_true(), run.covs[0], run.power)
        if kind == "mmse_fixed":
            fixed_row = allocate_pilots(
                1, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "fixed_cyclic"
            )[0]
            return mmse_fixed_filter(run.covs, run.power, fixed_row, run.r_nn, sysc.tau_p)
        w = ls_estimate(np.eye(sysc.antennas), run.power, sysc.tau_p)  # ls_fixed
        return np.stack([w] * sysc.ues_per_cell)

    def evaluate(self) -> dict[str, float]:
        """Mean NMSE per estimator over the held-out blocks, with the
        filters of the training window in hand."""
        h_center = self.run.h_center
        total = self.config.eval_blocks * self.system.ues_per_cell
        err = {}
        for spec in self.config.estimators:
            if spec.kind == "gevd_impr":
                h_hat = self._improved_estimates(
                    spec.rank, spec.label, self.eval_rows["random"], self.held_out["random"]
                )
            else:
                d = self.held_out[_ALLOCATION[spec.kind]]
                h_hat = d @ self.static_filters[spec.label].conj()
            err[spec.label] = float(nmse(h_center, h_hat, self.run.covs[0][:, None]).sum()) / total
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
        power = self.run.power
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
                        self.system.tau_p, power, base,
                    )
                except NotPositiveDefinite:
                    h_hat[k, blocks] = d @ approx_mmse_filter(lowranks[k], power).conj()
                    degraded = True
                else:
                    h_hat[k, blocks] = filt.apply(d)
                    degraded = filt.clamped
                if degraded:
                    self.fallbacks[label] += len(blocks)
        return h_hat


def _chunk_blocks(system: SystemConfig) -> int:
    """Blocks per chunk: as many as fit their channels in CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (system.cells * system.ues_per_cell * system.antennas * 16))


def _thread_buffers(config: ExperimentConfig, systems: list[SystemConfig]) -> ThreadBuffers:
    """Per-thread buffer sets whose slots fit every array that the batch
    tasks of a run at sweep points `systems` request."""
    sysc = config.system
    links, n = sysc.cells * sysc.ues_per_cell, sysc.antennas
    tau_ps = {system.tau_p for system in systems}
    trains = bool({spec.kind for spec in config.estimators} & DATA_DRIVEN_KINDS)
    train_batch = min(BATCH_BLOCKS, max(system.blocks for system in systems)) if trains else 0
    chunk = _chunk_blocks(sysc)
    train_chunk = min(chunk, train_batch)
    eval_chunk = min(chunk, BATCH_BLOCKS, config.eval_blocks)
    tau_p, tau_u = max(tau_ps), sysc.tau_u if trains else 0
    # complex128 takes 16 bytes, float64 8; sample_channels draws at least
    # two blocks.  A training batch keeps its data phase and every tau_p's
    # pilot phase whole, and receives its chunks into them.
    channels = max(train_chunk, eval_chunk, 2) * links * n * 16
    sizes = slot_bytes(
        {
            "normals": channels,
            "channels": channels,
            "pilot_noise": max(train_chunk, eval_chunk) * n * tau_p * 16,
            "pilot_rx": eval_chunk * n * tau_p * 16,
            "phases": train_chunk * links * tau_u * 8,
            "symbols": train_chunk * links * tau_u * 16,
            "data_noise": train_chunk * n * tau_u * 16,
            "received": train_batch * n * (tau_u + sum(tau_ps)) * 16,
            "gram_conj": train_batch * n * max(tau_u, tau_p) * 16,
        }
    )
    return ThreadBuffers(sizes)


def thread_buffer_bytes(config: ExperimentConfig) -> int:
    """Bytes of the batch buffers that `run_sweep` keeps per worker thread."""
    systems = [config.system_for(value) for value in config.sweep.values]
    return sum(_thread_buffers(config, systems).sizes)


def run_single(
    config: ExperimentConfig,
    sweep_values: list[int],
    run_seed,
    pool: ThreadPoolExecutor | None = None,
    buffers: ThreadBuffers | None = None,
) -> list[list[RunContribution]]:
    """Execute one Monte-Carlo run at sweep points of any tau_p.

    Returns the contributions of each value of `sweep_values`, in order.
    One walk over the training batches of the longest window serves every
    point, and each batch is drawn once and received under every tau_p.
    Deterministic given (config, sweep value, run_seed): the seed keys
    every random stream of the run (geometry, estimation blocks,
    evaluation blocks), so a point gets the same contributions in any
    group.  The run's batch tasks go to `pool` when one is given, and
    take their arrays from the per-thread sets of `buffers` (without it,
    sets of the call's own, freed when it returns); the result is the same
    either way.  BLAS runs single-threaded for the duration of the call.
    """
    config.validate()
    systems = [config.system_for(value) for value in sweep_values]
    windows = sorted({system.blocks for system in systems})
    tau_ps = list(dict.fromkeys(system.tau_p for system in systems))
    if buffers is None:
        buffers = _thread_buffers(config, systems)
    with single_threaded_blas():
        run = _Run(config, run_seed, buffers)
        states = [
            _RunState(run, replace(config.system, tau_p=tau_p, blocks=windows[-1]))
            for tau_p in tau_ps
        ]
        combined = run.receive(states, windows, pool)
        finished = _fan_out(
            pool, [partial(state.finish, windows, accs) for state, accs in zip(states, combined)]
        )
    # A pool worker holds the task it ran, and with it the run, for a
    # moment after the task's result is in, and a task taken back from the
    # pool stays in its queue until a worker dequeues it; so the run lets
    # go of the buffer sets here, and sets of this call's own are freed
    # when it returns.
    run.buffers = None
    rows = {
        (tau_p, window): contributions
        for tau_p, per_window in zip(tau_ps, finished)
        for window, contributions in zip(windows, per_window)
    }
    return [rows[system.tau_p, system.blocks] for system in systems]


def simulated_blocks(config: ExperimentConfig) -> int:
    """Blocks a sweep passes to simulate_blocks: each run receives the
    training batches of its longest window, where a data-driven estimator
    trains, and its held-out batches once per pilot allocation in use,
    under every tau_p of the sweep."""
    systems = [config.system_for(value) for value in config.sweep.values]
    training = 0
    if {spec.kind for spec in config.estimators} & DATA_DRIVEN_KINDS:
        training = max([0, *(system.blocks for system in systems)])
    modes = len({_ALLOCATION[spec.kind] for spec in config.estimators})
    per_tau_p = training + modes * max(config.eval_blocks, 0)
    return per_tau_p * len({system.tau_p for system in systems}) * config.monte_carlo_runs


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[NmseResult]:
    """Run the full sweep-values x estimators x Monte-Carlo-runs grid.

    One job per run serves every sweep point.  Per-run results are
    averaged in a fixed order keyed by run index, so the aggregate is
    bitwise-identical regardless of `workers`.  BLAS runs single-threaded
    for the duration of the sweep, so `workers` is the only source of
    parallelism.
    """
    config.validate()
    # One buffer set per thread that runs a task, shared by every run of
    # the sweep and freed with it.
    buffers = _thread_buffers(config, [config.system_for(value) for value in config.sweep.values])

    def job(run_index: int, pool: ThreadPoolExecutor | None = None):
        # Streams are keyed by run index only, so run r sees the same
        # geometry and evaluation blocks at every sweep point: sweep curves
        # are paired comparisons.
        seed = (config.master_seed, run_index)
        return run_single(config, config.sweep.values, seed, pool, buffers)

    runs = []
    with single_threaded_blas():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # At most `workers` runs in flight, so memory grows with
                # them, not with monte_carlo_runs: a task that its run took
                # back from the pool keeps the run alive in the pool's queue.
                in_flight = deque()
                for run_index in range(config.monte_carlo_runs):
                    if len(in_flight) == workers:
                        runs.append(in_flight.popleft().result())
                    in_flight.append(pool.submit(job, run_index, pool))
                runs += [pending.result() for pending in in_flight]
        else:
            runs = [job(run_index) for run_index in range(config.monte_carlo_runs)]

    results = []
    for point, sweep_value in enumerate(config.sweep.values):
        for position, spec in enumerate(config.estimators):
            values = [run[point][position].nmse for run in runs]
            mean = sum(values) / len(values)
            results.append(
                NmseResult(
                    estimator=spec.label,
                    sweep_variable=config.sweep.variable,
                    sweep_value=int(sweep_value),
                    nmse=mean,
                    nmse_db=10.0 * math.log10(mean) if mean > 0 else float("-inf"),
                    runs_aggregated=config.monte_carlo_runs,
                    fallback_count=sum(run[point][position].fallbacks for run in runs),
                )
            )
    return results
