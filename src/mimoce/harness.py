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
tau_p of the sweep has a `_RunState`: its pilot rows, its true-covariance
filters and its held-out despread vectors.  The points of one tau_p
differ only in their training window T.  Every random draw is
block-major, so the first T blocks of the longest window are the blocks a
run of window T alone receives, bit for bit: each shorter window takes a
prefix of the batch it ends in, and a T sweep synthesizes only its
longest window.

Training keeps sums, not samples.  The estimates of a window need two
sums of per-block Grams per tau_p (`AllCovAccumulator`): one over all
antenna samples of its blocks, pilot and data phases, and one per center
UE over its despread vectors.  From these a window's estimates are built
as one value (`_Window`).

Each training batch and each held-out batch of a run is one task.  The
task draws the batch's channels once and receives them under every
tau_p; the data phase has streams of its own, so it is synthesized once,
with the first tau_p's pilot phase.  The run merges the tasks' sums in
batch order.  It then runs one task per tau_p that evaluates the
true-covariance filters, which no window changes, and one per (tau_p,
window) that builds and evaluates the window's estimates.  The tasks go
to the sweep's worker pool (`_fan_out`), so a sweep of fewer runs than
workers still keeps every worker busy, and their results are taken in
key order, so no result bit depends on `workers`.

A batch task draws and receives its blocks in chunks of at most
CHUNK_BYTES of channels, one Generator per stream continued from chunk to
chunk, so a batch holds the same bits in any chunking.  A training chunk
also ends where a window ends.  The channel factors are stored without
the leading columns that are zero in all of them, and each chunk's
channels are scaled by the UEs' amplitudes once for all its receives.
The data phase, each tau_p's pilot phase and its despread vectors are
added to the batch's running sums as soon as they are received, in
groups of blocks counted from the batch start (`AllCovAccumulator.add`),
and a copy of every sum is kept where a chunk ends a window or the
batch.  No receive sample outlives its chunk but those of an incomplete
group, copied.  The sum of a set of blocks thus depends only on those
blocks, not on the chunks that split them.

A batch task makes one set of buffers (`mimoce.buffers`) when it starts
and drops it when it returns: a chunk's channels, their normals, its
noise, data symbols and phases, and its receive samples.  Every set of a
run is one allocation of the same size, fitted to its largest chunk
(`_slot_sizes`); below glibc's 32 MiB mmap ceiling, the allocator hands a
freed set whole to the next task.  A thread runs one task at a time, so
at most `workers` sets exist at once.  A task copies out what it keeps (held-out
despread vectors and channels, sums), so nothing it returns points into
a buffer.
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
from .buffers import CHUNK_BYTES, BatchBuffers, slot_bytes
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


@dataclass
class _Window:
    """The estimates of one training window, built from its two sums."""

    pilot_covs: np.ndarray  # (K, N, N) sample pilot covariances
    lowranks: dict[int, list]  # per rank, the K GEVD estimates
    filters: dict[str, np.ndarray]  # (K, N, N) per subt and gevd label
    fallbacks: dict[str, int]  # per data-driven label, of its build


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


def _split(blocks: slice, stride: int, cuts=()) -> list[slice]:
    """Range `blocks` in consecutive pieces of at most `stride` blocks,
    a piece ending at each of `cuts` inside it and restarting there."""
    ends = sorted({cut for cut in cuts if blocks.start < cut < blocks.stop} | {blocks.stop})
    pieces, first = [], blocks.start
    for end in ends:
        pieces += [slice(start, min(start + stride, end)) for start in range(first, end, stride)]
        first = end
    return pieces


def _batches(stop: int) -> list[tuple[int, slice]]:
    """(batch index i, block slice) of each batch of blocks [0, stop)."""
    return list(enumerate(_split(slice(0, stop), BATCH_BLOCKS)))


class _Run:
    """One Monte-Carlo run: its keyed streams, its network (covariances,
    their factors without the columns that are zero in all of them, noise
    covariance and factor, and the network-wide covariance at the center
    BS), which no sweep variable changes, and the center-cell channels
    (K, E, N) of its held-out blocks.  Each of its batch tasks receives its
    blocks in chunks of at most `chunk` blocks into a buffer set of its own."""

    def __init__(self, config: ExperimentConfig, run_seed):
        self.config = config
        self.keys = tuple(run_seed)
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

    def _chunks(self, blocks: slice, cuts=()) -> list[slice]:
        """Batch `blocks` in consecutive chunks of at most `chunk` blocks,
        one ending at each of `cuts` inside the batch."""
        return _split(blocks, self.chunk, cuts)

    def _sums(self, states: list[_RunState]) -> list[AllCovAccumulator]:
        """Empty sums of the data phase, then per state of its pilot phase and despread vectors."""
        n, ues = self.config.system.antennas, self.config.system.ues_per_cell
        return [AllCovAccumulator(n)] + [
            AllCovAccumulator(n, lead) for _ in states for lead in (None, ues)
        ]

    def receive(
        self, states: list[_RunState], windows: list[int], pool: ThreadPoolExecutor | None
    ) -> list[list]:
        """Receive every training and held-out batch under every state,
        one task per batch.

        Returns, per state, the two sums of each training window
        (ascending, the last one the states' `system.blocks`): that of all
        samples of its first T blocks, the pilot phase under the state's
        rows and the data phase, and that of the state's despread vectors
        of the same blocks.  The stops of each training task, in batch
        order, are merged onto the sums of the batches before it, so no
        sum depends on which worker ran which task.  Without a data-driven
        estimator nothing is trained, and no window has sums.
        """
        training = _batches(windows[-1]) if self.kinds & DATA_DRIVEN_KINDS else []
        tasks = [partial(self._train, states, windows, *batch) for batch in training]
        tasks += [
            partial(self._held_out, states, *batch)
            for batch in _batches(self.config.eval_blocks)
        ]
        results = _fan_out(pool, tasks)
        combined: list[list] = [[] for _ in states]
        running = self._sums(states)  # the sums of the batches before this one
        for stops in results[: len(training)]:
            for stop, sums in stops.items():
                reached = [acc.copy() for acc in running]
                for acc, part in zip(reached, sums):
                    acc.merge(part)
                if stop in windows:
                    data, *parts = [acc.copy() for acc in reached]
                    for out, pilot, despread in zip(combined, parts[::2], parts[1::2]):
                        pilot.merge(data)
                        out.append((pilot, despread))
            running = reached  # the batch end is its last stop
        return combined

    def _train(
        self, states: list[_RunState], windows: list[int], batch: int, blocks: slice
    ) -> dict[int, list[AllCovAccumulator]]:
        """Receive training batch `batch`, blocks `blocks`, under the rows
        of every state, in chunks that end at each of `windows` inside the
        batch.  The pilot noise comes from the batch's `est_signals` key
        and the data phase, synthesized with the first state's pilot
        phase, from its `data` and `data_noise` keys.  Each chunk's
        channels are drawn once and scaled by the UEs' amplitudes, and
        each receive's samples and despread vectors are added to the
        batch's running sums before the next receive.

        Returns, at each stop (each window that ends inside the batch, and
        the batch end), a copy of every sum of `_sums` over the batch's
        blocks before it.
        """
        sysc = self.config.system
        buffers = BatchBuffers(_slot_sizes(self.config, [state.system for state in states]))
        sums = self._sums(states)
        stops = {}
        # One Generator per stream for the whole batch, continued from
        # chunk to chunk.
        channels = self._rng("est_channels", batch)
        pilot_noise = [self._rng("est_signals", batch) for _ in states]
        data_streams = (self._rng("data", batch), self._rng("data_noise", batch))
        for chunk in self._chunks(blocks, windows):
            h = sample_channels(self.factors, channels, chunk.stop - chunk.start, buffers=buffers)
            h *= self.amplitudes
            data_phase = (sysc.tau_u, *data_streams)
            for state, noise, pilot, despread in zip(states, pilot_noise, sums[1::2], sums[2::2]):
                pilot_rx, data_rx, d = state._receive(
                    h, state.rows[chunk], noise, *data_phase, buffers=buffers
                )
                if data_phase:
                    sums[0].add(data_rx)
                pilot.add(pilot_rx)
                despread.add(d[..., None])  # one-sample blocks
                data_phase = ()
            if chunk.stop in windows or chunk.stop == blocks.stop:
                stops[chunk.stop] = [acc.copy() for acc in sums]
        return stops

    def _held_out(self, states: list[_RunState], batch: int, blocks: slice) -> None:
        """Receive held-out batch `batch`, blocks `blocks`, under every
        allocation in use of every state, and write the center-cell
        channels and each state's despread vectors of it.  All allocations
        see the same channel draws, chunk by chunk; each takes its pilot
        noise from batch `batch` of its `eval_signals` stream."""
        buffers = BatchBuffers(_slot_sizes(self.config, [state.system for state in states]))
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
                    state.held_out[mode][:, chunk] = d.transpose(1, 0, 2)


class _RunState:
    """One tau_p of a Monte-Carlo run: its pilot book and pilot rows, its
    true-covariance filters and the despread vectors of its held-out
    blocks."""

    def __init__(self, run: _Run, system: SystemConfig):
        self.run = run
        self.config = config = run.config
        self.system = sysc = system  # its blocks are the longest training window
        self.book = make_pilot_book(sysc.tau_p)
        self.rows = None  # (T, L, K) training pilot rows
        if run.kinds & DATA_DRIVEN_KINDS:
            self.rows = allocate_pilots(
                sysc.blocks, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "random",
                run._rng("est_alloc"),
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
        self.static_filters: dict[str, np.ndarray] = {
            spec.label: self._true_covariance_filters(spec.kind)
            for spec in config.estimators
            if spec.kind not in DATA_DRIVEN_KINDS
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
        array (B, K, N).
        """
        run = self.run
        pilot_rx, data_rx = simulate_blocks(
            h, rows, self.book, None, run.noise_factor, signals_stream, tau_u,
            *data_streams, buffers=buffers,
        )
        return pilot_rx, data_rx, despread_batch(pilot_rx, self.book, rows[:, 0])

    def finish(
        self, combined: AllCovAccumulator, despread: AllCovAccumulator
    ) -> dict[str, RunContribution]:
        """The contributions of the data-driven estimators in one training
        window, from its two sums (`_Run.receive`)."""
        return self.evaluate(self._estimate(combined, despread))

    def _estimate(self, combined: AllCovAccumulator, despread: AllCovAccumulator) -> _Window:
        """The estimates of one training window, built from its two sums."""
        sysc = self.system
        power = self.run.power
        all_cov = combined.estimate()
        pilot_covs = estimate_pilot_cov(despread, sysc.tau_p, sysc.cov_loading)
        lowranks, filters, fallbacks = {}, {}, {}
        # Only the ranked kinds (gevd, gevd_impr) carry a rank.  One GEVD
        # per UE at the largest rank serves every rank: a smaller one keeps
        # the leading modes of the same pencil.
        ranks = {spec.rank for spec in self.config.estimators if spec.rank}
        if ranks:
            top = [
                gevd_lowrank_estimator(pilot, all_cov, sysc.tau_p, power, max(ranks))
                for pilot in pilot_covs
            ]
            lowranks = {rank: [low.truncated(rank) for low in top] for rank in ranks}
        for spec in self.config.estimators:
            if spec.kind in RANKED_KINDS:
                # One fallback per UE estimate whose GEVD loaded all_cov.
                fallbacks[spec.label] = sum(low.loaded for low in lowranks[spec.rank])
            if spec.kind == "subt":
                estimates = subtraction_estimator(pilot_covs, all_cov, sysc.tau_p, power)
                # Per UE, so that a failed Cholesky loads only that UE's matrix.
                built = [
                    retry_loaded(partial(mmse_optimal_filter, r_cov=estimate, power=power), pilot)
                    for pilot, estimate in zip(pilot_covs, estimates)
                ]
                fallbacks[spec.label] = sum(events for _, events in built)
                filters[spec.label] = np.stack([filt for filt, _ in built])
            elif spec.kind == "gevd":
                lows = lowranks[spec.rank]
                filters[spec.label] = np.stack([approx_mmse_filter(low, power) for low in lows])
        return _Window(pilot_covs, lowranks, filters, fallbacks)

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

    def evaluate(self, window: _Window | None = None) -> dict[str, RunContribution]:
        """The contribution, mean NMSE over the held-out blocks and
        fallbacks, of each data-driven estimator with the estimates of
        `window`, or without one of each true-covariance estimator."""
        h_center = self.run.h_center
        total = self.config.eval_blocks * self.system.ues_per_cell
        out = {}
        for spec in self.config.estimators:
            if (spec.kind in DATA_DRIVEN_KINDS) == (window is None):
                continue
            fallbacks = 0 if window is None else window.fallbacks[spec.label]
            if spec.kind == "gevd_impr":
                h_hat, degraded = self._improved_estimates(
                    window, spec.rank, self.eval_rows["random"], self.held_out["random"]
                )
                fallbacks += degraded
            else:
                filters = self.static_filters if window is None else window.filters
                d = self.held_out[_ALLOCATION[spec.kind]]
                h_hat = d @ filters[spec.label].conj()
            err = float(nmse(h_center, h_hat, self.run.covs[0][:, None]).sum()) / total
            out[spec.label] = RunContribution(spec.label, err, fallbacks)
        return out

    def _improved_estimates(
        self, window: _Window, rank: int, rows: np.ndarray, d_random: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Apply the per-block improved filters of `window` to despread
        vectors (K, E, N) received under pilot rows (E, L, K): every
        held-out block at once.

        A filter depends on the block only through which center-cell UEs
        share UE k's pilot, so blocks are grouped by that pattern.  Each
        (UE, pattern) filter is built once per training window, from the
        UE's pattern-independent matrix (assembled once), and applied in
        factored form to that pattern's vectors alone.  Returns the
        estimates and the count of degraded filters per (block, UE) use.
        """
        center = rows[:, 0]  # (E, K)
        lowranks = window.lowranks[rank]
        power = self.run.power
        h_hat = np.empty_like(d_random)
        degraded = 0
        for k in range(center.shape[1]):
            pilot_cov = window.pilot_covs[k]
            base = improved_pilot_base(pilot_cov, lowranks, k)
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
                        pilot_cov, lowranks, center[first[g]], k, self.system.tau_p, power, base
                    )
                except NotPositiveDefinite:
                    h_hat[k, blocks] = d @ approx_mmse_filter(lowranks[k], power).conj()
                    degraded += len(blocks)
                else:
                    h_hat[k, blocks] = filt.apply(d)
                    degraded += len(blocks) if filt.clamped else 0
        return h_hat, degraded


def _chunk_blocks(system: SystemConfig) -> int:
    """Blocks per chunk: as many as fit their channels in CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (system.cells * system.ues_per_cell * system.antennas * 16))


def _slot_sizes(config: ExperimentConfig, systems: list[SystemConfig]) -> list[int]:
    """Bytes of the slots of a buffer set that fits every array that the
    batch tasks of a run at sweep points `systems` request."""
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
    # two blocks.
    channels = max(train_chunk, eval_chunk, 2) * links * n * 16
    pilot = max(train_chunk, eval_chunk) * n * tau_p * 16
    return slot_bytes(
        {
            "normals": channels,
            "channels": channels,
            "pilot_noise": pilot,
            "pilot_rx": pilot,
            "phases": train_chunk * links * tau_u * 8,
            "symbols": train_chunk * links * tau_u * 16,
            "data_noise": train_chunk * n * tau_u * 16,
            "data_rx": train_chunk * n * tau_u * 16,
        }
    )


def thread_buffer_bytes(config: ExperimentConfig) -> int:
    """Bytes of the buffer set of a batch task of `run_sweep`, the most
    that a worker thread holds at once."""
    systems = [config.system_for(value) for value in config.sweep.values]
    return sum(_slot_sizes(config, systems))


def run_single(
    config: ExperimentConfig,
    sweep_values: list[int],
    run_seed,
    pool: ThreadPoolExecutor | None = None,
) -> list[list[RunContribution]]:
    """Execute one Monte-Carlo run at sweep points of any tau_p.

    Returns the contributions of each value of `sweep_values`, in order.
    One walk over the training batches of the longest window serves every
    point, and each batch is drawn once and received under every tau_p.
    Deterministic given (config, sweep value, run_seed): the seed keys
    every random stream of the run (geometry, estimation blocks,
    evaluation blocks), so a point gets the same contributions in any
    group.  The run's tasks go to `pool` when one is given; the result is
    the same either way.  BLAS runs single-threaded for the duration of
    the call.
    """
    config.validate()
    systems = [config.system_for(value) for value in sweep_values]
    windows = sorted({system.blocks for system in systems})
    tau_ps = list(dict.fromkeys(system.tau_p for system in systems))
    with single_threaded_blas():
        run = _Run(config, run_seed)
        states = [
            _RunState(run, replace(config.system, tau_p=tau_p, blocks=windows[-1]))
            for tau_p in tau_ps
        ]
        combined = run.receive(states, windows, pool)
        # One task per tau_p for the true-covariance estimators, the same in
        # every window, and one per (tau_p, window) for the data-driven ones.
        tasks = {(state.system.tau_p, None): state.evaluate for state in states}
        for state, per_window in zip(states, combined):
            for window, sums in zip(windows, per_window):
                tasks[state.system.tau_p, window] = partial(state.finish, *sums)
        finished = dict(zip(tasks, _fan_out(pool, list(tasks.values()))))
    rows = []
    for system in systems:
        row = {**finished[system.tau_p, None], **finished.get((system.tau_p, system.blocks), {})}
        rows.append([row[spec.label] for spec in config.estimators])
    return rows


def simulated_blocks(config: ExperimentConfig) -> int:
    """Blocks a sweep passes to simulate_blocks: each run receives the
    training batches of its longest window, where a data-driven estimator
    trains, and its held-out batches once per pilot allocation in use,
    under every tau_p of the sweep."""
    systems = [config.system_for(value) for value in config.sweep.values]
    training = 0
    if {spec.kind for spec in config.estimators} & DATA_DRIVEN_KINDS:
        training = max(system.blocks for system in systems)
    modes = len({_ALLOCATION[spec.kind] for spec in config.estimators})
    per_tau_p = training + modes * config.eval_blocks
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

    def job(run_index: int, pool: ThreadPoolExecutor | None = None):
        # Streams are keyed by run index only, so run r sees the same
        # geometry and evaluation blocks at every sweep point: sweep curves
        # are paired comparisons.
        seed = (config.master_seed, run_index)
        return run_single(config, config.sweep.values, seed, pool)

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
