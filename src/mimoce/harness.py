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

The sweep points of one Monte-Carlo run draw from the same run-keyed
streams, so what a point would draw exactly as another point of the run
did is computed once per run (`_SharedRun`): the network and its
statistics; the channels of every training and held-out batch, which
do not depend on tau_p; the data phase of every training batch, which
has its own batch-keyed stream and does not depend on tau_p, as its Gram
sum; and, among points with the same tau_p, the held-out blocks, the
true-covariance filters and every full training batch.  So each point of
a tau_p sweep draws no channels and synthesizes no data phase that
another point of its run drew: only its own pilot phase.  An item is
kept only where a second point needs it, and dropped when the last one
takes it.  Sharing leaves every result bit unchanged.
"""

from __future__ import annotations

import copy
import math
import threading
from collections import Counter, defaultdict
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
    ls_estimate,
    mmse_fixed_filter,
    mmse_optimal_filter,
)
from .linalg import FALLBACK_LOADING, NotPositiveDefinite, load_diagonal, psd_factor
from .seeding import derive_rng

# Blocks simulated per vectorized batch; a fixed constant so that the
# per-run random streams are consumed identically on every machine.
BATCH_BLOCKS = 256

# Fresh evaluation blocks are drawn from dedicated streams, so estimation
# and evaluation data are disjoint by construction.
_STREAMS = {
    "geometry": 0,
    "est_alloc": 1,
    "est_channels": 2,
    "est_signals": 3,
    "eval_alloc": 4,
    "eval_channels": 5,
    "eval_signals_random": 6,
    "eval_signals_fixed_cyclic": 7,
}
# The data phase of training batch i is drawn from the stream keyed by
# (*run keys, _DATA_STREAM, i), so it depends only on the run, the batch
# index and the batch size, never on tau_p.
_DATA_STREAM = 8

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


def _run_keys(run_seed) -> tuple[int, ...]:
    return tuple(run_seed) if isinstance(run_seed, (tuple, list)) else (run_seed,)


def _streams(run_seed) -> dict[str, np.random.Generator]:
    keys = _run_keys(run_seed)
    return {name: derive_rng(*keys, i) for name, i in _STREAMS.items()}


def _batch_shapes(start: int, stop: int) -> list[tuple[int, int]]:
    """(first block, size) of each batch of blocks [start, stop); `start`
    is a multiple of BATCH_BLOCKS."""
    return [
        (first, min(BATCH_BLOCKS, stop - first))
        for first in range(start, stop, BATCH_BLOCKS)
    ]


def _publish(future: Future, compute):
    """Set `future` to compute() and return it, or set the exception raised."""
    try:
        result = compute()
    except BaseException as exc:
        future.set_exception(exc)
        raise
    future.set_result(result)
    return result


def _mmse_form_filter(pilot_matrix, target, power):
    """MMSE-form filter sqrt(p) pilot^{-1} target with one loading retry."""
    try:
        return mmse_optimal_filter(pilot_matrix, target, power), 0
    except NotPositiveDefinite:
        loaded = load_diagonal(pilot_matrix, FALLBACK_LOADING)
        return mmse_optimal_filter(loaded, target, power), 1


@dataclass(frozen=True)
class _TrainingBatch:
    """State of a point's training after one full batch: the pilot-phase
    accumulator, a copy of the batch's despread vectors (K, BATCH_BLOCKS, N),
    the Future of the batch's data-phase accumulator and the positions of
    the two training streams that the batch advanced."""

    acc: AllCovAccumulator
    despread: np.ndarray
    data: Future
    channels_state: dict
    signals_state: dict


class _SharedRun:
    """What the sweep points of one Monte-Carlo run compute identically.

    Streams are keyed by run index, so every point of a run builds the same
    network, and a batch of blocks [first, first + size) of a channel
    stream holds the same channels at every point that draws it.  The data
    phase of training batch i comes from its own stream keyed by i, so its
    Gram sum is a function of the run, i and the batch size alone, and one
    point synthesizes it for all.  Points with the same tau_p also draw the
    same held-out blocks and the same true-covariance filters.  Training
    batch i is drawn with the same shapes from the same stream positions at
    every T that has a full batch i, and the pilot rows of a shorter window
    are a prefix of a longer one's, so full batches are shared among points
    with the same tau_p; a partial last batch draws other shapes and is
    only shared with a point of the same T.

    `uses` counts, per key, the claims the run's points will make: a kept
    full training batch's channels and data phase are received only by the
    batch's owner, so they count once per tau_p; any other training batch
    counts once per point that receives it, and a held-out batch once per
    tau_p.  A key claimed fewer than twice is never stored, and a stored
    item is dropped when its last claim takes it, so a T sweep holds no
    channels and a tau_p sweep holds each batch only until its last point.

    Each kept item is a Future owned by the first point that claims it.
    The owner computes it outside the lock and publishes it, or the
    exception it raised; the other points wait on it.  The owner of a
    channel batch publishes it right after the draw, and any other owner
    waits on nothing but channel batches before it publishes, so no wait
    can come back to a point that is waiting.
    """

    def __init__(self, systems: list[SystemConfig], eval_blocks: int):
        self._lock = threading.Lock()
        groups = defaultdict(list)
        for system in systems:
            groups[system.tau_p].append(system.blocks)
        # Batch i is kept when a second point of the same tau_p trains on it.
        self._kept = {}
        self.uses = Counter({("network",): len(systems)})
        for tau_p, windows in groups.items():
            counts = sorted(blocks // BATCH_BLOCKS for blocks in windows)
            kept = self._kept[tau_p] = counts[-2] if len(counts) > 1 else 0
            self.uses[("held_out", tau_p)] = len(windows)
            for kind in _TRUE_COVARIANCE_KINDS:
                self.uses[("filters", tau_p, kind)] = len(windows)
            for index in range(kept):
                self.uses[("training", tau_p, index)] = sum(c > index for c in counts)
            # The owner of a kept batch receives it for the whole group; each
            # point receives the batches after its kept ones itself.
            received = _batch_shapes(0, kept * BATCH_BLOCKS)
            for blocks in windows:
                start = min(kept, blocks // BATCH_BLOCKS) * BATCH_BLOCKS
                received += _batch_shapes(start, blocks)
            for first, size in received:
                self.uses[("est_channels", first, size)] += 1
                self.uses[("data", first, size)] += 1
            for first, size in _batch_shapes(0, eval_blocks):
                self.uses[("eval_channels", first, size)] += 1
        self._store: dict[tuple, Future] = {}
        self._left: Counter = Counter()  # claims still to come per stored key

    def claim(self, key: tuple) -> tuple[Future, bool]:
        """The Future of `key` and whether the caller owns it.

        The owner must publish the result or an exception before it waits
        on anything but a channel batch; a key claimed fewer than twice per
        run gets a Future of its own.
        """
        if self.uses[key] < 2:
            return Future(), True
        with self._lock:
            future = self._store.get(key)
            owner = future is None
            if owner:
                future = self._store[key] = Future()
                self._left[key] = self.uses[key]
            self._left[key] -= 1
            if not self._left[key]:
                del self._store[key], self._left[key]
            return future, owner

    def get(self, key: tuple, compute):
        """compute(), once per run where two claims need it."""
        future, owner = self.claim(key)
        return _publish(future, compute) if owner else future.result()

    def kept_batches(self, system: SystemConfig) -> int:
        """Leading full training batches of this point that are shared."""
        return min(self._kept.get(system.tau_p, 0), system.blocks // BATCH_BLOCKS)


class _RunState:
    """Everything derived once per (sweep value, run): network, statistics,
    sample covariances and the block-independent filters.  What does not
    depend on the sweep point comes from `shared`."""

    def __init__(
        self,
        config: ExperimentConfig,
        system: SystemConfig,
        run_seed,
        shared: _SharedRun | None = None,
    ):
        self.config = config
        self.system = system
        self.keys = _run_keys(run_seed)
        self.rngs = _streams(self.keys)
        if shared is None:
            shared = _SharedRun([system], config.eval_blocks)
        self.shared = shared
        self.kinds = {spec.kind for spec in config.estimators}
        self.fallbacks = {spec.label: 0 for spec in config.estimators}
        self._impr_cache: dict[tuple, tuple[np.ndarray, bool]] = {}

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
        if self.kinds & DATA_DRIVEN_KINDS:
            self._estimate_covariances()
        self._build_static_filters()

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
            self.rngs["geometry"],
        )
        covs = bs_covariances(
            geometry, 0, sysc.antennas, math.radians(sysc.half_spread_deg)
        )
        jammer = None
        if sysc.jammer_power > 0:
            a = steering_vector(sysc.antennas, math.radians(sysc.jammer_angle_deg))
            jammer = (a, sysc.jammer_power)
        r_nn = make_noise_covariance(sysc.antennas, sysc.noise_power, jammer)
        total_cov = self.power * np.einsum("lkij->ij", covs)
        return covs, covariance_factors(covs), r_nn, psd_factor(r_nn), total_cov

    def pilot_cov_true(self) -> np.ndarray:
        """Despread-signal covariances (K, N, N) of the center UEs under random allocation."""
        tau_p = self.system.tau_p
        return self.total_cov + self.power * (tau_p - 1) * self.covs[0] + self.r_nn

    def _batches(self, start: int, stop: int, stream: str):
        """Yield (block slice, channels (B, L, K, N)) per batch of blocks
        [start, stop) of a channel stream; `start` is a multiple of
        BATCH_BLOCKS.

        A batch that another point of the run draws too is drawn once and
        shared, read-only; the stream is then left where that draw left it.
        The owner of a batch publishes it right after the draw.
        """
        rng = self.rngs[stream]

        def draw(size):
            h = sample_channels(self.factors, rng, blocks=size)
            h.flags.writeable = False
            return h, rng.bit_generator.state

        for first, size in _batch_shapes(start, stop):
            h, state = self.shared.get((stream, first, size), partial(draw, size))
            rng.bit_generator.state = state
            yield slice(first, first + size), h

    def _receive(self, h, rows, signals_stream, tau_u: int = 0, data_stream=None):
        """Receive a batch under pilot rows (B, L, K).

        Returns pilot_rx (B, N, tau_p), data_rx (B, N, tau_u) and the
        despread pilot vectors of every center UE, shape (K, B, N).
        """
        pilot_rx, data_rx = simulate_blocks(
            h, rows, self.book, self.powers, self.noise_factor, signals_stream, tau_u,
            data_stream,
        )
        d = despread_batch(pilot_rx, self.book, rows[:, 0])  # (B, K, N)
        return pilot_rx, data_rx, d.transpose(1, 0, 2)

    def _estimate_covariances(self) -> None:
        sysc = self.system
        cells, ues, n = sysc.cells, sysc.ues_per_cell, sysc.antennas
        rows = allocate_pilots(
            sysc.blocks, cells, ues, sysc.tau_p, "random", self.rngs["est_alloc"]
        ).indices
        channels, signals = self.rngs["est_channels"], self.rngs["est_signals"]
        acc = AllCovAccumulator(n)  # pilot phase
        despread = np.empty((ues, sysc.blocks, n), dtype=complex)
        grams: list[Future] = []  # per batch, its data-phase accumulator
        start = 0
        for index in range(self.shared.kept_batches(sysc)):
            stop = start + BATCH_BLOCKS
            batch = self.shared.get(
                ("training", sysc.tau_p, index),
                partial(self._training_batch, rows, acc, despread, start, stop),
            )
            acc = copy.deepcopy(batch.acc)
            despread[:, start:stop] = batch.despread
            grams.append(batch.data)
            channels.bit_generator.state = batch.channels_state
            signals.bit_generator.state = batch.signals_state
            start = stop
        grams += self._train(rows, acc, despread, start, sysc.blocks)
        # The phases are summed apart, each in batch order, so the sum does
        # not depend on which point synthesized which data phase.
        data = AllCovAccumulator(n)
        for gram in grams:
            data.merge(gram.result())
        acc.merge(data)
        self.all_cov = acc.estimate()
        self.pilot_covs = estimate_pilot_cov(despread, sysc.tau_p, sysc.cov_loading)
        # Only the ranked kinds (gevd, gevd_impr) carry a rank.
        ranks = sorted({spec.rank for spec in self.config.estimators if spec.rank})
        for rank in ranks:
            self.lowranks[rank] = [
                gevd_lowrank_estimator(pilot, self.all_cov, sysc.tau_p, self.power, rank)
                for pilot in self.pilot_covs
            ]

    def _train(self, rows, acc, despread, start: int, stop: int) -> list[Future]:
        """Receive training blocks [start, stop): the pilot phase into `acc`
        and `despread`.

        Returns per batch the Future of its data-phase accumulator.  The
        run's first point to claim a batch synthesizes its data phase and
        publishes it at once; every other point receives the pilot phase
        only and waits for the data phase after its last batch.  A batch's
        channels are claimed before its data phase, so the owner of a
        channel batch waits on nothing before it publishes.
        """
        grams = []
        for blocks, h in self._batches(start, stop, "est_channels"):
            index = blocks.start // BATCH_BLOCKS
            gram, owner = self.shared.claim(("data", blocks.start, len(h)))
            try:
                pilot_rx, data_rx, d = self._receive(
                    h,
                    rows[blocks],
                    self.rngs["est_signals"],
                    self.system.tau_u if owner else 0,
                    derive_rng(*self.keys, _DATA_STREAM, index) if owner else None,
                )
                if owner:
                    data = AllCovAccumulator(self.system.antennas)
                    data.add(data_rx)
                    gram.set_result(data)
            except BaseException as exc:
                if owner:
                    gram.set_exception(exc)
                raise
            acc.add(pilot_rx)
            despread[:, blocks] = d
            grams.append(gram)
        return grams

    def _training_batch(self, rows, acc, despread, start, stop) -> _TrainingBatch:
        (data,) = self._train(rows, acc, despread, start, stop)
        return _TrainingBatch(
            copy.deepcopy(acc),
            despread[:, start:stop].copy(),
            data,
            self.rngs["est_channels"].bit_generator.state,
            self.rngs["est_signals"].bit_generator.state,
        )

    def _build_static_filters(self) -> None:
        sysc = self.system
        self.static_filters: dict[str, np.ndarray] = {}
        for spec in self.config.estimators:
            if spec.kind in RANKED_KINDS:
                # One fallback per UE estimate whose GEVD loaded all_cov.
                lowranks = self.lowranks[spec.rank]
                self.fallbacks[spec.label] += sum(low.loaded for low in lowranks)
            if spec.kind in _TRUE_COVARIANCE_KINDS:
                w = self.shared.get(
                    ("filters", sysc.tau_p, spec.kind),
                    partial(self._true_covariance_filters, spec.kind),
                )
            elif spec.kind == "subt":
                estimates = subtraction_estimator(
                    self.pilot_covs, self.all_cov, sysc.tau_p, self.power
                )
                # Per UE, so that a failed Cholesky loads only that UE's matrix.
                built = [
                    _mmse_form_filter(pilot, estimate, self.power)
                    for pilot, estimate in zip(self.pilot_covs, estimates)
                ]
                self.fallbacks[spec.label] += sum(events for _, events in built)
                w = np.stack([filt for filt, _ in built])
            elif spec.kind == "gevd":
                w = np.stack([approx_mmse_filter(low, self.power) for low in lowranks])
            else:
                continue  # gevd_impr depends on the block's pilot pattern
            self.static_filters[spec.label] = w

    def _true_covariance_filters(self, kind: str) -> np.ndarray:
        """(K, N, N) filters of a kind built from the true covariances."""
        sysc = self.system
        if kind == "mmse_random":
            return mmse_optimal_filter(self.pilot_cov_true(), self.covs[0], self.power)
        if kind == "mmse_fixed":
            fixed_row = allocate_pilots(
                1, sysc.cells, sysc.ues_per_cell, sysc.tau_p, "fixed_cyclic"
            ).indices[0]
            return mmse_fixed_filter(self.covs, self.power, fixed_row, self.r_nn, sysc.tau_p)
        w = ls_estimate(np.eye(sysc.antennas), self.power, sysc.tau_p)  # ls_fixed
        return np.stack([w] * sysc.ues_per_cell)

    def _held_out(self, eval_blocks: int):
        """Draw the held-out blocks.

        Returns the pilot rows (blocks, L, K) of each allocation in use and,
        per batch, (block slice, center-cell channels (K, B, N), despread
        vectors (K, B, N) per allocation).  All allocations see the same
        channel draws.
        """
        sysc = self.system
        modes = sorted({_ALLOCATION[kind] for kind in self.kinds})
        rows = {
            mode: allocate_pilots(
                eval_blocks, sysc.cells, sysc.ues_per_cell, sysc.tau_p, mode,
                self.rngs["eval_alloc"],
            ).indices
            for mode in modes
        }
        batches = []
        for blocks, h in self._batches(0, eval_blocks, "eval_channels"):
            # A copy: a kept view would hold every cell's channels.
            h_center = np.moveaxis(h[:, 0].copy(), 0, 1)
            despread = {
                mode: self._receive(
                    h, rows[mode][blocks], self.rngs[f"eval_signals_{mode}"]
                )[2]
                for mode in modes
            }
            batches.append((blocks, h_center, despread))
        return rows, batches

    def evaluate(self, eval_blocks: int) -> dict[str, float]:
        """Mean NMSE per estimator over fresh held-out blocks."""
        sysc = self.system
        self._impr_cache = {}
        err = {spec.label: 0.0 for spec in self.config.estimators}
        rows, batches = self.shared.get(
            ("held_out", sysc.tau_p), partial(self._held_out, eval_blocks)
        )
        for blocks, h_center, despread in batches:
            for spec in self.config.estimators:
                d = despread[_ALLOCATION[spec.kind]]
                if spec.kind == "gevd_impr":
                    h_hat = self._improved_estimates(
                        spec.rank, spec.label, rows["random"][blocks], d
                    )
                else:
                    h_hat = d @ self.static_filters[spec.label].conj()
                err[spec.label] += float(
                    nmse(h_center, h_hat, self.covs[0][:, None]).sum()
                )
        total = eval_blocks * sysc.ues_per_cell
        return {label: value / total for label, value in err.items()}

    def _improved_estimates(
        self, rank: int, label: str, rows: np.ndarray, d_random: np.ndarray
    ) -> np.ndarray:
        """Apply the per-block improved filters to despread vectors (K, B, N).

        A filter depends on the block only through which center-cell UEs
        share UE k's pilot, so blocks are grouped by that pattern and each
        filter is built once per run (cached) and applied once per batch.
        Fallbacks count degraded filters per (block, UE) use.
        """
        center = rows[:, 0]  # (B, K)
        h_hat = np.empty_like(d_random)
        for k in range(center.shape[1]):
            patterns, first, group = np.unique(
                center == center[:, k : k + 1],
                axis=0,
                return_index=True,
                return_inverse=True,
            )
            for g, pattern in enumerate(patterns):
                key = (rank, k, pattern.tobytes())
                cached = self._impr_cache.get(key)
                if cached is None:
                    try:
                        filt = improved_mmse_filter(
                            self.pilot_covs[k],
                            self.lowranks[rank],
                            center[first[g]],
                            k,
                            self.system.tau_p,
                            self.power,
                        )
                        cached = (filt.w, filt.clamped)
                    except NotPositiveDefinite:
                        lowrank = self.lowranks[rank][k]
                        cached = (approx_mmse_filter(lowrank, self.power), True)
                    self._impr_cache[key] = cached
                w, degraded = cached
                blocks = np.flatnonzero(group == g)
                h_hat[k, blocks] = d_random[k, blocks] @ w.conj()
                if degraded:
                    self.fallbacks[label] += len(blocks)
        return h_hat


def run_single(
    config: ExperimentConfig,
    sweep_value: int,
    run_seed,
    shared: _SharedRun | None = None,
) -> list[RunContribution]:
    """Execute one Monte-Carlo run at one sweep point.

    Deterministic given (config, sweep_value, run_seed): the seed keys
    every random stream of the run (geometry, estimation blocks,
    evaluation blocks).  `shared` holds what the run's other sweep points
    already computed; it must come from the same config and run_seed, and
    the result is the same with or without it.  BLAS runs single-threaded
    for the duration of the call.
    """
    config.validate()
    system = config.system_for(sweep_value)
    with single_threaded_blas():
        state = _RunState(config, system, run_seed, shared)
        per_label = state.evaluate(config.eval_blocks)
    return [
        RunContribution(
            estimator=spec.label,
            nmse=per_label[spec.label],
            fallbacks=state.fallbacks[spec.label],
        )
        for spec in config.estimators
    ]


def shared_channel_bytes(config: ExperimentConfig) -> int:
    """Most bytes of channel draws that one Monte-Carlo run in flight keeps
    for a second sweep point: its training and held-out windows in a tau_p
    sweep, nothing in a T sweep."""
    systems = [config.system_for(value) for value in config.sweep.values]
    uses = _SharedRun(systems, config.eval_blocks).uses
    streams = {"eval_channels"}
    if {spec.kind for spec in config.estimators} & DATA_DRIVEN_KINDS:
        streams.add("est_channels")
    blocks = sum(key[2] for key, n in uses.items() if key[0] in streams and n > 1)
    sysc = config.system
    links = sysc.cells * sysc.ues_per_cell
    return blocks * links * sysc.antennas * np.dtype(complex).itemsize


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[NmseResult]:
    """Run the full sweep-values x estimators x Monte-Carlo-runs grid.

    Per-run results are averaged in a fixed order keyed by run index, so
    the aggregate is bitwise-identical regardless of `workers`.  BLAS runs
    single-threaded for the duration of the sweep, so `workers` is the
    only source of parallelism.
    """
    config.validate()
    systems = [config.system_for(value) for value in config.sweep.values]
    # Run-major, so that a run's points run close together and its shared
    # state is released early: memory grows with the runs in flight, not
    # with monte_carlo_runs.
    jobs = [
        (sweep_index, sweep_value, run_index)
        for run_index in range(config.monte_carlo_runs)
        for sweep_index, sweep_value in enumerate(config.sweep.values)
    ]
    live: dict[int, _SharedRun] = {}
    points_left = Counter(run_index for _, _, run_index in jobs)
    live_lock = threading.Lock()

    def execute(job):
        sweep_index, sweep_value, run_index = job
        # Streams are keyed by run index only, so run r sees the same
        # geometry and evaluation blocks at every sweep point: sweep curves
        # are paired comparisons.  Training windows of a T-sweep are not
        # nested: samplers draw whole batch shapes, so the first training
        # blocks at T=75 and T=150 already differ.  Full batches are the
        # same draws at every T, though (same shapes from the same stream
        # positions), and the channels and data phase of a batch are the
        # same at every tau_p (the channel streams carry no pilots, and the
        # data phase has its own batch-keyed stream), so _SharedRun
        # computes each once per run and drops it at its last use.  Points
        # of one run that run at once split that work between them: each
        # draws the channel batches and data phases it claims first.
        seed = (config.master_seed, run_index)
        with live_lock:
            if run_index not in live:
                live[run_index] = _SharedRun(systems, config.eval_blocks)
            shared = live[run_index]
        try:
            return (sweep_index, run_index), run_single(config, sweep_value, seed, shared)
        finally:
            with live_lock:
                points_left[run_index] -= 1
                if not points_left[run_index]:
                    del live[run_index]

    store: dict[tuple[int, int], list[RunContribution]] = {}
    with single_threaded_blas():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for key, contribs in pool.map(execute, jobs):
                    store[key] = contribs
        else:
            for job in jobs:
                key, contribs = execute(job)
                store[key] = contribs

    results = []
    for sweep_index, sweep_value in enumerate(config.sweep.values):
        for position, spec in enumerate(config.estimators):
            values = []
            fallbacks = 0
            for run_index in range(config.monte_carlo_runs):
                contribution = store[(sweep_index, run_index)][position]
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
