"""Tests for the Monte-Carlo experiment driver."""

import dataclasses
import itertools
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mimoce import buffers, covest, harness
from mimoce.airlink import allocate_pilots, despread_batch, simulate_blocks
from mimoce.cli import parse_config
from mimoce.config import FIXED_KINDS, EstimatorSpec, ExperimentConfig, SweepSpec, SystemConfig
from mimoce.estimators import approx_mmse_filter, improved_mmse_filter, ls_estimate
from mimoce.channel import sample_channels
from mimoce.covest import AllCovAccumulator
from mimoce.harness import (
    _STREAMS,
    NmseResult,
    ZeroTraceCovariance,
    _fan_out,
    _Run,
    _RunState,
    nmse,
    run_single,
    run_sweep,
)
from mimoce.linalg import NotPositiveDefinite
from mimoce.seeding import derive_rng
from support import fixed_allocation_reference

ROOT = Path(__file__).resolve().parent.parent


def small_config(**overrides):
    system = SystemConfig(
        cells=7,
        ues_per_cell=2,
        antennas=8,
        tau_p=4,
        tau_u=6,
        blocks=40,
        noise_power=0.2,
    )
    defaults = dict(
        system=system,
        estimators=[
            EstimatorSpec("mmse_random"),
            EstimatorSpec("subt"),
            EstimatorSpec("gevd", rank=3),
            EstimatorSpec("gevd_impr", rank=3),
            EstimatorSpec("ls_fixed"),
            EstimatorSpec("mmse_fixed"),
        ],
        sweep=SweepSpec(variable="T", values=[30]),
        monte_carlo_runs=2,
        eval_blocks=25,
        master_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestNmse:
    def test_perfect_estimate(self):
        h = np.arange(4, dtype=complex)
        assert nmse(h, h, np.eye(4, dtype=complex)) == 0.0

    def test_zero_estimate_normalization(self):
        h = np.array([1.0, 1.0j], dtype=complex)
        value = nmse(h, np.zeros(2, dtype=complex), np.eye(2, dtype=complex))
        assert value == pytest.approx(np.vdot(h, h).real / 2.0)

    def test_doubled_estimate_expectation(self):
        # h_hat = 2h gives ||h||^2 / tr(R), which averages to one
        rng = np.random.default_rng(0)
        r = np.eye(3, dtype=complex)
        draws = [
            (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * np.sqrt(0.5)
            for _ in range(20_000)
        ]
        mean = np.mean([nmse(h, 2.0 * h, r) for h in draws])
        assert abs(mean - 1.0) < 0.05

    def test_zero_trace_rejected(self):
        with pytest.raises(ZeroTraceCovariance):
            nmse(np.ones(2), np.ones(2), np.zeros((2, 2)))

    def test_batched_matches_per_vector(self):
        rng = np.random.default_rng(1)
        ues, blocks, n = 3, 5, 4
        h = rng.standard_normal((ues, blocks, n)) + 1j * rng.standard_normal((ues, blocks, n))
        h_hat = h + 0.3 * rng.standard_normal((ues, blocks, n))
        covs = np.stack([(k + 1.0) * np.eye(n, dtype=complex) for k in range(ues)])
        batched = nmse(h, h_hat, covs[:, None])
        assert batched.shape == (ues, blocks)
        for k in range(ues):
            for b in range(blocks):
                diff = h_hat[k, b] - h[k, b]
                expected = np.vdot(diff, diff).real / np.trace(covs[k]).real
                assert batched[k, b] == pytest.approx(expected, rel=1e-14)

    def test_zero_trace_in_stack_rejected(self):
        covs = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(ZeroTraceCovariance):
            nmse(np.ones((3, 2)), np.zeros((3, 2)), covs)


def trained_state(config, system, run_seed):
    """The run state of `system`, with its held-out blocks received, and
    the estimates of its system.blocks training blocks.  The run's network
    comes from config.system, so `system` may differ from it only in
    blocks and tau_p."""
    run = _Run(config, run_seed)
    state = _RunState(run, system)
    ((sums,),) = run.receive([state], [system.blocks], None)
    return state, state._estimate(*sums)


def improved_reference(state, window, rank, rows, d_random):
    """Per-(block, UE) loop: one improved filter built and applied per vector."""
    ues, b_blocks, _ = d_random.shape
    h_hat = np.empty_like(d_random)
    fallbacks = 0
    for b in range(b_blocks):
        center_row = rows[b, 0]
        for k in range(ues):
            try:
                filt = improved_mmse_filter(
                    window.pilot_covs[k], window.lowranks[rank], center_row, k,
                    state.system.tau_p, state.run.power,
                )
                w, degraded = filt.w, filt.clamped
            except NotPositiveDefinite:
                w = approx_mmse_filter(window.lowranks[rank][k], state.run.power)
                degraded = True
            h_hat[k, b] = d_random[k, b] @ w.conj()
            fallbacks += degraded
    return h_hat, fallbacks


class TestImprovedEstimates:
    def test_grouped_matches_per_vector_loop(self, monkeypatch):
        # tau_p = 2 with 4 UEs per cell: sharing patterns repeat across
        # blocks, and the short training window makes many filters clamped.
        # Batches of 16 blocks: the 30 held-out blocks span two batches.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 16)
        system = SystemConfig(
            cells=7, ues_per_cell=4, antennas=8, tau_p=2, tau_u=6, blocks=20,
            noise_power=0.2,
        )
        spec = EstimatorSpec("gevd_impr", rank=3)
        config = small_config(system=system, estimators=[spec], eval_blocks=30)
        vectors = count_channel_vectors(monkeypatch)
        state, window = trained_state(config, system, (3, 0))
        # 20 training blocks, then 30 held-out ones.
        links = system.cells * system.ues_per_cell
        assert vectors == [16 * links, 4 * links, 16 * links, 14 * links]

        builds = []
        real_filter = harness.improved_mmse_filter

        def counting(pilot_cov, lowranks, pilot_row, ue, *args):
            row = np.asarray(pilot_row)
            builds.append((ue, tuple(row == row[ue])))
            return real_filter(pilot_cov, lowranks, pilot_row, ue, *args)

        applied = []
        real_estimates = _RunState._improved_estimates

        def recording(self, window, rank, rows, d_random):
            h_hat, degraded = real_estimates(self, window, rank, rows, d_random)
            applied.append((rows, d_random, h_hat))
            return h_hat, degraded

        monkeypatch.setattr(harness, "improved_mmse_filter", counting)
        monkeypatch.setattr(_RunState, "_improved_estimates", recording)
        contributions = state.evaluate(window)

        # One call over every held-out block, one build per (UE, pattern).
        ((rows, d_random, got),) = applied
        assert d_random.shape[1] == config.eval_blocks
        center = rows[:, 0]
        patterns = {
            (k, tuple(row == row[k])) for row in center for k in range(system.ues_per_cell)
        }
        assert sorted(builds) == sorted(patterns)

        expected, expected_fallbacks = improved_reference(state, window, 3, rows, d_random)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert 0 < expected_fallbacks < d_random.shape[0] * d_random.shape[1]
        assert contributions[spec.label].fallbacks == expected_fallbacks


class TestStaticFilters:
    def test_ls_fixed_filter_matches_ls_estimate(self):
        config = small_config(estimators=[EstimatorSpec("ls_fixed")])
        system = config.system = dataclasses.replace(config.system, uplink_power=0.7)
        state = _RunState(_Run(config, (4, 0)), system)
        w = state.static_filters["ls_fixed"]
        assert w.shape == (system.ues_per_cell, system.antennas, system.antennas)
        rng = np.random.default_rng(3)
        shape = (system.ues_per_cell, 11, system.antennas)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = ls_estimate(d, 0.7, system.tau_p)
        got = d @ w.conj()
        assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(expected)

    def test_loaded_combined_covariance_counts_for_gevd_labels(self, monkeypatch):
        config = small_config(
            estimators=[
                EstimatorSpec("subt"),
                EstimatorSpec("gevd", rank=3),
                EstimatorSpec("gevd_impr", rank=3),
            ]
        )
        system = config.system
        _, clean = trained_state(config, system, (4, 0))
        assert set(clean.fallbacks.values()) == {0}
        # A singular combined covariance fails the GEVD's Cholesky screen, so
        # every UE's estimate is solved against the loaded matrix.  The
        # pilot covariances, (K, N, N), stay as they are.
        singular = np.diag(np.r_[np.ones(system.antennas - 1), 0.0]).astype(complex)
        real_estimate = covest.AllCovAccumulator.estimate

        def estimate(self):
            cov = real_estimate(self)
            return singular if cov.ndim == 2 else cov

        monkeypatch.setattr(covest.AllCovAccumulator, "estimate", estimate)
        _, window = trained_state(config, system, (4, 0))
        assert all(low.loaded for low in window.lowranks[3])
        ues = system.ues_per_cell
        assert window.fallbacks == {"subt": 0, "gevd_3": ues, "gevd_impr_3": ues}


# name: (config, overrides, runs, held-out blocks per run).  The sizes were
# fixed from a budget of about 1.5 s per case at one BLAS thread before any
# outcome was seen; they must not shrink to get a pass.
FIXED_ROW_CASES = {
    "desk": ("configs/desk_scale.yaml", (), 10, 800),
    "desk_jammer": (
        "configs/desk_scale.yaml", ("system.jammer_power=10", "system.jammer_angle_deg=20"), 10, 800
    ),
    "full_scale_point": ("configs/full_scale.yaml", (), 2, 400),
}


@pytest.mark.parametrize("case", FIXED_ROW_CASES)
def test_fixed_rows_match_monte_carlo(case):
    # ls_fixed and mmse_fixed are scored by their expected NMSE given each
    # run's covariances.  Blocks received under the fixed cyclic allocation
    # by the public functions, with channels and noise of their own, must
    # agree with it: each block's NMSE less its run's expected value has
    # mean zero, so the mean over every block of every run lies within 3
    # standard errors of zero.  The jammer makes the noise non-white.
    path, overrides, runs, blocks = FIXED_ROW_CASES[case]
    config = parse_config(ROOT / path, list(overrides))
    diffs = {label: [] for label in FIXED_KINDS}
    for run in range(runs):
        reference = fixed_allocation_reference(config, (config.master_seed, run), blocks)
        for label, (scores, exact) in reference.items():
            diffs[label].append(scores - exact)
    for label, parts in diffs.items():
        d = np.concatenate(parts)
        se = d.std(ddof=1) / np.sqrt(len(d))
        assert abs(d.mean()) <= 3 * se, (label, d.mean(), se)


@pytest.mark.parametrize(
    "kinds", [["ls_fixed"], ["mmse_fixed"], ["ls_fixed", "mmse_fixed"]], ids=["ls", "mmse", "both"]
)
def test_fixed_rows_alone_receive_no_block(monkeypatch, kinds):
    # ls_fixed and mmse_fixed score their exact NMSE, so a run of these
    # alone receives no training or held-out block, keeps no held-out
    # array and needs no buffers; its rows are those of a run with every
    # estimator, bit for bit.
    full = small_config()
    (every,) = run_single(full, [30], (5, 0))
    expected = [c for c in every if c.estimator in kinds]
    config = small_config(estimators=[EstimatorSpec(kind) for kind in kinds])
    made = []

    class Recorded(_Run):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def no_receive(*args, **kwargs):
        raise AssertionError("simulate_blocks called")

    monkeypatch.setattr(harness, "_Run", Recorded)
    monkeypatch.setattr(harness, "simulate_blocks", no_receive)
    (got,) = run_single(config, [30], (5, 0))
    assert got == expected
    (run,) = made
    assert not hasattr(run, "h_center")
    assert harness.simulated_blocks(config) == 0
    assert harness.thread_buffer_bytes(config) == 0


def test_stream_ids_are_distinct():
    # Training and evaluation draw from disjoint streams: every stream id is
    # used once, and no two (stream, batch) keys of a run give one stream.
    # Every key has four entries, so SeedSequence's zero padding of short
    # keys cannot equate two of them.
    ids = list(_STREAMS.values())
    assert len(set(ids)) == len(ids)
    first = [
        derive_rng(7, 0, stream, batch).integers(2**63) for stream in ids for batch in range(3)
    ]
    assert len(set(first)) == len(first)


def test_stream_layout_is_pinned():
    # Every row is keyed by these ids: renumbering one would silently move
    # its rows.  Id 7, retired, is taken by no stream.
    assert _STREAMS == {
        "geometry": 0,
        "est_alloc": 1,
        "est_channels": 2,
        "est_signals": 3,
        "eval_alloc": 4,
        "eval_channels": 5,
        "eval_signals_random": 6,
        "data": 8,
        "data_noise": 9,
    }
    assert 7 not in _STREAMS.values()


def test_every_draw_comes_from_its_batch_key(monkeypatch):
    # Every random value of a run is drawn from a fresh
    # derive_rng(master_seed, run, stream id, batch): pilot rows, channels,
    # pilot noise and data phase of training batch i, channels and pilot
    # noise of held-out batch i, and batch 0 for the geometry and the
    # held-out pilot rows.
    # Batches of 8 blocks: 5 training batches and 4 held-out ones.
    monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
    config = small_config(eval_blocks=25)
    system = dataclasses.replace(config.system, blocks=40)
    seed = (config.master_seed, 1)

    def key_state(stream, batch=0):
        return derive_rng(*seed, _STREAMS[stream], batch).bit_generator.state

    geometry, allocations, received = [], [], []
    real_build_geometry = harness.build_geometry
    real_allocate_pilots = harness.allocate_pilots
    real_simulate_blocks = harness.simulate_blocks

    def recording_geometry(*args):
        geometry.append(args[-1].bit_generator.state)
        return real_build_geometry(*args)

    def recording_allocation(blocks, cells, ues, tau_p, mode, rng=None):
        if mode == "random":
            allocations.append(rng.bit_generator.state)
        return real_allocate_pilots(blocks, cells, ues, tau_p, mode, rng)

    def recording_blocks(channels, rows, book, powers, noise, *rngs_and_tau_u, **kwargs):
        pilot_rng, tau_u, *data_rngs = rngs_and_tau_u
        states = [rng.bit_generator.state for rng in (pilot_rng, *data_rngs)]
        # A copy: the channels array is reused by the next batch.
        received.append((channels.copy(), states))
        return real_simulate_blocks(
            channels, rows, book, powers, noise, *rngs_and_tau_u, **kwargs
        )

    monkeypatch.setattr(harness, "build_geometry", recording_geometry)
    monkeypatch.setattr(harness, "allocate_pilots", recording_allocation)
    monkeypatch.setattr(harness, "simulate_blocks", recording_blocks)
    state, window = trained_state(config, system, seed)
    state.evaluate(window)

    def channels(stream, batch, size):
        rng = derive_rng(*seed, _STREAMS[stream], batch)
        return sample_channels(state.run.factors, rng, blocks=size).tobytes()

    assert geometry == [key_state("geometry")]
    assert allocations == [key_state("eval_alloc")] + [key_state("est_alloc", i) for i in range(5)]
    training, held_out = received[:5], received[5:]
    for i, (h, states) in enumerate(training):
        assert h.tobytes() == channels("est_channels", i, 8)
        assert states == [key_state(s, i) for s in ("est_signals", "data", "data_noise")]
    # One receive per held-out batch.
    assert len(held_out) == 4
    for (h, states), (i, size) in zip(held_out, enumerate([8, 8, 8, 1])):
        assert h.tobytes() == channels("eval_channels", i, size)
        assert states == [key_state("eval_signals_random", i)]
    # SeedSequence pads short keys with zeros, so batch 0 of a stream is the
    # 3-key stream (master_seed, run, id).
    for stream, stream_id in _STREAMS.items():
        assert key_state(stream) == derive_rng(*seed, stream_id).bit_generator.state


class TestRunSingle:
    def test_noiseless_single_ue_mmse_is_exact(self):
        config = small_config(
            system=SystemConfig(
                cells=1, ues_per_cell=1, antennas=8, tau_p=4, tau_u=6,
                blocks=10, noise_power=1e-12,
            ),
            estimators=[EstimatorSpec("mmse_random")],
            monte_carlo_runs=1,
            eval_blocks=20,
        )
        ((contribution,),) = run_single(config, [10], (0, 0))
        assert contribution.nmse < 1e-9

    def test_ls_worse_than_mmse_same_seed(self):
        config = small_config(
            estimators=[EstimatorSpec("mmse_random"), EstimatorSpec("mmse_fixed"),
                        EstimatorSpec("ls_fixed")],
            eval_blocks=100,
        )
        (contribs,) = run_single(config, [40], (1, 0))
        results = {c.estimator: c.nmse for c in contribs}
        # the fixed-allocation LMMSE beats LS in expectation under the same
        # covariances
        assert results["mmse_fixed"] < results["ls_fixed"]

    def test_bitwise_deterministic(self):
        config = small_config()
        (a,) = run_single(config, [30], (5, 3))
        (b,) = run_single(config, [30], (5, 3))
        assert [c.nmse for c in a] == [c.nmse for c in b]
        assert [c.fallbacks for c in a] == [c.fallbacks for c in b]

    def test_distinct_seeds_distinct_results(self):
        config = small_config()
        (a,) = run_single(config, [30], (5, 0))
        (b,) = run_single(config, [30], (5, 1))
        assert [c.nmse for c in a] != [c.nmse for c in b]

    def test_points_of_several_tau_p_match_per_value_calls(self, monkeypatch):
        # One run serves every tau_p: the batches it draws once and
        # receives under each tau_p give what a run of each value alone
        # gives, bit for bit.  Batches of 8 blocks: 5 training batches.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        config = small_config(sweep=SweepSpec(variable="tau_p", values=[2, 4]))
        values = [2, 4, 3, 2]
        together = run_single(config, values, (5, 0))
        assert together == [run_single(config, [value], (5, 0))[0] for value in values]

    def test_no_kept_array_grows_with_the_window(self, monkeypatch):
        # Training keeps sums, not samples, and draws its pilot rows per
        # batch: a run of T = 400 keeps the same array bytes as one of
        # T = 40.  Batches of 8 blocks.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        made = []

        def recorded(cls):
            class Recorded(cls):
                def __init__(self, *args):
                    super().__init__(*args)
                    made.append(self)

            return Recorded

        def kept_bytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                return sum(kept_bytes(item) for item in value)
            return 0

        monkeypatch.setattr(harness, "_Run", recorded(_Run))
        monkeypatch.setattr(harness, "_RunState", recorded(_RunState))
        kept = {}
        for blocks in (40, 400):
            made.clear()
            config = small_config(sweep=SweepSpec(variable="T", values=[blocks]))
            run_single(config, [blocks], (5, 0))
            run, state = made
            kept[blocks] = [
                kept_bytes(list(vars(run).values())),
                kept_bytes(list(vars(state).values())),
            ]
        assert kept[40] == kept[400]


class TestRunSweep:
    def test_single_point_matches_run_single(self):
        config = small_config(monte_carlo_runs=1)
        sweep_results = run_sweep(config)
        (single,) = run_single(config, [30], (config.master_seed, 0))
        assert len(sweep_results) == len(single)
        for agg, contrib in zip(sweep_results, single):
            assert agg.estimator == contrib.estimator
            assert agg.nmse == contrib.nmse
            assert agg.fallback_count == contrib.fallbacks

    def test_aggregate_is_mean_of_runs(self):
        config = small_config(monte_carlo_runs=3)
        per_run = [
            {c.estimator: c.nmse for c in run_single(config, [30], (config.master_seed, r))[0]}
            for r in range(3)
        ]
        for agg in run_sweep(config):
            mean = sum(run[agg.estimator] for run in per_run) / 3
            assert agg.nmse == pytest.approx(mean, rel=1e-12)
            assert agg.runs_aggregated == 3

    def test_worker_count_invariance(self):
        config = small_config(sweep=SweepSpec(variable="T", values=[20, 35]))
        serial = run_sweep(config, workers=1)
        threaded = run_sweep(config, workers=4)
        assert [dataclasses.astuple(r) for r in serial] == [
            dataclasses.astuple(r) for r in threaded
        ]

    def test_tau_p_sweep_changes_system(self):
        config = small_config(
            sweep=SweepSpec(variable="tau_p", values=[2, 4]),
            estimators=[EstimatorSpec("mmse_random"), EstimatorSpec("gevd", rank=3)],
        )
        results = run_sweep(config)
        values = {r.sweep_value for r in results}
        assert values == {2, 4}
        assert all(r.sweep_variable == "tau_p" for r in results)

    def test_nmse_db_consistency(self):
        config = small_config(monte_carlo_runs=1)
        for r in run_sweep(config):
            assert r.nmse_db == pytest.approx(10 * np.log10(r.nmse))

    def test_jammer_noise_model(self):
        # correlated noise from a localized jammer degrades LS but the
        # run still executes end to end
        base = small_config(estimators=[EstimatorSpec("ls_fixed")], monte_carlo_runs=1)
        jammed = small_config(estimators=[EstimatorSpec("ls_fixed")], monte_carlo_runs=1)
        jammed.system = dataclasses.replace(
            base.system, jammer_power=2.0, jammer_angle_deg=10.0
        )
        ((clean,),) = run_single(base, [30], (3, 0))
        ((noisy,),) = run_single(jammed, [30], (3, 0))
        assert noisy.nmse > clean.nmse

    def test_geometry_shared_across_sweep_points(self):
        # with run-keyed streams, an estimator that ignores the sweep
        # variable produces identical NMSE at every sweep point
        config = small_config(
            sweep=SweepSpec(variable="T", values=[20, 40]),
            estimators=[EstimatorSpec("mmse_random")],
        )
        results = run_sweep(config)
        assert results[0].nmse == results[1].nmse


def fingerprint(results):
    return [(r.estimator, r.sweep_value, r.nmse.hex(), r.fallback_count) for r in results]


def count_channel_vectors(monkeypatch) -> list[int]:
    """Record the channel vectors each sample_channels call of the harness draws."""
    vectors = []
    real_sample_channels = harness.sample_channels

    def counting(*args, **kwargs):
        h = real_sample_channels(*args, **kwargs)
        vectors.append(h.size // h.shape[-1])
        return h

    monkeypatch.setattr(harness, "sample_channels", counting)
    return vectors


def assert_sweep_raises(monkeypatch, name, failing, message):
    """At each worker count 1-3, with harness.<name> replaced by
    failing(the real one), a two-run tau_p sweep of two points fails
    inside its runs with RuntimeError(message): run_sweep must raise it
    within a minute."""
    # Batches of 8 blocks: each run trains on 5 batches.
    monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
    config = small_config(
        sweep=SweepSpec(variable="tau_p", values=[4, 2]),
        estimators=[EstimatorSpec("gevd", rank=3)],
        monte_carlo_runs=2,
    )
    real = getattr(harness, name)
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, name, failing(real))
        outcome = []

        def sweep():
            try:
                run_sweep(config, workers=workers)
            except RuntimeError as exc:
                outcome.append(str(exc))

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), f"run_sweep hung at {workers} workers after: {message}"
        assert outcome == [message]


class TestSharedRun:
    """One run is shared by every sweep point: one job per run, whose
    batches and per-tau_p finishing are tasks on the sweep's worker pool.
    No result bit may change."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "sweep, synthesized, data_blocks, drawn_blocks",
        [
            # Per run: training batches 0-4 once (40 blocks; T=20 and T=30
            # take a prefix of batches 2 and 3), the 25 held-out blocks once.
            # The data phase and the channels of those 40 blocks, and the
            # channels of the 25 held-out blocks, are drawn once.
            (
                SweepSpec(variable="T", values=[20, 8, 40, 16, 30]),
                2 * (40 + 25), 2 * 40, 2 * (40 + 25),
            ),
            # Per run: the 40 training and 25 held-out blocks are received
            # under tau_p=4 and under tau_p=2, but their channels, and the
            # data phase of the 40 training blocks, are drawn once.
            (
                SweepSpec(variable="tau_p", values=[4, 2]),
                2 * (40 + 25 + 40 + 25), 2 * 40, 2 * (40 + 25),
            ),
        ],
        ids=["T", "tau_p"],
    )
    def test_rows_match_fresh_runs_per_point(
        self, monkeypatch, workers, sweep, synthesized, data_blocks, drawn_blocks
    ):
        # Batches of 8 blocks: T=40 trains on 5 full batches, T=20 on two
        # and a prefix of the third (a run of T=20 alone draws a partial
        # batch there); the 25 held-out blocks are 3 full batches and a
        # partial one.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        config = small_config(sweep=sweep, monte_carlo_runs=2)
        expected = []
        for value in sweep.values:
            runs = [run_single(config, [value], (config.master_seed, r))[0] for r in range(2)]
            for position, spec in enumerate(config.estimators):
                mean = sum(contribs[position].nmse for contribs in runs) / 2
                fallbacks = sum(contribs[position].fallbacks for contribs in runs)
                expected.append((spec.label, value, mean.hex(), fallbacks))

        blocks = []
        data_samples = []
        real_simulate_blocks = harness.simulate_blocks

        def counting(channels, *args, **kwargs):
            blocks.append(len(channels))
            pilot_rx, data_rx = real_simulate_blocks(channels, *args, **kwargs)
            data_samples.append(data_rx.shape[0] * data_rx.shape[2])
            return pilot_rx, data_rx

        calls = []
        real_run_single = harness.run_single

        def recording(*args):
            calls.append(args[1])
            return real_run_single(*args)

        monkeypatch.setattr(harness, "simulate_blocks", counting)
        monkeypatch.setattr(harness, "run_single", recording)
        vectors = count_channel_vectors(monkeypatch)
        assert fingerprint(run_sweep(config, workers=workers)) == expected
        assert calls == [sweep.values] * 2  # one job per run
        assert sum(blocks) == synthesized == harness.simulated_blocks(config)
        assert sum(data_samples) == data_blocks * config.system.tau_u
        links = config.system.cells * config.system.ues_per_cell
        assert sum(vectors) == drawn_blocks * links

    def test_data_phase_error_reaches_every_point(self, monkeypatch):
        # The second data phase synthesized fails, and nothing hangs.
        def failing(real_simulate_blocks):
            data_phases = itertools.count()

            def simulate_blocks(
                channels, rows, book, powers, noise, pilot_rng, tau_u, *rngs, **kwargs
            ):
                if tau_u and next(data_phases) == 1:
                    raise RuntimeError("data phase failed")
                return real_simulate_blocks(
                    channels, rows, book, powers, noise, pilot_rng, tau_u, *rngs, **kwargs
                )

            return simulate_blocks

        assert_sweep_raises(monkeypatch, "simulate_blocks", failing, "data phase failed")

    def test_channel_draw_error_reaches_every_point(self, monkeypatch):
        # The second channel batch drawn fails, and nothing hangs.
        def failing(real_sample_channels):
            draws = itertools.count()

            def sample_channels(*args, **kwargs):
                if next(draws) == 1:
                    raise RuntimeError("channel draw failed")
                return real_sample_channels(*args, **kwargs)

            return sample_channels

        assert_sweep_raises(monkeypatch, "sample_channels", failing, "channel draw failed")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_runs_in_flight_bound_the_live_runs(self, monkeypatch, workers):
        # A run is alive only while it is in flight: no more runs than
        # workers are alive at once, and none after the sweep.
        runs, most_alive = [], []

        class Recorded(_Run):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(weakref.ref(self))
                most_alive.append(sum(ref() is not None for ref in runs))

        monkeypatch.setattr(harness, "_Run", Recorded)
        run_sweep(small_config(monte_carlo_runs=5), workers=workers)
        assert len(runs) == 5
        assert max(most_alive) <= workers
        assert [ref() for ref in runs] == [None] * 5

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_buffer_sets_alive(self, monkeypatch, workers):
        # Each batch task makes a set and drops it when it returns, and a
        # thread runs one task at a time: no more sets than workers are
        # alive at once, and none after the sweep.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        sets, most_alive = [], []

        class Recorded(buffers.BatchBuffers):
            def __init__(self, *args):
                super().__init__(*args)
                sets.append(weakref.ref(self))
                most_alive.append(sum(ref() is not None for ref in sets))

        monkeypatch.setattr(harness, "BatchBuffers", Recorded)
        run_sweep(small_config(monte_carlo_runs=5), workers=workers)
        assert len(sets) == 5 * (4 + 4)  # one per training and held-out batch
        assert max(most_alive) <= workers
        assert [ref() for ref in sets] == [None] * len(sets)

    def test_no_buffer_set_outlives_run_single(self, monkeypatch):
        sets = []

        class Recorded(buffers.BatchBuffers):
            def __init__(self, *args):
                super().__init__(*args)
                sets.append(weakref.ref(self))

        monkeypatch.setattr(harness, "BatchBuffers", Recorded)
        with ThreadPoolExecutor(max_workers=2) as pool:
            run_single(small_config(), [30], (1, 0), pool)
            assert sets and [ref() for ref in sets] == [None] * len(sets)


class TestBuffers:
    def test_batches_received_on_one_thread_do_not_alias(self, monkeypatch):
        # The second training batch and a held-out batch reuse the memory
        # of the first: what the first left behind must stay as it was.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        config = small_config(sweep=SweepSpec(variable="tau_p", values=[4, 2]))
        run = _Run(config, (7, 0))
        states = [
            _RunState(run, dataclasses.replace(config.system, tau_p=tau_p))
            for tau_p in (4, 2)
        ]
        windows = [5, 16]
        # The data phase's sums, and each state's pilot-phase and despread
        # sums, at each stop of the first batch.
        kept = run._train(states, windows, 0, slice(0, 8))
        assert list(kept) == [5, 8] and all(len(accs) == 5 for accs in kept.values())
        sums = [acc._sum.copy() for accs in kept.values() for acc in accs]
        run._train(states, windows, 1, slice(8, 16))
        run._held_out(states, 0, slice(0, 8))
        assert [acc._sum.tobytes() for accs in kept.values() for acc in accs] == [
            s.tobytes() for s in sums
        ]

    def test_full_scale_set_is_below_the_mmap_ceiling(self):
        # glibc raises its mmap threshold up to 32 MiB as freed blocks
        # show it: a set below that is reused from the heap sweep after
        # sweep instead of being mapped and faulted in anew.
        config = parse_config(ROOT / "configs/full_scale.yaml")
        assert harness.thread_buffer_bytes(config) < 32 << 20

    @pytest.mark.parametrize(
        "sweep",
        [SweepSpec(variable="T", values=[20, 8, 40]), SweepSpec(variable="tau_p", values=[4, 2, 9])],
        ids=["T", "tau_p"],
    )
    @pytest.mark.parametrize("antennas", [8, 3, 32], ids=["n8", "links_over_2n", "n32"])
    def test_slots_fit_the_largest_array(self, monkeypatch, sweep, antennas):
        # Every set of a run is made at the same slot_bytes: no request
        # outgrows its slot, and each slot's size is some request's, so
        # none is larger than needed.  At N = 32 the factors keep 16
        # columns, and in the T sweep the normals fill their slot.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        config = small_config(sweep=sweep)
        config = dataclasses.replace(
            config, system=dataclasses.replace(config.system, antennas=antennas)
        )
        made, largest = [], Counter()

        class Recorded(buffers.BatchBuffers):
            def __init__(self, sizes):
                super().__init__(sizes)
                made.append(list(sizes))

            def __call__(self, name, shape, dtype=complex):
                array = super().__call__(name, shape, dtype)
                slot = buffers.SLOTS[name]
                largest[slot] = max(largest[slot], array.nbytes)
                return array

        monkeypatch.setattr(harness, "BatchBuffers", Recorded)
        run_sweep(config, workers=1)
        sizes = made[0]
        assert made == [sizes] * len(made)
        assert [largest[slot] for slot in range(len(sizes))] == sizes


class TestChunks:
    # A batch task receives its blocks in chunks of run.chunk blocks, with
    # the channels scaled once per chunk; every chunking gives the bits of
    # the batch received by the plain functions in one piece.

    @staticmethod
    def run_and_states():
        """A run of two tau_p with jammer (matrix) noise at power 0.7."""
        system = dataclasses.replace(
            small_config().system, uplink_power=0.7, jammer_power=2.0, jammer_angle_deg=20.0
        )
        run = _Run(small_config(system=system, eval_blocks=30), (7, 0))
        assert np.ndim(run.noise_factor) == 2
        states = [_RunState(run, dataclasses.replace(system, tau_p=tau_p)) for tau_p in (4, 2)]
        return run, states

    @staticmethod
    def fingerprint(run, states, stops):
        """The sums at each stop (20 and 30 for the batch of blocks
        15-29), keyed by sum and by blocks since the batch start, and the
        held-out arrays of blocks 15-29."""
        sums = {
            (part, stop - 15): (acc._sum.tobytes(), acc._samples)
            for stop, accs in stops.items()
            for part, acc in enumerate(accs)
        }
        arrays = [run.h_center[:, 15:30].tobytes()]
        for state in states:
            arrays.append(state.held_out[:, 15:30].tobytes())
        return sums, arrays

    def received(self, chunk):
        """Training batch 1 (blocks 15-29, window 20 cut inside it) and
        held-out batch 1, received by the run in chunks of `chunk`."""
        run, states = self.run_and_states()
        run.chunk = chunk
        stops = run._train(states, [20, 40], 1, slice(15, 30))
        run._held_out(states, 1, slice(15, 30))
        return self.fingerprint(run, states, stops)

    def plain(self):
        """The same batches from sample_channels, simulate_blocks with the
        powers, despread_batch and AllCovAccumulator, in one piece: the
        data phase's sums, then each state's pilot-phase and despread
        sums."""
        run, states = self.run_and_states()
        blocks, tau_u = slice(15, 30), run.config.system.tau_u

        def receive(state, h, rows, noise_stream, *data_phase):
            pilot_rx, data_rx = simulate_blocks(
                h, rows, state.book, run.powers, run.noise_factor, noise_stream, *data_phase
            )
            return pilot_rx, data_rx, despread_batch(pilot_rx, state.book, rows[:, 0])

        def sums(samples, ues=None):
            accs = {stop: AllCovAccumulator(samples.shape[-2], ues) for stop in (20, 30)}
            for stop, acc in accs.items():
                acc.add(samples[: stop - 15])
            return accs

        h = sample_channels(run.factors, run._rng("est_channels", 1), 15)
        data_phase = (tau_u, run._rng("data", 1), run._rng("data_noise", 1))
        parts = []
        for state in states:
            rows = allocate_pilots(15, 7, 2, state.system.tau_p, "random", run._rng("est_alloc", 1))
            pilot_rx, data_rx, d = receive(state, h, rows, run._rng("est_signals", 1), *data_phase)
            if not parts:
                parts.append(sums(data_rx))
            parts += [sums(pilot_rx), sums(d[..., None], d.shape[1])]
            data_phase = (0,)
        h = sample_channels(run.factors, run._rng("eval_channels", 1), 15)
        run.h_center[:, blocks] = h[:, 0].transpose(1, 0, 2)
        for state in states:
            noise = run._rng("eval_signals_random", 1)
            d = receive(state, h, state.eval_rows[blocks], noise, 0)[2]
            state.held_out[:, blocks] = d.transpose(1, 0, 2)
        stops = {stop: [part[stop] for part in parts] for stop in (20, 30)}
        return self.fingerprint(run, states, stops)

    @pytest.mark.parametrize(
        "chunk", [15, 7, 4, 1], ids=["one_chunk", "7_7_1", "window_in_chunk", "one_block"]
    )
    def test_chunked_batches_same_bits(self, monkeypatch, chunk):
        # Chunks of 7 do not divide the 15-block batch and end in a 1-block
        # chunk; the window cut (5 blocks in) would fall inside a chunk of 7
        # and of 4, so it ends one there.  Gram groups of 4 blocks complete
        # inside the batch, and the chunks and the cut split them.
        monkeypatch.setattr(covest, "GRAM_GROUP", 4)
        sums, arrays = self.received(chunk)
        expected_sums, expected_arrays = self.plain()
        assert sorted(sums) == [(part, cut) for part in range(5) for cut in (5, 15)]
        assert sums == expected_sums
        assert arrays == expected_arrays

    @pytest.mark.parametrize("chunk", [15, 7, 4, 1])
    def test_chunks_tile_the_batch_and_end_at_every_cut(self, chunk):
        # Cuts 3, 30 and 40 are not inside the batch 15-29; 20 and 22 are.
        # After each cut, chunks restart at full size.
        run = _Run(small_config(), (7, 0))
        run.chunk = chunk
        chunks = run._chunks(slice(15, 30), [3, 20, 22, 30, 40])
        assert [c.start for c in chunks] == [15] + [c.stop for c in chunks[:-1]]
        assert chunks[-1].stop == 30
        assert {20, 22} <= {c.stop for c in chunks}
        assert all(0 < c.stop - c.start <= chunk for c in chunks)
        assert len(chunks) == sum(-(-size // chunk) for size in (5, 2, 8))


class TestFanOut:
    def test_unstarted_tasks_run_in_the_caller(self):
        # The pool's one worker is busy, so the caller runs every task, in
        # order, and the results come back in task order.
        release = threading.Event()
        ran = []

        def task(i):
            ran.append((i, threading.get_ident()))
            return i * i

        with ThreadPoolExecutor(max_workers=1) as pool:
            busy = pool.submit(release.wait, 30)
            try:
                results = _fan_out(pool, [lambda i=i: task(i) for i in range(4)])
            finally:
                release.set()
            assert busy.result()
        assert results == [0, 1, 4, 9]
        assert ran == [(i, threading.get_ident()) for i in range(4)]

    def test_worker_of_a_one_worker_pool_can_fan_out(self):
        # The only worker fans out to its own pool: it takes every task
        # back and runs it, so nothing waits for a worker that is waiting.
        ran = []

        def task(i):
            ran.append(threading.get_ident())
            return i

        pool = ThreadPoolExecutor(max_workers=1)
        try:
            outer = pool.submit(_fan_out, pool, [lambda i=i: task(i) for i in range(5)])
            assert outer.result(timeout=30) == list(range(5))
        finally:
            # Cancelling the queued tasks frees a worker that waits on them.
            pool.shutdown(cancel_futures=True)
        assert len(set(ran)) == 1 and ran[0] != threading.get_ident()

    def test_each_task_runs_once_under_contention(self):
        # More workers than cores and a short switch interval: three
        # workers each fan out tasks to the pool they run on, as run jobs
        # do.  Every task must run exactly once, in its fan-out's caller
        # or in another worker, and its result must land at its index.
        fan_outs, tasks_each, rounds = 3, 200, 5
        lock = threading.Lock()
        runs = Counter()

        def task(key):
            with lock:
                runs[key] += 1
            return key

        def fan_out(pool, outer):
            tasks = [partial(task, (outer, i)) for i in range(tasks_each)]
            return _fan_out(pool, tasks)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for _ in range(rounds):
                    jobs = [pool.submit(fan_out, pool, outer) for outer in range(fan_outs)]
                    results = [job.result(timeout=60) for job in jobs]
                    assert results == [
                        [(outer, i) for i in range(tasks_each)] for outer in range(fan_outs)
                    ]
        finally:
            sys.setswitchinterval(interval)
        assert set(runs.values()) == {rounds}
        assert len(runs) == fan_outs * tasks_each
