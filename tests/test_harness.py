"""Tests for the Monte-Carlo experiment driver."""

import dataclasses
import itertools
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from mimoce import covest, harness
from mimoce.config import EstimatorSpec, ExperimentConfig, SweepSpec, SystemConfig
from mimoce.estimators import approx_mmse_filter, improved_mmse_filter, ls_estimate
from mimoce.channel import sample_channels
from mimoce.harness import (
    _STREAMS,
    NmseResult,
    ZeroTraceCovariance,
    _RunState,
    nmse,
    run_single,
    run_sweep,
)
from mimoce.linalg import NotPositiveDefinite
from mimoce.seeding import derive_rng


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
    """A run state whose estimates come from system.blocks training blocks."""
    state = _RunState(config, system, run_seed)
    assert list(state.train([system.blocks])) == [system.blocks]
    return state


def improved_reference(state, rank, rows, d_random):
    """Per-(block, UE) loop: one improved filter built and applied per vector."""
    ues, b_blocks, _ = d_random.shape
    h_hat = np.empty_like(d_random)
    fallbacks = 0
    for b in range(b_blocks):
        center_row = rows[b, 0]
        for k in range(ues):
            try:
                filt = improved_mmse_filter(
                    state.pilot_covs[k], state.lowranks[rank], center_row, k,
                    state.system.tau_p, state.power,
                )
                w, degraded = filt.w, filt.clamped
            except NotPositiveDefinite:
                w = approx_mmse_filter(state.lowranks[rank][k], state.power)
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
        state = trained_state(config, system, (3, 0))

        builds = []
        real_filter = harness.improved_mmse_filter

        def counting(pilot_cov, lowranks, pilot_row, ue, *args):
            row = np.asarray(pilot_row)
            builds.append((ue, tuple(row == row[ue])))
            return real_filter(pilot_cov, lowranks, pilot_row, ue, *args)

        applied = []
        real_estimates = _RunState._improved_estimates

        def recording(self, rank, label, rows, d_random):
            h_hat = real_estimates(self, rank, label, rows, d_random)
            applied.append((rows, d_random, h_hat))
            return h_hat

        monkeypatch.setattr(harness, "improved_mmse_filter", counting)
        monkeypatch.setattr(_RunState, "_improved_estimates", recording)
        vectors = count_channel_vectors(monkeypatch)
        state.evaluate()
        links = system.cells * system.ues_per_cell
        assert vectors == [16 * links, 14 * links]

        # One call over every held-out block, one build per (UE, pattern).
        ((rows, d_random, got),) = applied
        assert d_random.shape[1] == config.eval_blocks
        center = rows[:, 0]
        patterns = {
            (k, tuple(row == row[k])) for row in center for k in range(system.ues_per_cell)
        }
        assert sorted(builds) == sorted(patterns)

        expected, expected_fallbacks = improved_reference(state, 3, rows, d_random)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert 0 < expected_fallbacks < d_random.shape[0] * d_random.shape[1]
        assert state.fallbacks[spec.label] == expected_fallbacks


class TestStaticFilters:
    def test_ls_fixed_filter_matches_ls_estimate(self):
        config = small_config(estimators=[EstimatorSpec("ls_fixed")])
        system = dataclasses.replace(config.system, uplink_power=0.7)
        state = _RunState(config, system, (4, 0))
        w = state.static_filters["ls_fixed"]
        assert w.shape == (system.ues_per_cell, system.antennas, system.antennas)
        rng = np.random.default_rng(3)
        shape = (system.ues_per_cell, 11, system.antennas)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = ls_estimate(d, state.power, system.tau_p)
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
        clean = trained_state(config, system, (4, 0))
        assert set(clean.fallbacks.values()) == {0}
        # A singular combined covariance fails the GEVD's Cholesky screen, so
        # every UE's estimate is solved against the loaded matrix.
        singular = np.diag(np.r_[np.ones(system.antennas - 1), 0.0]).astype(complex)
        monkeypatch.setattr(covest.AllCovAccumulator, "estimate", lambda self: singular)
        state = trained_state(config, system, (4, 0))
        assert all(low.loaded for low in state.lowranks[3])
        ues = system.ues_per_cell
        assert state.fallbacks == {"subt": 0, "gevd_3": ues, "gevd_impr_3": ues}


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


def test_every_draw_comes_from_its_batch_key(monkeypatch):
    # Every random value of a run is drawn from a fresh
    # derive_rng(master_seed, run, stream id, batch): channels, pilot noise
    # and data phase of training batch i, channels and pilot noise of
    # held-out batch i, and batch 0 for the geometry and the allocations.
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

    def recording_blocks(channels, rows, book, powers, noise, *rngs_and_tau_u):
        pilot_rng, tau_u, *data_rngs = rngs_and_tau_u
        states = [rng.bit_generator.state for rng in (pilot_rng, *data_rngs)]
        received.append((channels, states))
        return real_simulate_blocks(channels, rows, book, powers, noise, *rngs_and_tau_u)

    monkeypatch.setattr(harness, "build_geometry", recording_geometry)
    monkeypatch.setattr(harness, "allocate_pilots", recording_allocation)
    monkeypatch.setattr(harness, "simulate_blocks", recording_blocks)
    state = trained_state(config, system, seed)
    state.evaluate()

    def channels(stream, batch, size):
        rng = derive_rng(*seed, _STREAMS[stream], batch)
        return sample_channels(state.factors, rng, blocks=size).tobytes()

    assert geometry == [key_state("geometry")]
    assert allocations == [key_state("est_alloc"), key_state("eval_alloc")]
    training, held_out = received[:5], received[5:]
    for i, (h, states) in enumerate(training):
        assert h.tobytes() == channels("est_channels", i, 8)
        assert states == [key_state(s, i) for s in ("est_signals", "data", "data_noise")]
    # Per held-out batch, one receive per allocation in use.
    batches = itertools.product(zip(range(4), [8, 8, 8, 1]), ["fixed_cyclic", "random"])
    assert len(held_out) == 8
    for (h, states), ((i, size), mode) in zip(held_out, batches):
        assert h.tobytes() == channels("eval_channels", i, size)
        assert states == [key_state(f"eval_signals_{mode}", i)]
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
        # the fixed-allocation LMMSE beats LS on the identical despread data
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

    def test_values_of_two_tau_p_rejected(self):
        # A job walks the training windows of one tau_p.
        config = small_config(sweep=SweepSpec(variable="tau_p", values=[2, 4]))
        with pytest.raises(ValueError, match="one tau_p"):
            run_single(config, [2, 4], (5, 0))


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


def assert_error_reaches_both_points(monkeypatch, message):
    """Run a 2-worker tau_p sweep of two points that fails inside the run
    with RuntimeError(message): both points must raise it, and so must
    run_sweep, within a minute."""
    # Batches of 8 blocks: both points train on 5 batches at once.
    monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
    config = small_config(
        sweep=SweepSpec(variable="tau_p", values=[4, 2]),
        estimators=[EstimatorSpec("gevd", rank=3)],
        monte_carlo_runs=1,
    )
    raised = []
    real_run_single = harness.run_single
    # Both points start before anything fails: a job that has not started
    # when another fails is cancelled by the pool.
    started = threading.Barrier(2)

    def recording(config, values, *args):
        (value,) = values  # one job per tau_p
        started.wait(timeout=30)
        try:
            return real_run_single(config, values, *args)
        except RuntimeError as exc:
            raised.append((value, str(exc)))
            raise

    monkeypatch.setattr(harness, "run_single", recording)
    outcome = []

    def sweep():
        try:
            run_sweep(config, workers=2)
        except RuntimeError as exc:
            outcome.append(str(exc))

    thread = threading.Thread(target=sweep, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), f"run_sweep hung after: {message}"
    assert outcome == [message]
    assert sorted(raised) == [(2, message), (4, message)]


class TestSharedRun:
    """One job per (run, tau_p) walks its training windows once, and the
    jobs of one run share set-up, channel draws and data phases; no result
    bit may change."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "sweep, jobs, synthesized, data_blocks, drawn_blocks",
        [
            # One job per run.  Per run: training batches 0-4 once (40
            # blocks; T=20 takes a prefix of batch 2), held-out blocks once
            # (25 per allocation).  The data phase and the channels of those
            # 40 blocks, and the channels of the 25 held-out blocks, are
            # drawn once.
            (
                SweepSpec(variable="T", values=[20, 8, 40, 16, 40]),
                2, 2 * (40 + 50), 2 * 40, 2 * (40 + 25),
            ),
            # One job per run and tau_p.  Per run: tau_p=4 trains and
            # evaluates once, tau_p=2 once; the data phase and the channels
            # of the 40 training blocks, and the channels of the 25 held-out
            # blocks, are drawn once.
            (
                SweepSpec(variable="tau_p", values=[4, 2, 4]),
                4, 2 * (40 + 50 + 40 + 50), 2 * 40, 2 * (40 + 25),
            ),
        ],
        ids=["T", "tau_p"],
    )
    def test_rows_match_fresh_runs_per_point(
        self, monkeypatch, workers, sweep, jobs, synthesized, data_blocks, drawn_blocks
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

        def counting(channels, *args):
            blocks.append(len(channels))
            pilot_rx, data_rx = real_simulate_blocks(channels, *args)
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
        assert len(calls) == jobs
        assert sum(blocks) == synthesized == harness.simulated_blocks(config)
        assert sum(data_samples) == data_blocks * config.system.tau_u
        links = config.system.cells * config.system.ues_per_cell
        assert sum(vectors) == drawn_blocks * links

    def test_stream_continues_after_a_shared_batch(self, monkeypatch):
        # A job that takes shared channel batches and then draws on must
        # draw the batches that an unshared walk draws.  Two jobs of one
        # run, tau_p 2 (A) and 4 (B), walk the same 5 batches of 8 blocks:
        # A draws batches 0 and 1, and B takes them before it draws 2-4
        # itself.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        config = small_config()
        seed = (config.master_seed, 0)

        def state(tau_p, shared=None):
            system = dataclasses.replace(config.system, tau_p=tau_p, blocks=40)
            return _RunState(config, system, seed, shared)

        unshared = [h for _, _, h in state(4)._batches(40, "est_channels")]
        shared = harness._SharedRun(2)
        walk_a = state(2, shared)._batches(40, "est_channels")
        walk_b = state(4, shared)._batches(40, "est_channels")
        vectors = count_channel_vectors(monkeypatch)
        next(walk_a), next(walk_a)
        taken = [h for _, _, h in walk_b]
        assert len(taken) == len(unshared) == 5
        for h, expected in zip(taken, unshared):
            assert h.tobytes() == expected.tobytes()
        links = config.system.cells * config.system.ues_per_cell
        assert vectors == [8 * links] * 5
        assert len(list(walk_a)) == 3
        assert shared._store == {}

    def test_each_key_has_one_owner_under_contention(self):
        # More threads than cores claim the same keys; every key must get
        # exactly one owner, every reader must see that owner's value, and
        # the last claim of each key must drop it.  Six jobs of one run
        # claim every one-block training batch, one job a thread.
        threads_n, keys = 6, 2000
        shared = harness._SharedRun(threads_n)
        owned, seen = Counter(), [[] for _ in range(threads_n)]
        lock = threading.Lock()
        start = threading.Barrier(threads_n)

        def worker(t):
            start.wait(timeout=30)
            for key in range(keys):
                future, owner = shared.claim(("data", key, 1))
                if owner:
                    with lock:
                        owned[key] += 1
                    future.set_result((key, t))
                seen[t].append(future.result(timeout=30)[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert owned == Counter(range(keys))
        assert seen == [list(range(keys))] * threads_n
        assert shared._store == {}

    def test_data_phase_error_reaches_every_point(self, monkeypatch):
        # The second data phase synthesized fails.  Its owner raises, the
        # other point raises when it waits for that batch, and nothing hangs.
        data_phases = itertools.count()
        real_simulate_blocks = harness.simulate_blocks

        def failing(
            channels, rows, book, powers, noise, pilot_rng, tau_u, data_rng=None,
            data_noise_rng=None,
        ):
            if tau_u and next(data_phases) == 1:
                raise RuntimeError("data phase failed")
            return real_simulate_blocks(
                channels, rows, book, powers, noise, pilot_rng, tau_u, data_rng,
                data_noise_rng,
            )

        monkeypatch.setattr(harness, "simulate_blocks", failing)
        assert_error_reaches_both_points(monkeypatch, "data phase failed")

    def test_channel_draw_error_reaches_every_point(self, monkeypatch):
        # Every channel batch of a two-point tau_p sweep is shared, and the
        # second one drawn fails.  Its owner raises, the other point raises
        # when it takes that batch, and nothing hangs.
        draws = itertools.count()
        real_sample_channels = harness.sample_channels

        def failing(*args, **kwargs):
            if next(draws) == 1:
                raise RuntimeError("channel draw failed")
            return real_sample_channels(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_channels", failing)
        assert_error_reaches_both_points(monkeypatch, "channel draw failed")

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "sweep, jobs, stored_channels",
        [
            (SweepSpec(variable="T", values=[20, 8, 40, 16, 40]), 1, set()),
            # The training window and the held-out blocks, in batches of 8.
            (
                SweepSpec(variable="tau_p", values=[4, 2, 4]),
                2,
                {("est_channels", first, 8) for first in range(0, 40, 8)}
                | {("eval_channels", first, 8) for first in range(0, 24, 8)}
                | {("eval_channels", 24, 1)},
            ),
        ],
        ids=["T", "tau_p"],
    )
    def test_items_dropped_at_last_use(
        self, monkeypatch, workers, sweep, jobs, stored_channels
    ):
        # Every item is computed once per run and dropped by its last
        # claim.  Every job of a run walks the same batches, so each key is
        # claimed once per job, and a run whose jobs are done holds nothing.
        # Only a tau_p sweep keeps channel batches: keeping them in a T
        # sweep, where no second job takes them, costs memory only.
        monkeypatch.setattr(harness, "BATCH_BLOCKS", 8)
        created = []

        class Recorded(harness._SharedRun):
            def __init__(self, *args):
                super().__init__(*args)
                self.claims = Counter()
                self.owners = Counter()
                self.stored = set()
                created.append(self)

            def claim(self, key):
                future, owner = super().claim(key)
                with self._lock:
                    self.claims[key] += 1
                    self.owners[key] += owner
                    self.stored.update(self._store)
                return future, owner

        monkeypatch.setattr(harness, "_SharedRun", Recorded)
        config = small_config(sweep=sweep, monte_carlo_runs=2)
        run_sweep(config, workers=workers)
        assert len(created) == 2
        for shared in created:
            assert shared.jobs == jobs
            assert set(shared.claims.values()) == {jobs}
            assert set(shared.owners.values()) == {1}
            assert shared._store == {}
            channels = {key for key in shared.stored if key[0].endswith("_channels")}
            assert channels == stored_channels

        # A single point stores nothing.
        created.clear()
        run_single(config, sweep.values[:1], (config.master_seed, 0))
        (single,) = created
        assert set(single.claims.values()) == {1}
        assert set(single.owners.values()) == {1}
        assert single.stored == set()
