"""Tests for the covariance estimators: sample statistics, subtraction, GEVD."""

import dataclasses

import numpy as np
import pytest

from mimoce import covest
from mimoce.airlink import (
    allocate_pilots,
    despread_batch,
    make_noise_covariance,
    make_pilot_book,
    simulate_blocks,
)
from mimoce.buffers import BatchBuffers, fresh
from mimoce.channel import covariance_factors, sample_channels
from mimoce.covest import (
    AllCovAccumulator,
    DegeneratePilotCount,
    estimate_pilot_cov,
    gevd_lowrank_estimator,
    subtraction_estimator,
)
from mimoce.linalg import FALLBACK_LOADING, hermitize, load_diagonal, psd_factor
from mimoce.seeding import ensure_rng
from support import make_synthetic, random_psd


def rel_err(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def all_cov_of(signals):
    """Combined covariance of signals (T, N, S) through the accumulator."""
    acc = AllCovAccumulator(signals.shape[-2])
    acc.add(signals)
    return acc.estimate()


class TestSampleCovariances:
    def test_pilot_cov_zero_input(self):
        est = estimate_pilot_cov(np.zeros((4, 3), dtype=complex), tau_p=5)
        assert est.shape == (3, 3)
        assert np.all(est == 0)

    def test_pilot_cov_single_outer_product(self):
        tau_p = 7
        y = np.zeros((1, 4), dtype=complex)
        y[0, 0] = np.sqrt(tau_p)
        est = estimate_pilot_cov(y, tau_p=tau_p)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(est, expected)

    def test_pilot_cov_loading(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
        bare = estimate_pilot_cov(y, tau_p=4)
        loaded = estimate_pilot_cov(y, tau_p=4, loading_factor=0.1)
        mu = np.trace(bare).real / 6
        assert np.allclose(loaded, bare + 0.1 * mu * np.eye(6))

    def test_pilot_cov_stack_matches_single_calls(self):
        # the harness estimates every UE's pilot covariance in one call
        rng = np.random.default_rng(15)
        y = rng.standard_normal((3, 40, 6)) + 1j * rng.standard_normal((3, 40, 6))
        stacked = estimate_pilot_cov(y, tau_p=4, loading_factor=0.05)
        assert stacked.shape == (3, 6, 6)
        for k in range(3):
            single = estimate_pilot_cov(y[k], tau_p=4, loading_factor=0.05)
            assert np.array_equal(stacked[k], single)

    def test_all_cov_zero_input(self):
        est = all_cov_of(np.zeros((3, 4, 6), dtype=complex))
        assert est.shape == (4, 4)
        assert np.all(est == 0)

    def test_all_cov_noise_only(self):
        rng = ensure_rng(1)
        n, blocks, samples = 5, 10_000, 10
        noise = np.einsum(
            "nm,bms->bns",
            np.eye(n),
            (rng.standard_normal((blocks, n, samples)) + 1j * rng.standard_normal((blocks, n, samples)))
            * np.sqrt(0.5),
        )
        est = all_cov_of(noise)
        assert rel_err(est, np.eye(n)) <= 0.05

    def test_merged_accumulators_match_one(self):
        rng = ensure_rng(3)
        y = rng.standard_normal((6, 4, 5)) + 1j * rng.standard_normal((6, 4, 5))
        first, second = AllCovAccumulator(4), AllCovAccumulator(4)
        first.add(y[:2])
        second.add(y[2:])
        first.merge(second)
        assert np.allclose(first.estimate(), all_cov_of(y), rtol=1e-14, atol=0)
        empty = AllCovAccumulator(4)
        empty.merge(second)
        assert np.array_equal(empty.estimate(), all_cov_of(y[2:]))

    def test_accumulator_matches_direct(self):
        rng = ensure_rng(2)
        y = rng.standard_normal((20, 4, 7)) + 1j * rng.standard_normal((20, 4, 7))
        direct = all_cov_of(y)
        acc = AllCovAccumulator(4)
        acc.add(y[:12])
        acc.add(y[12:])
        streamed = acc.estimate()
        assert np.allclose(direct, streamed)


class TestBlockOrderSums:
    # add sums the blocks' Grams one by one in block order, so how a run of
    # blocks is split among calls, and how add stacks them, changes no bit.

    @staticmethod
    def batch(blocks=7, n=4, s=3):
        rng = ensure_rng(8)
        return rng.standard_normal((blocks, n, s)) + 1j * rng.standard_normal((blocks, n, s))

    @pytest.mark.parametrize("stack", [None, 1, 2, 3], ids=["whole", "one", "two", "three"])
    def test_split_adds_same_bits(self, monkeypatch, stack):
        y = self.batch()
        if stack is not None:
            # Grams formed `stack` blocks at a time.
            monkeypatch.setattr(covest, "CHUNK_BYTES", stack * 4 * 4 * 16)
        # The blocks' Grams added one by one, in order.
        expected = np.zeros((4, 4), dtype=complex)
        for x in y:
            expected += x @ x.conj().T
        whole = AllCovAccumulator(4)
        whole.add(y)
        assert whole._sum.tobytes() == expected.tobytes()
        reused = BatchBuffers()
        for cut in range(len(y) + 1):
            for buffers in (fresh, reused):
                acc = AllCovAccumulator(4)
                acc.add(y[:cut], buffers=buffers)
                acc.add(y[cut:], buffers=buffers)
                assert acc._sum.tobytes() == expected.tobytes()
                assert acc._samples == whole._samples

    def test_copy_is_independent(self):
        y = self.batch()
        acc = AllCovAccumulator(4)
        acc.add(y[:3])
        kept = acc.copy()
        acc.add(y[3:])
        alone = AllCovAccumulator(4)
        alone.add(y[:3])
        assert kept._sum.tobytes() == alone._sum.tobytes()
        assert kept._samples == alone._samples


class TestSubtraction:
    def test_equal_inputs_zero(self):
        m = random_psd(np.random.default_rng(3), 5)
        out = subtraction_estimator(m, m, tau_p=4, power=1.0)
        assert np.allclose(out, 0.0)

    def test_exact_recovery(self):
        net = make_synthetic(np.random.default_rng(4))
        out = subtraction_estimator(
            net.r_pilot, net.r_all, net.tau_p, net.power_desired
        )
        assert rel_err(out, net.r_desired) <= 1e-12

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(16)
        pilots = np.stack([random_psd(rng, 5) for _ in range(3)])
        all_cov = random_psd(rng, 5)
        stacked = subtraction_estimator(pilots, all_cov, tau_p=4, power=1.5)
        for k in range(3):
            single = subtraction_estimator(pilots[k], all_cov, tau_p=4, power=1.5)
            assert np.array_equal(stacked[k], single)

    def test_degenerate_tau_p(self):
        m = np.eye(3, dtype=complex)
        with pytest.raises(DegeneratePilotCount):
            subtraction_estimator(m, m, tau_p=1, power=1.0)

    def test_sample_inputs_often_indefinite(self):
        # the motivating flaw: with few blocks the subtraction estimate
        # has negative eigenvalues in most trials
        n, tau_p, blocks = 16, 4, 50
        book = make_pilot_book(tau_p)
        r = random_psd(np.random.default_rng(5), n, rank=3)
        factors = covariance_factors(r[None, None])
        r_nn = make_noise_covariance(n, 0.5)
        noise_factor = psd_factor(r_nn)
        indefinite = 0
        for trial in range(20):
            rng = ensure_rng(100 + trial)
            h = sample_channels(factors, rng, blocks=blocks)
            alloc = allocate_pilots(blocks, 1, 1, tau_p, "random", rng)
            pilot_rx, data_rx = simulate_blocks(
                h, alloc, book, np.ones((1, 1)), noise_factor, rng, 6, rng, rng
            )
            d = despread_batch(pilot_rx, book, alloc[:, 0, 0])
            pilot_cov = estimate_pilot_cov(d, tau_p)
            all_cov = all_cov_of(np.concatenate([pilot_rx, data_rx], axis=2))
            estimate = subtraction_estimator(pilot_cov, all_cov, tau_p, 1.0)
            if np.linalg.eigvalsh(estimate)[0] < 0:
                indefinite += 1
        assert indefinite >= 1


class TestGevdLowRank:
    def test_identity_pencil_keeps_nothing(self):
        eye = np.eye(6, dtype=complex)
        out = gevd_lowrank_estimator(eye, eye, tau_p=4, power=1.0, rank=3)
        assert out.rank_effective == 0
        assert np.all(out.scaled_matrix == 0)

    def test_exact_recovery_rank_matches(self):
        net = make_synthetic(np.random.default_rng(6), desired_rank=3)
        out = gevd_lowrank_estimator(
            net.r_pilot, net.r_all, net.tau_p, net.power_desired, rank=3
        )
        assert out.rank_effective == 3
        assert rel_err(out.scaled_matrix, net.power_desired * net.r_desired) <= 1e-9
        assert np.all(out.sigma > 1.0)
        assert np.allclose(out.lam, (out.sigma - 1) / (net.tau_p - 1))

    def test_exact_recovery_generous_rank(self):
        net = make_synthetic(np.random.default_rng(7), desired_rank=3)
        out = gevd_lowrank_estimator(
            net.r_pilot, net.r_all, net.tau_p, net.power_desired, rank=10
        )
        assert out.rank_effective == 3

    def test_agrees_with_subtraction_on_exact_inputs(self):
        net = make_synthetic(np.random.default_rng(8), desired_rank=4)
        subt = subtraction_estimator(net.r_pilot, net.r_all, net.tau_p, net.power_desired)
        low = gevd_lowrank_estimator(
            net.r_pilot, net.r_all, net.tau_p, net.power_desired, rank=8
        )
        assert rel_err(low.scaled_matrix / net.power_desired, subt) <= 1e-9

    def test_reconstruction_identity(self):
        net = make_synthetic(np.random.default_rng(9), desired_rank=5)
        out = gevd_lowrank_estimator(net.r_pilot, net.r_all, net.tau_p, 1.0, rank=5)
        rebuilt = (out.q * out.lam) @ out.q.conj().T
        assert np.allclose(out.scaled_matrix, rebuilt)
        # x and q are dual bases
        assert np.allclose(out.x.conj().T @ out.q, np.eye(out.rank_effective), atol=1e-9)

    def test_output_always_psd(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            a = random_psd(rng, 10) + 0.5 * np.eye(10)
            b = random_psd(rng, 10) + 0.5 * np.eye(10)
            out = gevd_lowrank_estimator(a, b, tau_p=5, power=1.0, rank=6)
            w = np.linalg.eigvalsh(hermitize(out.scaled_matrix))
            assert w[0] >= -1e-10 * max(w[-1], 1.0)

    def test_equivariance(self):
        rng = np.random.default_rng(11)
        net = make_synthetic(rng, desired_rank=3)
        base = gevd_lowrank_estimator(net.r_pilot, net.r_all, net.tau_p, 1.0, rank=3)
        t = rng.standard_normal((net.n, net.n)) + 1j * rng.standard_normal((net.n, net.n))
        t += 3 * np.eye(net.n)
        mapped = gevd_lowrank_estimator(
            hermitize(t @ net.r_pilot @ t.conj().T),
            hermitize(t @ net.r_all @ t.conj().T),
            net.tau_p,
            1.0,
            rank=3,
        )
        expected = t @ base.scaled_matrix @ t.conj().T
        assert rel_err(mapped.scaled_matrix, expected) <= 1e-8
        assert np.max(np.abs(mapped.sigma - base.sigma) / base.sigma) <= 1e-8

    def test_loading_fallback_on_singular_pencil(self):
        # rank-deficient right-hand side triggers the one-shot loading
        rng = np.random.default_rng(12)
        b = random_psd(rng, 8, rank=5)
        a = b + random_psd(rng, 8, rank=2)
        out = gevd_lowrank_estimator(a, b, tau_p=4, power=1.0, rank=4)
        assert np.all(np.isfinite(out.scaled_matrix))

    def test_loading_fallback_is_reported(self):
        rng = np.random.default_rng(12)
        b = random_psd(rng, 8, rank=5)  # singular combined covariance
        a = b + random_psd(rng, 8, rank=2)
        out = gevd_lowrank_estimator(a, b, tau_p=4, power=1.0, rank=4)
        assert out.loaded
        loaded_b = load_diagonal(b, FALLBACK_LOADING)
        direct = gevd_lowrank_estimator(a, loaded_b, tau_p=4, power=1.0, rank=4)
        assert not direct.loaded
        assert np.array_equal(out.scaled_matrix, direct.scaled_matrix)

    @pytest.mark.parametrize("singular", [False, True], ids=["plain", "loaded"])
    def test_truncated_matches_a_fresh_estimate(self, singular):
        rng = np.random.default_rng(13)
        if singular:
            b = random_psd(rng, 8, rank=5)  # loaded, two modes above one
            a = b + random_psd(rng, 8, rank=2)
            tau_p, power, top_rank = 4, 1.0, 6
        else:
            net = make_synthetic(rng, desired_rank=4)  # four modes above one
            a, b, tau_p, power, top_rank = net.r_pilot, net.r_all, net.tau_p, 0.8, 7
        top = gevd_lowrank_estimator(a, b, tau_p, power, rank=top_rank)
        assert top.loaded == singular
        assert 1 < top.rank_effective < top_rank
        # Ranks below, at and above rank_effective, each bit for bit.
        for rank in range(1, top_rank + 1):
            fresh = gevd_lowrank_estimator(a, b, tau_p, power, rank=rank)
            cut = top.truncated(rank)
            for field in dataclasses.fields(fresh):
                got, expected = getattr(cut, field.name), getattr(fresh, field.name)
                assert np.array_equal(got, expected), (rank, field.name)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        with pytest.raises(ValueError):
            top.truncated(top_rank + 1)

    def test_scaled_matrix_is_exactly_hermitian(self):
        # Bit for bit, at every rank, so that sums of estimates stay exactly
        # Hermitian too.
        net = make_synthetic(np.random.default_rng(14), desired_rank=4)
        top = gevd_lowrank_estimator(net.r_pilot, net.r_all, net.tau_p, 0.8, rank=7)
        for rank in range(1, 8):
            m = top.truncated(rank).scaled_matrix
            assert np.array_equal(m, m.conj().T)

    def test_rank_bounds(self):
        eye = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            gevd_lowrank_estimator(eye, eye, tau_p=3, power=1.0, rank=0)
        with pytest.raises(ValueError):
            gevd_lowrank_estimator(eye, eye, tau_p=3, power=1.0, rank=5)


class TestConvergenceToAnalytic:
    def test_sample_covariances_approach_targets(self):
        # simulated network: both sample covariances approach the analytic
        # statistics as the averaging window grows
        n, tau_p, tau_u = 6, 4, 8
        cells, ues = 2, 2
        rng_cov = np.random.default_rng(13)
        covs = np.stack(
            [np.stack([random_psd(rng_cov, n, rank=2, scale=0.8) for _ in range(ues)]) for _ in range(cells)]
        )
        powers = np.ones((cells, ues))
        r_nn = make_noise_covariance(n, 0.4)
        book = make_pilot_book(tau_p)
        factors = covariance_factors(covs)
        noise_factor = psd_factor(r_nn)

        total = np.einsum("lk,lkij->ij", powers, covs)
        r_all_true = total + r_nn
        r_pilot_true = total + (tau_p - 1) * covs[0, 0] + r_nn

        blocks = 10_000
        rng = ensure_rng(14)
        alloc = allocate_pilots(blocks, cells, ues, tau_p, "random", rng)
        h = sample_channels(factors, rng, blocks=blocks)
        pilot_rx, data_rx = simulate_blocks(
            h, alloc, book, powers, noise_factor, rng, tau_u, rng, rng
        )
        d = despread_batch(pilot_rx, book, alloc[:, 0, 0])
        pilot_err = []
        all_err = []
        for t in (100, 1000, 10_000):
            pilot_cov = estimate_pilot_cov(d[:t], tau_p)
            all_cov = all_cov_of(np.concatenate([pilot_rx[:t], data_rx[:t]], axis=2))
            pilot_err.append(rel_err(pilot_cov, r_pilot_true))
            all_err.append(rel_err(all_cov, r_all_true))
        assert pilot_err[2] <= 0.05
        assert all_err[2] <= 0.05
        assert pilot_err[0] > pilot_err[1] > pilot_err[2]
        assert all_err[0] > all_err[1] > all_err[2]
