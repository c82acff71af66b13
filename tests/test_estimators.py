"""Tests for the channel estimators and their algebraic relationships."""

from pathlib import Path

import numpy as np
import pytest

from mimoce.airlink import (
    allocate_pilots,
    despread_batch,
    make_noise_covariance,
    make_pilot_book,
    simulate_blocks,
)
from mimoce.channel import covariance_factors, sample_channels
from mimoce.cli import parse_config
from mimoce.covest import LowRankCovEstimate, estimate_pilot_cov, gevd_lowrank_estimator
from mimoce.estimators import (
    approx_mmse_filter,
    improved_mmse_filter,
    ls_estimate,
    mmse_fixed_filter,
    mmse_optimal_filter,
)
from mimoce.harness import _Run, _RunState
from mimoce.linalg import hermitize, psd_factor, solve_hermitian
from mimoce.seeding import complex_normal, ensure_rng
from support import SyntheticNetwork, make_synthetic, random_psd

ROOT = Path(__file__).resolve().parent.parent


def rel_err(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def pilot_cov_for(net: SyntheticNetwork, ue: int) -> np.ndarray:
    """Analytic despread covariance when UE `ue` of the network is desired."""
    extra = net.powers[ue] * (net.tau_p - 1) * net.covariances[ue]
    return net.total_signal_cov + extra + net.r_nn


class TestOptimalFilter:
    def test_zero_covariance_zero_filter(self):
        w = mmse_optimal_filter(np.eye(4, dtype=complex), np.zeros((4, 4)), 1.0)
        assert np.all(w == 0)
        assert np.all(np.ones(4, dtype=complex) @ w.conj() == 0)

    def test_single_ue_closed_form(self):
        rng = np.random.default_rng(0)
        n, tau_p, power, sigma2 = 6, 5, 1.8, 0.3
        r = random_psd(rng, n)
        r_pilot = power * tau_p * r + sigma2 * np.eye(n)
        w = mmse_optimal_filter(r_pilot, r, power)
        expected = np.sqrt(power) * np.linalg.solve(r_pilot, r)
        assert rel_err(w, expected) <= 1e-12

    def test_first_order_optimality(self):
        # empirical MSE of the true-covariance filter never improves under
        # small perturbations
        net = make_synthetic(np.random.default_rng(1), n=8, desired_rank=4, tau_p=4)
        blocks = 10_000
        rng = ensure_rng(2)
        factors = covariance_factors(np.stack(net.covariances))
        h = sample_channels(factors, rng, blocks=blocks)  # (B, U, N)
        book = make_pilot_book(net.tau_p)
        alloc = allocate_pilots(blocks, 1, len(net.covariances), net.tau_p, "random", rng)
        pilot_rx, _ = simulate_blocks(
            h[:, None, :, :],
            alloc.reshape(blocks, 1, -1),
            book,
            net.powers[None, :],
            psd_factor(net.r_nn),
            rng,
            0,
        )
        y = despread_batch(pilot_rx, book, alloc[:, 0, 0])
        h_des = h[:, 0, :]
        w_opt = mmse_optimal_filter(net.r_pilot, net.r_desired, net.power_desired)

        def mse(w):
            est = np.einsum("nm,bn->bm", w.conj(), y)
            return float(np.mean(np.abs(est - h_des) ** 2))

        base = mse(w_opt)
        for trial in range(20):
            delta = complex_normal(ensure_rng(50 + trial), w_opt.shape)
            assert base <= mse(w_opt + 0.01 * delta)

    def test_beats_ls_on_same_data(self):
        net = make_synthetic(np.random.default_rng(3), n=8, desired_rank=4, tau_p=4)
        blocks = 5_000
        rng = ensure_rng(4)
        factors = covariance_factors(np.stack(net.covariances))
        h = sample_channels(factors, rng, blocks=blocks)
        book = make_pilot_book(net.tau_p)
        alloc = allocate_pilots(blocks, 1, len(net.covariances), net.tau_p, "random", rng)
        pilot_rx, _ = simulate_blocks(
            h[:, None, :, :], alloc.reshape(blocks, 1, -1), book,
            net.powers[None, :], psd_factor(net.r_nn), rng, 0,
        )
        y = despread_batch(pilot_rx, book, alloc[:, 0, 0])
        w = mmse_optimal_filter(net.r_pilot, net.r_desired, net.power_desired)
        mse_mmse = np.mean(np.abs(y @ w.conj() - h[:, 0, :]) ** 2)
        mse_ls = np.mean(
            np.abs(ls_estimate(y, net.power_desired, net.tau_p) - h[:, 0, :]) ** 2
        )
        assert mse_mmse < mse_ls


class TestApproxFilter:
    def test_zero_rank_zero_filter(self):
        eye = np.eye(5, dtype=complex)
        low = gevd_lowrank_estimator(eye, eye, tau_p=4, power=1.0, rank=2)
        w = approx_mmse_filter(low, 1.0)
        assert w.shape == (5, 5)
        assert np.all(w == 0)

    def test_matches_optimal_on_exact_lowrank_inputs(self):
        net = make_synthetic(np.random.default_rng(5), desired_rank=3)
        low = gevd_lowrank_estimator(
            net.r_pilot, net.r_all, net.tau_p, net.power_desired, rank=3
        )
        approx = approx_mmse_filter(low, net.power_desired)
        optimal = mmse_optimal_filter(net.r_pilot, net.r_desired, net.power_desired)
        assert rel_err(approx, optimal) <= 1e-8

    def test_strong_signal_weight_limit(self):
        # as the generalized eigenvalues grow, the per-mode weights
        # approach 1 / (tau_p - 1); needs a synthetic pencil, since a
        # physical one caps the eigenvalues at tau_p
        rng = np.random.default_rng(6)
        n, tau_p = 8, 5
        w = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        a = hermitize(np.eye(n) + 1e7 * w @ w.conj().T)
        low = gevd_lowrank_estimator(a, np.eye(n, dtype=complex), tau_p, 1.0, rank=2)
        weights = low.lam / low.sigma
        assert np.all(low.sigma > 1e4)
        assert np.allclose(weights, 1.0 / (tau_p - 1), rtol=1e-3)

    def test_zero_and_orthogonal_inputs(self):
        net = make_synthetic(np.random.default_rng(8), desired_rank=3)
        low = gevd_lowrank_estimator(net.r_pilot, net.r_all, net.tau_p, 1.0, rank=3)
        w = approx_mmse_filter(low, 1.0)
        assert np.all(np.zeros(net.n) @ w.conj() == 0)
        # a vector orthogonal to every dual-basis column estimates to zero
        rng = np.random.default_rng(9)
        y = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
        proj = low.x @ np.linalg.solve(low.x.conj().T @ low.x, low.x.conj().T @ y)
        y_perp = y - proj
        h_hat = y_perp @ w.conj()
        assert np.linalg.norm(h_hat) <= 1e-10 * np.linalg.norm(y)

    def test_estimate_lies_in_retained_subspace(self):
        net = make_synthetic(np.random.default_rng(10), desired_rank=3)
        low = gevd_lowrank_estimator(net.r_pilot, net.r_all, net.tau_p, 1.0, rank=3)
        rng = np.random.default_rng(11)
        y = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
        h_hat = y @ approx_mmse_filter(low, 1.0).conj()
        q, _ = np.linalg.qr(low.q)
        residual = h_hat - q @ (q.conj().T @ h_hat)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(h_hat)

    def test_equivariance(self):
        rng = np.random.default_rng(12)
        net = make_synthetic(rng, desired_rank=3)
        low = gevd_lowrank_estimator(net.r_pilot, net.r_all, net.tau_p, 1.0, rank=3)
        y = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
        base = y @ approx_mmse_filter(low, 1.0).conj()
        t = rng.standard_normal((net.n, net.n)) + 1j * rng.standard_normal((net.n, net.n))
        t += 3 * np.eye(net.n)
        low_t = gevd_lowrank_estimator(
            hermitize(t @ net.r_pilot @ t.conj().T),
            hermitize(t @ net.r_all @ t.conj().T),
            net.tau_p,
            1.0,
            rank=3,
        )
        mapped = (t @ y) @ approx_mmse_filter(low_t, 1.0).conj()
        assert rel_err(mapped, t @ base) <= 1e-8


class TestImprovedFilter:
    def intracell_net(self, seed, k_ues=3, tau_p=6, noise=0.3):
        """Single-cell network with per-UE exact low-rank estimates."""
        rng = np.random.default_rng(seed)
        n = 12
        covs = [random_psd(rng, n, rank=2 + i) for i in range(k_ues)]
        powers = np.linspace(1.0, 0.6, k_ues)
        r_nn = noise * np.eye(n, dtype=complex)
        total = sum(p * r for p, r in zip(powers, covs))
        r_all = total + r_nn
        lowranks = []
        for i in range(k_ues):
            r_pilot_i = total + powers[i] * (tau_p - 1) * covs[i] + r_nn
            lowranks.append(
                gevd_lowrank_estimator(r_pilot_i, r_all, tau_p, powers[i], rank=2 + i)
            )
        return n, covs, powers, r_nn, total, tau_p, lowranks

    def test_single_ue_reduces_to_plain_solve(self):
        rng = np.random.default_rng(13)
        n, tau_p, power = 10, 5, 1.3
        r = random_psd(rng, n, rank=3)
        r_all = hermitize(power * r + 0.4 * np.eye(n) + random_psd(rng, n, scale=0.2))
        r_pilot = hermitize(r_all + power * (tau_p - 1) * r)
        low = gevd_lowrank_estimator(r_pilot, r_all, tau_p, power, rank=3)
        filt = improved_mmse_filter(r_pilot, [low], np.array([0]), 0, tau_p, power)
        expected = np.sqrt(power) * solve_hermitian(r_pilot, low.scaled_matrix / power)
        assert rel_err(filt.w, expected) <= 1e-9
        assert not filt.clamped

    def test_no_collision_removes_intracell_terms(self):
        n, covs, powers, r_nn, total, tau_p, lowranks = self.intracell_net(14)
        k = 0
        pilot_true = total + powers[k] * (tau_p - 1) * covs[k] + r_nn
        pilot_row = np.array([0, 1, 2])  # all distinct pilots
        filt = improved_mmse_filter(pilot_true, lowranks, pilot_row, k, tau_p, powers[k])
        m_expected = pilot_true - sum(
            powers[i] * covs[i] for i in range(len(covs)) if i != k
        )
        w_expected = np.sqrt(powers[k]) * solve_hermitian(
            hermitize(m_expected), lowranks[k].scaled_matrix / powers[k]
        )
        assert rel_err(filt.w, w_expected) <= 1e-7

    def test_assembled_matrix_is_exactly_hermitian(self, monkeypatch):
        # Exactly Hermitian pilot covariances (as estimate_pilot_cov gives)
        # and low-rank estimates assemble an exactly Hermitian matrix for
        # every pilot pattern, so no build needs to hermitize it.
        n, covs, powers, r_nn, total, tau_p, lowranks = self.intracell_net(17)
        decomposed = []
        real_eigh = np.linalg.eigh

        def recording(m):
            decomposed.append(m.copy())
            return real_eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        rows = ([0, 1, 2], [0, 0, 2], [1, 1, 1])
        for k in range(len(covs)):
            pilot = hermitize(total + powers[k] * (tau_p - 1) * covs[k] + r_nn)
            for row in rows:
                improved_mmse_filter(pilot, lowranks, np.array(row), k, tau_p, powers[k])
        assert len(decomposed) == len(covs) * len(rows)
        for m in decomposed:
            assert np.array_equal(m, m.conj().T)

    def test_collision_gets_full_power_weight(self):
        n, covs, powers, r_nn, total, tau_p, lowranks = self.intracell_net(15)
        k = 0
        pilot_true = total + powers[k] * (tau_p - 1) * covs[k] + r_nn
        pilot_row = np.array([0, 0, 2])  # UE 1 collides with UE 0
        filt = improved_mmse_filter(pilot_true, lowranks, pilot_row, k, tau_p, powers[k])
        m_expected = (
            pilot_true + (tau_p - 1) * powers[1] * covs[1] - powers[2] * covs[2]
        )
        w_expected = np.sqrt(powers[k]) * solve_hermitian(
            hermitize(m_expected), lowranks[k].scaled_matrix / powers[k]
        )
        assert rel_err(filt.w, w_expected) <= 1e-7

    def test_clamps_indefinite_assembly(self):
        # force an indefinite corrected matrix: tiny pilot cov, large
        # subtracted estimates
        rng = np.random.default_rng(16)
        n, tau_p = 8, 5
        strong = random_psd(rng, n, rank=2, scale=50.0)
        weak_pilot = random_psd(rng, n) + 0.1 * np.eye(n)
        low_other = gevd_lowrank_estimator(
            hermitize(weak_pilot + (tau_p - 1) * strong),
            hermitize(weak_pilot),
            tau_p, 1.0, rank=2,
        )
        low_self = gevd_lowrank_estimator(
            hermitize(weak_pilot + (tau_p - 1) * random_psd(rng, n, rank=2)),
            hermitize(weak_pilot),
            tau_p, 1.0, rank=2,
        )
        filt = improved_mmse_filter(
            weak_pilot, [low_self, low_other], np.array([0, 1]), 0, tau_p, 1.0
        )
        assert filt.clamped
        assert np.all(np.isfinite(filt.w))


    @pytest.mark.parametrize("seed", [1, 7])
    def test_exact_inputs_give_the_pattern_conditioned_lmmse_filter(self, seed):
        # With the true pilot covariance and exact intra-cell estimates
        # (scaled_matrix = p R_0i), the corrected matrix is the despread
        # covariance given which serving-cell UEs share UE k's pilot: a
        # sharer contributes tau_p p R_0i, any other serving-cell UE
        # nothing, every other cell its random-allocation average.  The
        # filter is then the LMMSE filter under that covariance.
        config = parse_config(ROOT / "configs/desk_scale.yaml")
        run = _Run(config, (seed, 0))
        sysc = config.system
        power, tau_p, ues, n = run.power, sysc.tau_p, sysc.ues_per_cell, sysc.antennas
        scaled = power * run.covs[0]
        none = np.zeros((n, 0))
        exact = [
            LowRankCovEstimate(s, 1, 0, none, none, np.zeros(0), np.zeros(0), False)
            for s in scaled
        ]
        pilot_covs = _RunState(run, sysc).pilot_cov_true()
        rng = np.random.default_rng(seed)
        for row in rng.integers(0, tau_p, size=(20, ues)):
            for k in range(ues):
                others = [i for i in range(ues) if i != k]
                sharers = [i for i in others if row[i] == row[k]]
                conditioned = pilot_covs[k] - scaled[others].sum(axis=0)
                conditioned += tau_p * scaled[sharers].sum(axis=0)
                filt = improved_mmse_filter(pilot_covs[k], exact, row, k, tau_p, power)
                assert not filt.clamped
                expected = mmse_optimal_filter(conditioned, run.covs[0][k], power)
                assert rel_err(filt.w, expected) <= 1e-11


class TestLsEstimate:
    def test_clean_recovery(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        power, tau_p = 2.0, 6
        y = np.sqrt(power) * tau_p * h
        assert np.allclose(ls_estimate(y, power, tau_p), h)

    def test_zero_input(self):
        assert np.all(ls_estimate(np.zeros(4), 1.0, 3) == 0)

    def test_contamination_passes_through(self):
        rng = np.random.default_rng(18)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h_int = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        power, tau_p = 1.0, 4
        y = np.sqrt(power) * tau_p * (h + h_int)
        assert np.allclose(ls_estimate(y, power, tau_p), h + h_int)


def mmse_fixed_reference(covs, power, pilot_row, r_nn, tau_p):
    """Per-UE fixed-allocation LMMSE filters, each UE's interferers collected
    in a list of (covariance, power) pairs."""
    cells, ues = pilot_row.shape
    filters = []
    for k in range(ues):
        shared = [
            (covs[l, i], power)
            for l in range(cells)
            for i in range(ues)
            if (l, i) != (0, k) and pilot_row[l, i] == pilot_row[0, k]
        ]
        m = power * tau_p * covs[0, k] + r_nn
        for r_i, p_i in shared:
            m = m + p_i * tau_p * r_i
        filters.append(np.sqrt(power) * np.linalg.solve(hermitize(m), covs[0, k]))
    return np.stack(filters)


class TestMmseFixedFilter:
    def test_zero_covariance_zero_filter(self):
        n = 4
        w = mmse_fixed_filter(
            np.zeros((1, 1, n, n)), 1.0, np.zeros((1, 1), int), np.eye(n, dtype=complex), 5
        )
        assert w.shape == (1, n, n)
        assert np.all(w == 0)

    def test_noise_free_limit_lossless(self):
        rng = np.random.default_rng(19)
        n, tau_p, power = 6, 5, 1.0
        r = random_psd(rng, n) + 0.5 * np.eye(n)  # full rank
        nmse_prev = None
        for sigma2 in (1e-2, 1e-5, 1e-8):
            mmse_fixed_filter(
                r[None, None], power, np.zeros((1, 1), int), sigma2 * np.eye(n), tau_p
            )
            # analytic NMSE of the LMMSE estimate
            err_cov = r - power * tau_p * r @ np.linalg.solve(
                power * tau_p * r + sigma2 * np.eye(n), r
            )
            nmse = np.trace(err_cov).real / np.trace(r).real
            if nmse_prev is not None:
                assert nmse < nmse_prev
            nmse_prev = nmse
        assert nmse_prev < 1e-7

    def test_matches_brute_force_regression(self):
        # two UEs of one cell share a pilot with identical statistics: the
        # analytic filter agrees with a least-squares regression on
        # simulated despread data and NMSE is floored near 1/2.  The draws
        # are split (every real part, then every imaginary part), a layout
        # fixed here so that the inputs do not follow complex_normal's.
        rng = ensure_rng(20)
        n, tau_p, power, draws = 6, 5, 1.0, 40_000

        def split_normal(shape):
            real = rng.standard_normal(shape)
            return (real + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)

        r = random_psd(np.random.default_rng(21), n) + 0.2 * np.eye(n)
        r_nn = 0.05 * np.eye(n, dtype=complex)
        f = psd_factor(r)
        fn = psd_factor(tau_p * r_nn)
        h = np.einsum("nm,bm->bn", f, split_normal((draws, n)))
        h_int = np.einsum("nm,bm->bn", f, split_normal((draws, n)))
        noise = np.einsum("nm,bm->bn", fn, split_normal((draws, n)))
        y = np.sqrt(power) * tau_p * (h + h_int) + noise

        w = mmse_fixed_filter(
            np.stack([r, r])[None], power, np.zeros((1, 2), int), r_nn, tau_p
        )
        assert w.shape == (2, n, n)
        assert np.allclose(w[0], w[1])
        gram = np.einsum("bn,bm->nm", y, y.conj())
        cross = np.einsum("bn,bm->nm", y, h.conj())
        w_regression = np.linalg.solve(gram, cross)
        assert rel_err(w[0], w_regression) <= 0.02

        nmse = float(np.mean(np.abs(y @ w[0].conj() - h) ** 2) * n / np.trace(r).real)
        assert nmse >= 0.45

    def test_matches_closed_form_normal_equations(self):
        # The setting of the regression above, with its moments in closed
        # form: y = sqrt(p) tau (h + h_int) + n with h, h_int ~ CN(0, R)
        # and n ~ CN(0, tau R_nn) has E[y y^H] = 2 p tau^2 R + tau R_nn and
        # E[y h^H] = sqrt(p) tau R.  The LMMSE filter solves the normal
        # equations E[y y^H] W = E[y h^H], with no sampling error.
        rng = np.random.default_rng(23)
        n, tau_p, power = 6, 5, 0.7
        r = random_psd(rng, n) + 0.2 * np.eye(n)

        def filter_and_nmse(r_nn):
            w = mmse_fixed_filter(
                np.stack([r, r])[None], power, np.zeros((1, 2), int), r_nn, tau_p
            )
            gram = 2 * power * tau_p**2 * r + tau_p * r_nn
            cross = np.sqrt(power) * tau_p * r
            expected = np.linalg.solve(gram, cross)
            for w_k in w:
                assert rel_err(w_k, expected) <= 1e-10
            # The error covariance of W^H y is R - E[h y^H] W.
            error = r - cross.conj().T @ w[0]
            return np.trace(error).real / np.trace(r).real

        # Coloured noise: white plus a rank-one interferer.
        r_nn = 0.05 * np.eye(n) + random_psd(rng, n, rank=1, scale=0.1)
        # Two UEs of equal statistics on one pilot cannot be told apart:
        # even without noise the best estimate is (h + h_int) / 2, whose
        # NMSE is 1/2.  Noise keeps the NMSE above that floor, and it
        # approaches the floor as the noise vanishes.
        assert filter_and_nmse(r_nn) > 0.5 + 1e-3
        assert 0.5 < filter_and_nmse(1e-9 * r_nn) < 0.5 + 1e-6

    @pytest.mark.parametrize("tau_p", [2, 5])
    def test_stack_matches_per_ue_shared_lists(self, tau_p):
        # 7 cells of 3 UEs on fixed cyclic pilots: UEs share pilots across
        # cells, and at tau_p = 2 also within the serving cell.
        cells, ues, n, power = 7, 3, 6, 0.8
        rng = np.random.default_rng(22)
        covs = np.stack(
            [
                np.stack([(1.0 if l == 0 else 0.3) * random_psd(rng, n) for _ in range(ues)])
                for l in range(cells)
            ]
        )
        r_nn = 0.1 * np.eye(n, dtype=complex)
        row = allocate_pilots(1, cells, ues, tau_p, "fixed_cyclic")[0]
        w = mmse_fixed_filter(covs, power, row, r_nn, tau_p)
        expected = mmse_fixed_reference(covs, power, row, r_nn, tau_p)
        assert w.shape == (ues, n, n)
        for k in range(ues):
            assert rel_err(w[k], expected[k]) <= 1e-12
