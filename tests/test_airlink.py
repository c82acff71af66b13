"""Tests for pilot books, allocation, signal synthesis and despreading."""

import math

import numpy as np
import pytest

from mimoce.airlink import (
    _unit_symbols,
    allocate_pilots,
    despread_batch,
    make_noise_covariance,
    make_pilot_book,
    simulate_blocks,
)
from mimoce.linalg import psd_factor
from mimoce.seeding import ensure_rng


class TestPilotBook:
    def test_single_sequence(self):
        book = make_pilot_book(1)
        assert np.allclose(book.sequences, [[1.0]])

    def test_two_sequences(self):
        book = make_pilot_book(2)
        assert np.allclose(book.sequences[0], [1.0, 1.0])
        assert np.allclose(book.sequences[1], [1.0, -1.0])
        gram = book.sequences @ book.sequences.conj().T
        assert np.allclose(gram, 2.0 * np.eye(2))

    @pytest.mark.parametrize("tau_p", [3, 10])
    def test_gram_and_modulus(self, tau_p):
        book = make_pilot_book(tau_p)
        gram = book.sequences @ book.sequences.conj().T
        assert np.linalg.norm(gram - tau_p * np.eye(tau_p)) <= 1e-12 * tau_p
        assert np.allclose(np.abs(book.sequences), 1.0, atol=1e-12)


class TestAllocation:
    def test_tau_p_one(self):
        for mode in ("random", "fixed_cyclic"):
            alloc = allocate_pilots(5, 2, 3, 1, mode, rng=0)
            assert np.all(alloc == 0)

    def test_fixed_cyclic_continues_across_cells(self):
        alloc = allocate_pilots(2, 7, 10, 4, "fixed_cyclic")
        # cell 0 cycles 0,1,2,3,... and cell 1 continues without restart
        assert list(alloc[0, 0]) == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
        assert list(alloc[0, 1]) == [2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
        assert np.array_equal(alloc[0], alloc[1])

    def test_random_uniform(self):
        alloc = allocate_pilots(10_000, 2, 5, 4, "random", rng=1)
        counts = np.bincount(alloc.ravel(), minlength=4)
        freqs = counts / alloc.size
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_random_reproducible(self):
        a = allocate_pilots(50, 2, 2, 6, "random", rng=99)
        b = allocate_pilots(50, 2, 2, 6, "random", rng=99)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tau_p", [2, 4, 5, 10, 15, 20])
    def test_random_rows_of_a_shorter_window_are_a_prefix(self, tau_p):
        # The sweep harness shares training batches across T on this property.
        longer = allocate_pilots(1500, 7, 5, tau_p, "random", rng=5)
        for blocks in (1, 75, 256, 300, 1499):
            shorter = allocate_pilots(blocks, 7, 5, tau_p, "random", rng=5)
            assert np.array_equal(shorter, longer[:blocks])

    def test_collision_probability(self):
        tau_p = 4
        alloc = allocate_pilots(100_000, 2, 1, tau_p, "random", rng=2)
        collisions = alloc[:, 0, 0] == alloc[:, 1, 0]
        assert abs(collisions.mean() - 1.0 / tau_p) < 0.01

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            allocate_pilots(1, 1, 1, 2, "round_robin")


class TestNoiseCovariance:
    def test_white(self):
        r = make_noise_covariance(4, 0.5)
        assert np.allclose(r, 0.5 * np.eye(4))

    def test_jammer_on_first_antenna(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        r = make_noise_covariance(4, 1.0, jammer=(e1, 1.0))
        assert np.allclose(r, np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        n = 8
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a *= np.sqrt(n) / np.linalg.norm(a)
        r = make_noise_covariance(n, 0.3, jammer=(a, 0.7))
        assert abs(np.trace(r).real - (0.3 * n + 0.7 * n)) < 1e-10


def despread_one(rx, book, b):
    """Despread one block (N, tau_p) through the batch API."""
    return despread_batch(rx[None], book, np.array([b]))[0]


class TestDespreading:
    def test_clean_single_ue_recovery(self):
        tau_p, n, power = 4, 6, 2.25
        book = make_pilot_book(tau_p)
        rng = np.random.default_rng(4)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = 2
        rx = np.sqrt(power) * np.outer(h, book.sequences[b])
        recovered = despread_one(rx, book, b)
        assert recovered.shape == (n,)
        assert np.linalg.norm(recovered - np.sqrt(power) * tau_p * h) <= 1e-12 * np.linalg.norm(h)
        # orthogonal pilot sees nothing
        assert np.linalg.norm(despread_one(rx, book, 1)) <= 1e-12 * np.linalg.norm(h)

    def test_superposition(self):
        tau_p, n = 5, 3
        book = make_pilot_book(tau_p)
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rx = np.outer(h1, book.sequences[0]) + np.outer(h2, book.sequences[3])
        out1 = despread_one(rx, book, 0)
        assert np.linalg.norm(out1 - tau_p * h1) <= 1e-11 * np.linalg.norm(h1)

    def test_linearity(self):
        book = make_pilot_book(3)
        rng = np.random.default_rng(6)
        y1 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        y2 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        alpha = 1.7 - 0.3j
        lhs = despread_one(alpha * y1 + y2, book, 1)
        rhs = alpha * despread_one(y1, book, 1) + despread_one(y2, book, 1)
        assert np.allclose(lhs, rhs)

    def test_batch_matches_loop(self):
        book = make_pilot_book(4)
        rng = np.random.default_rng(7)
        y = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
        b = rng.integers(0, 4, size=6)
        batch = despread_batch(y, book, b)
        assert batch.shape == (6, 5)
        for t in range(6):
            expected = (y[t] * np.conj(book.sequences[b[t]])).sum(axis=1)
            assert np.allclose(batch[t], expected)


class TestSimulation:
    def test_data_symbols_are_the_complex_exponential_bitwise(self):
        phases = ensure_rng(4).uniform(0.0, 2.0 * np.pi, size=(64, 35, 40))
        expected = np.exp(1j * phases)
        assert np.array_equal(_unit_symbols(phases).view(float), expected.view(float))

    def test_zero_channels_zero_noise_limit(self):
        book = make_pilot_book(2)
        h = np.zeros((1, 1, 1, 3), dtype=complex)
        pilot_rx, data_rx = simulate_blocks(
            h, np.zeros((1, 1, 1), dtype=int), book, np.ones((1, 1)),
            psd_factor(1e-30 * np.eye(3)), ensure_rng(0), 4, ensure_rng(1), ensure_rng(2),
        )
        assert pilot_rx.shape == (1, 3, 2)
        assert data_rx.shape == (1, 3, 4)
        assert np.allclose(pilot_rx, 0.0, atol=1e-12)
        assert np.allclose(data_rx, 0.0, atol=1e-12)

    def test_single_ue_noise_free_pilot(self):
        tau_p, n, power = 2, 4, 3.0
        book = make_pilot_book(tau_p)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((1, 1, 1, n)) + 1j * rng.standard_normal((1, 1, 1, n))
        pilot_rx, data_rx = simulate_blocks(
            h, np.array([[[1]]]), book, np.full((1, 1), power),
            psd_factor(1e-30 * np.eye(n)), ensure_rng(9), 0,
        )
        assert data_rx.shape == (1, n, 0)
        expected = np.sqrt(power) * np.outer(h[0, 0, 0], book.sequences[1])
        assert np.allclose(pilot_rx[0], expected, atol=1e-12)

    def test_noise_despreading_power(self):
        # noise-only blocks: E{n_pilot n_pilot^H} = tau_p * R_nn
        n, tau_p, blocks = 6, 5, 100_000
        book = make_pilot_book(tau_p)
        a = np.ones(n, dtype=complex)
        r_nn = make_noise_covariance(n, 0.8, jammer=(a, 0.5))
        factor = psd_factor(r_nn)
        rng = ensure_rng(10)
        h = np.zeros((blocks, 1, 1, n), dtype=complex)
        pilot_rx, _ = simulate_blocks(
            h, np.zeros((blocks, 1, 1), dtype=int), book, np.ones((1, 1)),
            factor, rng, 0,
        )
        d = despread_batch(pilot_rx, book, np.zeros(blocks, dtype=int))
        emp = np.einsum("bn,bm->nm", d, d.conj()) / blocks
        target = tau_p * r_nn
        assert np.linalg.norm(emp - target) <= 0.05 * np.linalg.norm(target)

    def test_received_sample_covariance(self):
        # E{y(p) y(p)^H} = sum_lk p_lk R_lk + R_nn across pilot samples
        from mimoce.channel import covariance_factors, local_scattering_covariance, sample_channels

        n, tau_p, blocks = 6, 4, 25_000
        book = make_pilot_book(tau_p)
        covs = np.stack(
            [
                np.stack(
                    [
                        local_scattering_covariance(n, 0.2 * (l + 1) + 0.3 * k, np.deg2rad(10), gain=0.5 + 0.25 * k)
                        for k in range(2)
                    ]
                )
                for l in range(2)
            ]
        )
        powers = np.array([[1.0, 0.5], [0.8, 1.2]])
        r_nn = make_noise_covariance(n, 0.2)
        rng = ensure_rng(11)
        h = sample_channels(covariance_factors(covs), rng, blocks=blocks)
        pilot_rx, data_rx = simulate_blocks(
            h, ensure_rng(12).integers(0, tau_p, (blocks, 2, 2)), book, powers,
            psd_factor(r_nn), rng, 2, rng, rng,
        )
        samples = np.concatenate([pilot_rx, data_rx], axis=2)
        flat = np.moveaxis(samples, 1, 0).reshape(n, -1)
        emp = flat @ flat.conj().T / flat.shape[1]
        target = np.einsum("lk,lkij->ij", powers, covs) + r_nn
        assert np.linalg.norm(emp - target) <= 0.05 * np.linalg.norm(target)

    def test_pilot_phase_does_not_depend_on_the_data_phase(self):
        # pilot_rx is a function of the pilot generator only and data_rx of
        # the data generator only, so sweep points can share a data phase.
        rng = ensure_rng(20)
        blocks, cells, ues, n, tau_p = 4, 2, 3, 5, 3
        book = make_pilot_book(tau_p)
        h = rng.standard_normal((blocks, cells, ues, n)) + 1j * rng.standard_normal(
            (blocks, cells, ues, n)
        )
        rows = rng.integers(0, tau_p, (blocks, cells, ues))
        powers = rng.uniform(0.5, 2.0, (cells, ues))
        factor = psd_factor(make_noise_covariance(n, 0.3))

        def receive(pilot_seed, data_seed, tau_u):
            data_rng = None if data_seed is None else ensure_rng(data_seed)
            return simulate_blocks(
                h, rows, book, powers, factor, ensure_rng(pilot_seed), tau_u, data_rng,
                data_rng,
            )

        pilot_only, no_data = receive(1, None, 0)
        assert no_data.shape == (blocks, n, 0)
        pilot_a, data_a = receive(1, 2, 6)
        pilot_b, data_b = receive(1, 3, 6)
        _, data_c = receive(4, 2, 6)
        assert np.array_equal(pilot_a, pilot_only)
        assert np.array_equal(pilot_b, pilot_only)
        assert np.array_equal(data_c, data_a)
        assert not np.array_equal(data_b, data_a)

    @pytest.mark.parametrize("n", [32, 100])
    def test_white_noise_scalar_matches_its_matrix_factor(self, n):
        # psd_factor(sigma^2 I) is sqrt(sigma^2) I exactly, and the scalar
        # noise path adds the same bits without the (N, N) product.
        rng = ensure_rng(21)
        blocks, cells, ues, tau_p, noise_power = 3, 2, 3, 4, 0.3
        factor = psd_factor(make_noise_covariance(n, noise_power))
        assert factor.tobytes() == (math.sqrt(noise_power) * np.eye(n, dtype=complex)).tobytes()
        book = make_pilot_book(tau_p)
        h = rng.standard_normal((blocks, cells, ues, n)) + 1j * rng.standard_normal(
            (blocks, cells, ues, n)
        )
        rows = rng.integers(0, tau_p, (blocks, cells, ues))
        powers = rng.uniform(0.5, 2.0, (cells, ues))

        def receive(noise_factor):
            return simulate_blocks(
                h, rows, book, powers, noise_factor, ensure_rng(1), 6, ensure_rng(2),
                ensure_rng(3),
            )

        for got, expected in zip(receive(math.sqrt(noise_power)), receive(factor)):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t", [1, 75, 255])
    def test_prefix_of_a_batch_is_a_smaller_batch(self, t):
        # With the data noise on a stream of its own, the first t blocks of
        # both phases of a 256-block batch are, bit for bit, a t-block batch
        # from generators at the same positions.
        rng = ensure_rng(22)
        blocks, cells, ues, n, tau_p, tau_u = 256, 7, 5, 32, 10, 40
        book = make_pilot_book(tau_p)
        h = rng.standard_normal((blocks, cells, ues, n)) + 1j * rng.standard_normal(
            (blocks, cells, ues, n)
        )
        rows = rng.integers(0, tau_p, (blocks, cells, ues))
        powers = rng.uniform(0.5, 2.0, (cells, ues))

        def receive(size, noise_factor):
            return simulate_blocks(
                h[:size], rows[:size], book, powers, noise_factor, ensure_rng(1), tau_u,
                ensure_rng(2), ensure_rng(3),
            )

        for noise_factor in (math.sqrt(0.3), psd_factor(make_noise_covariance(n, 0.3))):
            full = receive(blocks, noise_factor)
            part = receive(t, noise_factor)
            for got, expected in zip(part, full):
                assert got.shape[0] == t
                assert got.tobytes() == expected[:t].tobytes()

    def test_data_phase_needs_its_generator(self):
        book = make_pilot_book(2)
        h = np.ones((1, 1, 1, 2), dtype=complex)
        for data_rngs in ((), (ensure_rng(1),), (None, ensure_rng(2))):
            with pytest.raises(ValueError, match="data-phase generator"):
                simulate_blocks(
                    h, np.zeros((1, 1, 1), dtype=int), book, np.ones((1, 1)),
                    np.eye(2), ensure_rng(0), 3, *data_rngs,
                )

    def test_data_symbols_unit_modulus(self):
        book = make_pilot_book(2)
        h = np.ones((3, 1, 1, 2), dtype=complex)
        rng = ensure_rng(13)
        _, data_rx = simulate_blocks(
            h, np.zeros((3, 1, 1), dtype=int), book, np.ones((1, 1)),
            np.zeros((2, 2)), rng, 8, rng, rng,
        )
        # noise-free single-UE data samples have |s| = 1 on each antenna
        assert np.allclose(np.abs(data_rx), 1.0, atol=1e-12)
