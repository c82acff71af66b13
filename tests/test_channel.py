"""Tests for geometry, local scattering covariances and channel sampling."""

from functools import cache

import numpy as np
import pytest
import scipy.linalg

from mimoce.airlink import make_noise_covariance
from mimoce.channel import (
    QUAD_POINTS,
    InvalidSpread,
    UnsupportedLayout,
    bs_covariances,
    build_geometry,
    covariance_factors,
    dominant_eigenvalue_count,
    local_scattering_covariance,
    sample_channels,
    steering_vector,
    trim_factors,
)
from mimoce.cli import parse_config
from mimoce.harness import _Run
from mimoce.linalg import psd_factor

SHIPPED = ["configs/desk_scale.yaml", "configs/full_scale.yaml"]


@cache
def shipped_factors(path: str, master_seed: int) -> np.ndarray:
    """The square channel factors (L, K, N, N) of run 0 of a shipped config."""
    return covariance_factors(_Run(parse_config(path), (master_seed, 0)).covs)


def zero_columns_lead(factors: np.ndarray) -> bool:
    """Whether every factor's zero columns come before all its other ones."""
    nonzero = np.any(factors != 0, axis=-2)
    first = nonzero.argmax(axis=-1)
    return np.array_equal(nonzero, np.arange(nonzero.shape[-1]) >= first[..., None])


class TestGeometry:
    def test_single_cell(self):
        geo = build_geometry(1, 1, rng=0)
        assert geo.bs_positions.shape == (1, 2)
        assert np.allclose(geo.bs_positions[0], 0.0)
        d = np.linalg.norm(geo.ue_positions[0, 0] - geo.bs_positions[0])
        assert abs(d - 140.0) < 1e-9
        assert abs(geo.link_gains[0, 0, 0] - 1.0) < 1e-12

    def test_hex_lattice_distances(self):
        geo = build_geometry(7, 2, cell_radius=250.0, rng=1)
        # neighbors sit at sqrt(3) * cell_radius from the center and from
        # each other along the ring
        spacing = np.sqrt(3.0) * 250.0
        for i in range(1, 7):
            assert abs(np.linalg.norm(geo.bs_positions[i]) - spacing) < 1e-9
        ring = geo.bs_positions[1:]
        for i in range(6):
            d = np.linalg.norm(ring[i] - ring[(i + 1) % 6])
            assert abs(d - spacing) < 1e-6

    def test_seventy_ues_total(self):
        geo = build_geometry(7, 10, rng=2)
        assert geo.ue_positions.shape == (7, 10, 2)
        assert geo.ue_positions.reshape(-1, 2).shape[0] == 70

    def test_ues_inside_own_hexagon(self):
        # ring radius below the hexagon inradius keeps every UE in-cell
        geo = build_geometry(7, 10, cell_radius=250.0, ring_radius=140.0, rng=3)
        inradius = np.sqrt(3.0) / 2.0 * 250.0
        for cell in range(7):
            d = np.linalg.norm(geo.ue_positions[cell] - geo.bs_positions[cell], axis=1)
            assert np.all(d < inradius)

    def test_serving_gain_one_interference_below(self):
        geo = build_geometry(7, 4, rng=4)
        gains = geo.link_gains
        for cell in range(7):
            assert np.allclose(gains[cell, cell], 1.0)
        # cross links are farther away, hence weaker
        for j in range(7):
            for l in range(7):
                if j != l:
                    assert np.all(gains[j, l] < 1.0)

    def test_unsupported_layout(self):
        with pytest.raises(UnsupportedLayout):
            build_geometry(3, 2, rng=0)

    def test_deterministic_given_seed(self):
        a = build_geometry(7, 5, rng=123)
        b = build_geometry(7, 5, rng=123)
        assert np.array_equal(a.ue_positions, b.ue_positions)


class TestLocalScattering:
    def test_scalar_case(self):
        r = local_scattering_covariance(1, 0.3, np.deg2rad(10), gain=2.5)
        assert r.shape == (1, 1)
        assert abs(r[0, 0] - 2.5) < 1e-12

    def test_single_path_limit(self):
        phi = 0.7
        a = steering_vector(6, phi)
        r = local_scattering_covariance(6, phi, 0.0, gain=1.5, single_path=True)
        assert np.allclose(r, 1.5 * np.outer(a, a.conj()))
        assert np.linalg.matrix_rank(r, tol=1e-10) == 1

    def test_invalid_spread(self):
        with pytest.raises(InvalidSpread):
            local_scattering_covariance(4, 0.0, 0.0)
        with pytest.raises(InvalidSpread):
            local_scattering_covariance(4, 0.0, -0.1)

    def test_hermitian_psd_unit_diagonal(self):
        r = local_scattering_covariance(24, 0.4, np.deg2rad(10), gain=3.0)
        assert np.allclose(r, r.conj().T)
        assert np.allclose(np.diag(r).real, 3.0, atol=1e-10)
        w = np.linalg.eigvalsh(r)
        assert w[0] >= -1e-10 * w[-1]

    def test_gain_scaling_exact(self):
        base = local_scattering_covariance(12, -0.2, np.deg2rad(10), gain=1.0)
        scaled = local_scattering_covariance(12, -0.2, np.deg2rad(10), gain=4.0)
        assert np.array_equal(scaled, 4.0 * base)

    def test_matches_direct_quadrature(self):
        # spot-check one off-diagonal entry against brute-force integration
        n, phi, delta = 8, 0.25, np.deg2rad(10)
        r = local_scattering_covariance(n, phi, delta)
        theta = np.linspace(phi - delta, phi + delta, 200001)
        for lag in (1, 5):
            ref = np.trapezoid(np.exp(1j * np.pi * lag * np.sin(theta)), theta) / (
                2 * delta
            )
            assert abs(r[lag, 0] - ref) < 1e-8

    @pytest.mark.parametrize("single_path", [False, True])
    def test_stack_matches_per_link(self, single_path):
        # the broadcast call against a per-link quadrature and Toeplitz build
        n, delta = 9, np.deg2rad(10)
        geo = build_geometry(7, 3, rng=4)
        angles, gains = geo.nominal_angles[0], geo.link_gains[0]
        stack = local_scattering_covariance(
            n, angles, delta, gain=gains, single_path=single_path
        )
        assert stack.shape == (7, 3, n, n)
        nodes, weights = np.polynomial.legendre.leggauss(QUAD_POINTS)
        for l in range(7):
            for k in range(3):
                if single_path:
                    a = steering_vector(n, angles[l, k])
                    ref = gains[l, k] * np.outer(a, a.conj())
                else:
                    theta = angles[l, k] + delta * nodes
                    column = np.exp(
                        1j * np.pi * np.outer(np.arange(n), np.sin(theta))
                    ) @ (weights / 2)
                    ref = gains[l, k] * scipy.linalg.toeplitz(column)
                assert np.linalg.norm(stack[l, k] - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_bs_covariances_per_link(self):
        geo = build_geometry(7, 2, rng=5)
        covs = bs_covariances(geo, 3, 6, np.deg2rad(10))
        assert covs.shape == (7, 2, 6, 6)
        for l in range(7):
            for k in range(2):
                link = local_scattering_covariance(
                    6, geo.nominal_angles[3, l, k], np.deg2rad(10), gain=geo.link_gains[3, l, k]
                )
                assert np.array_equal(covs[l, k], link)

    def test_dominant_eigenvalue_count_large_array(self):
        r = local_scattering_covariance(100, 0.0, np.deg2rad(10))
        count = dominant_eigenvalue_count(r, rel_threshold=0.01)
        assert 20 <= count <= 35


class TestSampling:
    def test_zero_covariance(self):
        f = covariance_factors(np.zeros((2, 2), dtype=complex))
        h = sample_channels(f, rng=0, blocks=4)
        assert np.all(h == 0)

    def test_identity_second_moment(self):
        n, draws = 6, 100_000
        f = covariance_factors(np.eye(n, dtype=complex))
        h = sample_channels(f, rng=1, blocks=draws)
        emp = np.einsum("bn,bm->nm", h, h.conj()) / draws
        assert np.linalg.norm(emp - np.eye(n)) <= 0.05 * np.linalg.norm(np.eye(n))

    def test_rank_one_collinear(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = covariance_factors(np.outer(q, q.conj()))
        h = sample_channels(f, rng=3, blocks=50)
        # every draw is a complex multiple of q
        qn = q / np.linalg.norm(q)
        residual = h - np.outer(h @ qn.conj(), qn)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(h)

    def test_statistical_consistency(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = g @ g.conj().T / 6
        f = covariance_factors(r)
        h = sample_channels(f, rng=5, blocks=100_000)
        emp = np.einsum("bn,bm->nm", h, h.conj()) / h.shape[0]
        assert np.linalg.norm(emp - r) <= 0.05 * np.linalg.norm(r)

    def test_cross_ue_uncorrelated(self):
        r = local_scattering_covariance(5, 0.1, np.deg2rad(10))
        f = covariance_factors(np.stack([r, r]))  # two UEs, same statistics
        h = sample_channels(f, rng=6, blocks=100_000)
        cross = np.einsum("bn,bm->nm", h[:, 0], h[:, 1].conj()) / h.shape[0]
        bound = 0.05 * np.sqrt(np.trace(r).real * np.trace(r).real)
        assert np.linalg.norm(cross) <= bound

    def test_batch_shape(self):
        geo = build_geometry(7, 3, rng=7)
        covs = bs_covariances(geo, 0, 4, np.deg2rad(10))
        f = covariance_factors(covs)
        h = sample_channels(f, rng=8, blocks=10)
        assert h.shape == (10, 7, 3, 4)
        single = sample_channels(f, rng=9)
        assert single.shape == (7, 3, 4)

    @pytest.mark.parametrize("n", [32, 100])
    @pytest.mark.parametrize("t", [1, 75, 255])
    def test_prefix_is_a_smaller_draw(self, t, n):
        # The first t blocks of a 256-block draw are, bit for bit, a t-block
        # draw from the same stream position; numpy's single-row (gemv)
        # path must not change the one-block draw.
        geo = build_geometry(7, 5, rng=10)
        f = covariance_factors(bs_covariances(geo, 0, n, np.deg2rad(10)))
        full = sample_channels(f, np.random.default_rng(11), blocks=256)
        part = sample_channels(f, np.random.default_rng(11), blocks=t)
        assert part.shape == (t, 7, 5, n)
        assert full[:t].tobytes() == part.tobytes()


class TestTrimmedFactors:
    # The leading zero columns that psd_factor leaves for the clamped
    # eigenvalues can be dropped from every draw without changing a bit.

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("path", SHIPPED)
    def test_shipped_zero_columns_lead(self, path, seed):
        factors = shipped_factors(path, seed)
        assert zero_columns_lead(factors)
        trimmed = trim_factors(factors)
        # Desk scale keeps 16 of 32 columns, full scale 31 of 100.
        assert trimmed.shape[-1] <= factors.shape[-1] // 2
        assert np.array_equal(trimmed, factors[..., -trimmed.shape[-1] :])
        assert trimmed.flags.c_contiguous

    def test_jammer_zero_columns_lead(self):
        a = steering_vector(16, 0.4)
        jammer = psd_factor(2.0 * np.outer(a, a.conj()))
        assert zero_columns_lead(jammer)
        assert trim_factors(jammer).shape == (16, 1)
        noise = psd_factor(make_noise_covariance(16, 0.3, (a, 2.0)))
        assert zero_columns_lead(noise)
        assert np.array_equal(trim_factors(noise), noise)

    @pytest.mark.parametrize("blocks", [256, 44, 1, None])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("path", SHIPPED)
    def test_trimmed_draw_same_bits(self, path, seed, blocks):
        # A one-block draw (blocks 1 or None) is the GEMM with a zero
        # second row, whose first row must not change either.
        factors = shipped_factors(path, seed)
        expected = sample_channels(factors, np.random.default_rng(seed), blocks=blocks)
        got = sample_channels(trim_factors(factors), np.random.default_rng(seed), blocks=blocks)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_consecutive_draws_are_one_draw(self):
        factors = trim_factors(shipped_factors(SHIPPED[0], 1))
        whole = sample_channels(factors, np.random.default_rng(3), blocks=256)
        rng = np.random.default_rng(3)
        parts = [sample_channels(factors, rng, blocks=size).copy() for size in (100, 155, 1)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
