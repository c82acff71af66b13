"""Tests for the complex Hermitian linear algebra kernels."""

import numpy as np
import pytest

from mimoce.linalg import (
    FALLBACK_LOADING,
    GevdResult,
    NotPositiveDefinite,
    cholesky,
    gevd,
    hermitize,
    load_diagonal,
    psd_factor,
    retry_loaded,
    solve_hermitian,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(g)


def random_hpd(rng, n, cond_offset=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T / n + cond_offset * np.eye(n)


def rel_err(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(4, dtype=complex)), np.eye(4))

    def test_diagonal(self):
        lower = cholesky(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(lower, np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        h = random_hpd(rng, 12)
        lower = cholesky(h)
        assert rel_err(lower @ lower.conj().T, h) <= 1e-12
        assert np.allclose(np.tril(lower), lower)
        assert np.all(np.diag(lower).real > 0)
        assert np.allclose(np.diag(lower).imag, 0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, -1.0]).astype(complex))

    def test_rejects_semidefinite(self):
        a = np.ones(3) / np.sqrt(3)
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.outer(a, a).astype(complex))

    def test_stack_floor_is_per_matrix(self):
        # A 1e-15-scale matrix is positive definite at its own scale, even
        # next to an O(1) matrix whose floor it would fail.
        rng = np.random.default_rng(15)
        big = random_hpd(rng, 4)
        tiny = 1e-15 * random_hpd(rng, 4)
        lower = cholesky(np.stack([big, tiny]))
        assert np.array_equal(lower[0], cholesky(big))
        assert np.array_equal(lower[1], cholesky(tiny))

    def test_stack_rejects_one_matrix_below_its_floor(self):
        # LAPACK factorizes every matrix here; the second one's pivot lies
        # below its own floor.
        stack = np.stack([np.eye(3), np.diag([1.0, 1e-17, 1.0])]).astype(complex)
        with pytest.raises(NotPositiveDefinite):
            cholesky(stack)


class TestGevd:
    def check_invariants(self, a, b, res: GevdResult, tol=1e-9):
        n = a.shape[0]
        sigma = np.diag(res.eigenvalues)
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)
        assert rel_err(res.Q @ sigma @ res.Q.conj().T, a) <= tol
        assert rel_err(res.Q @ res.Q.conj().T, b) <= tol
        assert np.linalg.norm(res.X.conj().T @ b @ res.X - np.eye(n)) <= tol * n
        assert (
            np.linalg.norm(res.X.conj().T @ a @ res.X - sigma)
            <= tol * max(np.linalg.norm(sigma), 1.0)
        )

    def test_identity_pencil(self):
        n = 6
        res = gevd(np.eye(n, dtype=complex), np.eye(n, dtype=complex))
        assert np.allclose(res.eigenvalues, 1.0)
        assert np.allclose(res.Q @ res.Q.conj().T, np.eye(n))

    def test_identity_b_reduces_to_eig(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 9)
        res = gevd(a, np.eye(9, dtype=complex))
        assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(a)[::-1], atol=1e-10)

    def test_rank_structured_pencil(self):
        # a = b + w w^H forces all eigenvalues >= 1 with exactly
        # rank(w) of them strictly above 1.
        rng = np.random.default_rng(4)
        n, r = 12, 3
        b = random_hpd(rng, n)
        w = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        a = b + w @ w.conj().T
        res = gevd(a, b)
        assert np.all(res.eigenvalues >= 1.0 - 1e-9)
        assert int((res.eigenvalues > 1.0 + 1e-6).sum()) == r
        self.check_invariants(a, b, res)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(8)
        n = 10
        a = random_hermitian(rng, n)
        b = random_hpd(rng, n)
        base = gevd(a, b).eigenvalues
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t += 3 * np.eye(n)  # keep it safely invertible
        mapped = gevd(hermitize(t @ a @ t.conj().T), hermitize(t @ b @ t.conj().T))
        assert rel_err(mapped.eigenvalues, base) <= 1e-8

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            gevd(np.eye(3, dtype=complex), np.diag([1.0, 0.0, 1.0]).astype(complex))

    def test_rejects_b_below_pivot_floor(self):
        # LAPACK factorizes this b (its pivot is positive), but the pivot
        # lies below the scale-aware floor of `cholesky`.
        with pytest.raises(NotPositiveDefinite):
            gevd(np.eye(3, dtype=complex), np.diag([1.0, 1e-17, 1.0]).astype(complex))

    @pytest.mark.parametrize("n", [4, 16, 33])
    def test_random_pencils(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            a = random_hermitian(rng, n)
            b = random_hpd(rng, n)
            self.check_invariants(a, b, gevd(a, b))


class TestSolveHermitian:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        assert np.allclose(solve_hermitian(np.eye(5, dtype=complex), m), m)

    def test_diagonal(self):
        h = np.diag([2.0, 4.0]).astype(complex)
        m = np.array([[2.0], [4.0]], dtype=complex)
        assert np.allclose(solve_hermitian(h, m), np.ones((2, 1)))

    def test_residual(self):
        rng = np.random.default_rng(9)
        h = random_hpd(rng, 14)
        m = rng.standard_normal((14, 6)) + 1j * rng.standard_normal((14, 6))
        x = solve_hermitian(h, m)
        assert np.linalg.norm(h @ x - m) <= 1e-10 * np.linalg.norm(m)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(10)
        h = np.stack([random_hpd(rng, 5), 1e-15 * random_hpd(rng, 5), random_hpd(rng, 5)])
        m = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        x = solve_hermitian(h, m)
        assert x.shape == (3, 5, 5)
        for k in range(3):
            assert np.array_equal(x[k], solve_hermitian(h[k], m[k]))

    def test_stack_rejects_one_matrix_below_its_floor(self):
        h = np.stack([np.eye(3), np.diag([1.0, 1e-17, 1.0])]).astype(complex)
        with pytest.raises(NotPositiveDefinite):
            solve_hermitian(h, np.ones((2, 3, 1), dtype=complex))


class TestPsdFactor:
    def test_factor_reconstructs(self):
        rng = np.random.default_rng(12)
        h = random_hpd(rng, 7, cond_offset=0.0)
        f = psd_factor(h)
        assert rel_err(f @ f.conj().T, h) <= 1e-12

    def test_clamps_small_negatives(self):
        h = np.diag([1.0, -1e-14]).astype(complex)
        f = psd_factor(h)
        assert np.all(np.isfinite(f))
        assert rel_err(f @ f.conj().T, np.diag([1.0, 0.0])) <= 1e-12

    def test_stack_matches_per_matrix(self):
        # The clamp floor is per matrix: a tiny-scale matrix next to a large
        # one keeps its own spectrum.
        rng = np.random.default_rng(13)
        stack = np.stack(
            [
                random_hpd(rng, 5),
                1e-15 * np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex),
                np.diag([2.0, -1e-15, 0.0, 1.0, 3.0]).astype(complex),
                np.zeros((5, 5), dtype=complex),
            ]
        ).reshape(2, 2, 5, 5)
        factors = psd_factor(stack)
        assert factors.shape == stack.shape
        for index in np.ndindex(2, 2):
            assert np.array_equal(factors[index], psd_factor(stack[index]))


class TestLoadDiagonal:
    def test_relative_to_mean_diagonal(self):
        m = np.array([[2.0, 1.0j], [-1.0j, 4.0]])
        assert np.allclose(load_diagonal(m, 0.5), m + 1.5 * np.eye(2))

    def test_zero_factor_is_identity(self):
        rng = np.random.default_rng(14)
        m = random_hpd(rng, 4)
        assert np.array_equal(load_diagonal(m, 0.0), m)

    def test_stack_loads_each_matrix_by_its_own_trace(self):
        m = np.stack(
            [np.array([[2.0, 1.0j], [-1.0j, 4.0]]), np.diag([10.0, 30.0]).astype(complex)]
        )
        loaded = load_diagonal(m, 0.5)
        assert np.allclose(loaded[0], m[0] + 1.5 * np.eye(2))
        assert np.allclose(loaded[1], m[1] + 10.0 * np.eye(2))
        for k in range(2):
            assert np.array_equal(loaded[k], load_diagonal(m[k], 0.5))


class TestRetryLoaded:
    def test_definite_matrix_is_solved_as_is(self):
        m = random_hpd(np.random.default_rng(15), 4)
        result, loaded = retry_loaded(cholesky, m)
        assert not loaded
        assert np.array_equal(result, cholesky(m))

    def test_singular_matrix_is_loaded_once(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        seen = []

        def solve(matrix):
            seen.append(matrix)
            return cholesky(matrix)

        result, loaded = retry_loaded(solve, m)
        assert loaded
        assert len(seen) == 2
        assert np.array_equal(seen[1], load_diagonal(m, FALLBACK_LOADING))
        assert np.array_equal(result, cholesky(seen[1]))

    def test_second_failure_raises(self):
        def never(matrix):
            raise NotPositiveDefinite("still singular")

        with pytest.raises(NotPositiveDefinite):
            retry_loaded(never, np.eye(2, dtype=complex))
