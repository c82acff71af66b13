"""Dense complex Hermitian linear algebra.

Provides Cholesky factorization with a scale-aware definiteness check,
Hermitian solves, PSD square factors, relative diagonal loading (these
four also on stacks (..., N, N), matrix by matrix), the one loading
retry that callers report as a fallback (`retry_loaded`), and the
generalized eigenvalue decomposition (GEVD) of a Hermitian-definite matrix
pencil {A, B}.  The GEVD is LAPACK's Hermitian-definite solver (zhegvd,
through scipy.linalg.eigh), which normalizes X^H B X = I; the pencil is
first screened with `cholesky` so that a numerically singular B raises
NotPositiveDefinite.  All routines operate on plain complex ndarrays and
are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NotPositiveDefinite(np.linalg.LinAlgError):
    """Raised when a matrix required to be positive definite is not.

    Signals that the caller must regularize (e.g. diagonal loading) before
    retrying.
    """


# Relative diagonal loading applied once when a matrix that must be
# positive definite fails its Cholesky factorization.
FALLBACK_LOADING = 1e-3


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^H) / 2."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


@dataclass
class GevdResult:
    """Generalized eigenvalue decomposition of a pencil {A, B}.

    Attributes
    ----------
    eigenvalues : (n,) real ndarray
        Generalized eigenvalues sorted from large to small.
    X : (n, n) complex ndarray
        Generalized eigenvectors in the columns, normalized so that
        X^H B X = I and X^H A X = diag(eigenvalues).
    Q : (n, n) complex ndarray
        Q = X^{-H}, so that A = Q diag(eigenvalues) Q^H and B = Q Q^H.
    """

    eigenvalues: np.ndarray
    X: np.ndarray
    Q: np.ndarray


def cholesky(h: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^H = h for Hermitian positive definite h.

    Accepts one matrix (N, N) or a stack (..., N, N); a stack is factored
    matrix by matrix.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is non-positive or falls below the scale-aware
        threshold dim * eps * max(diag(h)), taken per matrix.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[-1]
    try:
        lower = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    # np.linalg.cholesky only rejects pivots <= 0; additionally reject
    # pivots that are numerically indistinguishable from zero at the
    # matrix's own scale.
    diagonal = np.abs(np.diagonal(h, axis1=-2, axis2=-1))
    pivot_floor = n * np.finfo(float).eps * diagonal.max(axis=-1)
    pivots = (np.diagonal(lower, axis1=-2, axis2=-1).real ** 2).min(axis=-1)
    below = pivots <= pivot_floor
    if np.any(below):
        i = np.argmax(below)
        raise NotPositiveDefinite(
            f"pivot {pivots.flat[i]:.3e} below tolerance {pivot_floor.flat[i]:.3e}"
        )
    return lower


def load_diagonal(m: np.ndarray, factor: float) -> np.ndarray:
    """Return m + factor * tr(m) / n * I: loading relative to the mean diagonal.

    A stack (..., N, N) loads each matrix by its own trace.
    """
    n = m.shape[-1]
    loading = factor * np.trace(m, axis1=-2, axis2=-1).real / n
    return m + loading[..., None, None] * np.eye(n)


def retry_loaded(solve, m: np.ndarray):
    """(solve(m), False), or, if m fails as not positive definite,
    (solve(m loaded by FALLBACK_LOADING), True); a second failure raises.

    The one loading retry every caller reports as a fallback.
    """
    try:
        return solve(m), False
    except NotPositiveDefinite:
        return solve(load_diagonal(m, FALLBACK_LOADING)), True


def gevd(a: np.ndarray, b: np.ndarray) -> GevdResult:
    """Generalized eigenvalue decomposition of the pencil {a, b}.

    Solves a x = sigma b x for Hermitian a and Hermitian positive definite
    b with LAPACK, which returns X normalized to X^H b X = I; then
    b X = X^{-H}, so Q = b X.  Eigenvalues are returned in descending order.

    Raises
    ------
    NotPositiveDefinite
        If b fails `cholesky`, whose pivot floor is stricter than LAPACK's.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cholesky(b)
    w, x = scipy.linalg.eigh(a, b)
    x = x[:, ::-1]
    return GevdResult(eigenvalues=w[::-1], X=x, Q=b @ x)


def solve_hermitian(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Solve h x = m for Hermitian positive definite h via Cholesky.

    h may be a stack (..., N, N); m then broadcasts against it, and the
    stack is solved matrix by matrix.
    """
    lower = cholesky(h)
    return scipy.linalg.cho_solve((lower, True), np.asarray(m, dtype=complex))


def psd_factor(r: np.ndarray) -> np.ndarray:
    """Square factors F with F F^H = r for Hermitian PSD matrices (..., N, N).

    Eigenvalues within machine noise of zero (including the tiny negatives
    produced by quadrature or accumulation error) are clamped to exactly
    zero, so low-rank inputs yield genuinely low-rank factors.  The noise
    level is taken per matrix from its own largest eigenvalue.
    """
    r = np.asarray(r, dtype=complex)
    w, v = np.linalg.eigh(r)
    floor = r.shape[-1] * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    w = np.where(w > floor, w, 0.0)
    return v * np.sqrt(w)[..., None, :]
