"""Multicell geometry, spatial covariance model and channel realizations.

A hexagonal network of base stations with uniform linear arrays serves
single-antenna terminals placed on a ring around each BS.  Each BS-to-UE
link has a low-rank spatial covariance matrix generated by the local
scattering model (multipath arriving uniformly from a narrow angular
interval around the nominal angle), and per-block channel vectors are
correlated Rayleigh fading draws from those covariances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .buffers import fresh
from .linalg import psd_factor
from .seeding import complex_normal, ensure_rng


class UnsupportedLayout(ValueError):
    """Raised for cell counts other than 1 (isolated) or 7 (center + ring)."""


class InvalidSpread(ValueError):
    """Raised for an angular half-spread outside (0, pi/2)."""


@dataclass
class NetworkGeometry:
    """BS/UE positions and the derived large-scale link parameters.

    Attributes
    ----------
    cells : int
        Number of cells L.
    cell_radius : float
        Center-to-vertex hexagon radius in meters.
    bs_positions : (L, 2) ndarray
        BS coordinates, center cell at the origin.
    ue_positions : (L, K, 2) ndarray
        UE coordinates; UEs of cell l sit on a ring around BS l.
    nominal_angles : (L, L, K) ndarray
        nominal_angles[j, l, k] is the azimuth from BS j to UE (l, k).
    link_gains : (L, L, K) ndarray
        Large-scale channel gain of each BS-to-UE link, normalized so a
        serving link (UE on its own BS's ring) has gain 1.
    """

    cells: int
    cell_radius: float
    bs_positions: np.ndarray
    ue_positions: np.ndarray
    nominal_angles: np.ndarray
    link_gains: np.ndarray


def build_geometry(
    cells: int,
    ues_per_cell: int,
    cell_radius: float = 250.0,
    ring_radius: float = 140.0,
    pathloss_exponent: float = 3.76,
    rng: int | np.random.Generator | None = None,
) -> NetworkGeometry:
    """Place BSs on a hexagonal lattice and UEs on rings around them.

    Supports an isolated cell (cells=1) or a center cell with one full
    ring of neighbors (cells=7); adjacent BSs are sqrt(3)*cell_radius
    apart.  UEs are equally spaced in angle on the ring, with a seeded
    random rotation per cell.  Link gains follow the power law
    (distance / ring_radius)^(-pathloss_exponent), so serving links have
    gain exactly 1.
    """
    if cells not in (1, 7):
        raise UnsupportedLayout(f"cells must be 1 or 7, got {cells}")
    if ues_per_cell < 1:
        raise ValueError("ues_per_cell must be >= 1")
    rng = ensure_rng(rng)

    bs = np.zeros((cells, 2))
    if cells == 7:
        ring_angles = np.deg2rad(60.0 * np.arange(6))
        spacing = np.sqrt(3.0) * cell_radius
        bs[1:, 0] = spacing * np.cos(ring_angles)
        bs[1:, 1] = spacing * np.sin(ring_angles)

    ue = np.zeros((cells, ues_per_cell, 2))
    for cell in range(cells):
        rotation = rng.uniform(0.0, 2.0 * np.pi)
        angles = rotation + 2.0 * np.pi * np.arange(ues_per_cell) / ues_per_cell
        ue[cell, :, 0] = bs[cell, 0] + ring_radius * np.cos(angles)
        ue[cell, :, 1] = bs[cell, 1] + ring_radius * np.sin(angles)

    delta = ue[None, :, :, :] - bs[:, None, None, :]  # (L, L, K, 2)
    distances = np.hypot(delta[..., 0], delta[..., 1])
    nominal_angles = np.arctan2(delta[..., 1], delta[..., 0])
    link_gains = (distances / ring_radius) ** (-pathloss_exponent)

    return NetworkGeometry(
        cells=cells,
        cell_radius=cell_radius,
        bs_positions=bs,
        ue_positions=ue,
        nominal_angles=nominal_angles,
        link_gains=link_gains,
    )


def steering_vector(n_antennas: int, angle) -> np.ndarray:
    """ULA response to a plane wave from `angle`, half-wavelength spacing.

    Broadcasts over an array of angles: shape (..., N).
    """
    m = np.arange(n_antennas)
    return np.exp(1j * np.pi * m * np.sin(np.asarray(angle))[..., None])


# Gauss-Legendre nodes of the local scattering quadrature.
QUAD_POINTS = 200


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def local_scattering_covariance(
    n_antennas: int,
    nominal_angle,
    half_spread: float,
    gain=1.0,
) -> np.ndarray:
    """Spatial covariance of a ULA link under the local scattering model.

    Multipath arrives uniformly from [nominal_angle - half_spread,
    nominal_angle + half_spread], giving entries

        R[m, n] = gain * mean over the interval of exp(i pi (m - n) sin t)

    evaluated by QUAD_POINTS-point Gauss-Legendre quadrature.  The matrix
    is Hermitian Toeplitz and PSD, with all diagonal entries equal to
    `gain`.  nominal_angle and gain broadcast against each other; arrays of
    shape S give covariances of shape (*S, N, N), one per link.

    Raises
    ------
    InvalidSpread
        If half_spread is not in (0, pi/2).
    """
    gain = np.asarray(gain)[..., None, None]
    if np.any(gain <= 0):
        raise ValueError("gain must be positive")
    if half_spread <= 0:
        raise InvalidSpread("half_spread must be positive")
    if half_spread >= np.pi / 2:
        raise InvalidSpread("half_spread must be below pi/2")

    nodes, weights = _gauss_legendre(QUAD_POINTS)
    theta = np.asarray(nominal_angle)[..., None] + half_spread * nodes  # (..., Q)
    lags = np.arange(n_antennas)
    # First columns of the Toeplitz matrices: entries for m - n = 0 .. N-1.
    # weights sum to 2, so weights/2 realizes the 1/(2*half_spread) average.
    phase = lags[:, None] * np.sin(theta)[..., None, :]  # (..., N, Q)
    # Exponentiated in place: the same bits as np.exp(1j * np.pi * phase),
    # with one (..., N, Q) complex temporary instead of two.
    z = 1j * np.pi * phase
    column = np.exp(z, out=z) @ (weights / 2.0)
    # As scipy.linalg.toeplitz(column): column[0] on the diagonal, column
    # below it and its conjugate above it, gathered by lag m - n.
    values = np.concatenate([column[..., 1:].conj()[..., ::-1], column], axis=-1)
    return gain * values[..., n_antennas - 1 + lags[:, None] - lags[None, :]]


def bs_covariances(
    geometry: NetworkGeometry, bs: int, n_antennas: int, half_spread: float
) -> np.ndarray:
    """Covariances of every UE's channel toward one BS, shape (L, K, N, N)."""
    return local_scattering_covariance(
        n_antennas,
        geometry.nominal_angles[bs],
        half_spread,
        gain=geometry.link_gains[bs],
    )


def covariance_factors(covariances: np.ndarray) -> np.ndarray:
    """Square factors F with F F^H = R for a stack of PSD matrices.

    Accepts shape (..., N, N) and returns (..., N, N).  Negative
    eigenvalues from quadrature noise are clamped to zero, and the columns
    of the eigenvalues so clamped are zero and come first, so a rank-r
    covariance has a factor whose first N - r columns are zero (see
    `trim_factors`).
    """
    return psd_factor(covariances)


def trim_factors(factors: np.ndarray) -> np.ndarray:
    """The factors (..., N, N) without the leading columns that are zero in
    every one of them: a contiguous (..., N, r) copy of their last r
    columns, which `sample_channels` takes in place of the square ones:
    it then draws r normals per link, not N."""
    nonzero = np.flatnonzero(np.any(factors != 0, axis=(*range(factors.ndim - 2), -2)))
    first = nonzero[0] if len(nonzero) else factors.shape[-1]
    return np.ascontiguousarray(factors[..., first:])


def sample_channels(
    factors: np.ndarray,
    rng: int | np.random.Generator | None = None,
    blocks: int | None = None,
    *,
    buffers=fresh,
) -> np.ndarray:
    """Correlated Rayleigh fading draws h = F z with z ~ CN(0, I).

    Parameters
    ----------
    factors : (..., N, r) ndarray
        Precomputed covariance factors, one per link, independent draws
        per link and per block: the square factors of covariance_factors
        (r = N), or the last r columns of them when the others are zero
        (trim_factors).  r normals are drawn per link, so trimmed factors
        draw fewer than square ones, and the two give different draws of
        the same distribution.
    blocks : int, optional
        If given, a leading block axis of that length is added.
    buffers : callable, optional
        Source of the "normals" and "channels" arrays (see
        `mimoce.buffers`); the result is a view of the "channels" one.

    Returns
    -------
    (..., N) or (blocks, ..., N) ndarray of channel vectors, C-contiguous
    (block-major).  Draws are block-major too, the (blocks, ..., r) normals
    in C order: the first t blocks of a draw equal, bit for bit, a t-block
    draw from a generator at the same position, and consecutive draws from
    one generator, of t and then u blocks, are the two parts of one
    (t + u)-block draw.
    """
    rng = ensure_rng(rng)
    factors = np.asarray(factors, dtype=complex)
    lead = factors.shape[:-2]
    n, r = factors.shape[-2:]
    squeeze = blocks is None
    b = 1 if blocks is None else blocks
    # numpy hands a single row to gemv, which rounds unlike gemm; with a
    # zero second row one block stays the first block of a larger draw.
    rows = max(b, 2)
    z = buffers("normals", (rows, *lead, r))
    complex_normal(rng, (b, *lead, r), out=z[:b])
    z[b:] = 0
    # h^T = z^T F^T: one GEMM per link over all blocks, which reads z in
    # place and writes each channel vector into its block.
    h = buffers("channels", (rows, *lead, n))
    np.matmul(
        np.moveaxis(z, 0, -2),
        np.swapaxes(factors, -1, -2),
        out=np.moveaxis(h, 0, -2),
    )
    return h[0] if squeeze else h[:b]


def dominant_eigenvalue_count(matrix: np.ndarray, rel_threshold: float = 0.01) -> int:
    """Number of eigenvalues above `rel_threshold` times the largest."""
    eigenvalues = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    return int((eigenvalues > rel_threshold * eigenvalues[-1]).sum())
