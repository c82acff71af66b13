"""Pilot sequences, pilot allocation and uplink signal synthesis.

Each coherence block carries tau_p pilot samples followed by tau_u data
samples.  UEs transmit one of tau_p orthogonal unit-modulus pilot
sequences during the pilot phase (chosen per block at random, or fixed
cyclically) and independent, uniformly drawn 256-PSK data symbols
afterwards.  The BS-side receive signal superimposes all UEs'
contributions plus spatially correlated noise.

The estimators see the data phase only through the sample covariance of
the received samples.  Its mean, E[y y^H] = sum_lk p_lk R_lk + R_nn, needs
of the independent symbols only |s| = 1 and E[s] = 0, and its spread also
E[s^2] = 0 and E|s|^4 = 1.  256-PSK has all four, as a phase drawn
uniformly from [0, 2 pi) has, so the statistics the estimators use do
not change; a table lookup costs far less than a cosine and a sine per
symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffers import fresh
from .seeding import complex_normal, ensure_rng

# Data symbols: the 256-PSK constellation exp(2 pi i k / 256), k = 0..255.
PSK_ORDER = 256
PSK_SYMBOLS = np.exp(2j * np.pi * np.arange(PSK_ORDER) / PSK_ORDER)


@dataclass
class PilotBook:
    """tau_p orthogonal unit-modulus pilot sequences, one per row.

    Row b satisfies s_b^H s_b = tau_p and s_b^H s_c = 0 for b != c.
    """

    tau_p: int
    sequences: np.ndarray  # (tau_p, tau_p)


def make_pilot_book(tau_p: int) -> PilotBook:
    """DFT pilot book: s_b(p) = exp(-2i pi b p / tau_p), 0-based b and p."""
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    b = np.arange(tau_p)
    sequences = np.exp(-2j * np.pi * np.outer(b, b) / tau_p)
    return PilotBook(tau_p=tau_p, sequences=sequences)


def allocate_pilots(
    blocks: int,
    cells: int,
    ues_per_cell: int,
    tau_p: int,
    mode: str = "random",
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw or assign pilot indices for every UE and block: a (T, L, K)
    integer array whose [t, l, k] is the pilot of UE (l, k) in block t.

    random: each UE independently picks one of the tau_p pilots uniformly
    in every block.  fixed_cyclic: constant over blocks; pilots are
    assigned cyclically by UE order within a cell, and the cycle continues
    across cells without restarting.
    """
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    if mode == "random":
        rng = ensure_rng(rng)
        indices = rng.integers(0, tau_p, size=(blocks, cells, ues_per_cell))
    elif mode == "fixed_cyclic":
        flat = np.arange(cells * ues_per_cell) % tau_p
        per_block = flat.reshape(cells, ues_per_cell)
        indices = np.broadcast_to(per_block, (blocks, cells, ues_per_cell)).copy()
    else:
        raise ValueError(f"unknown allocation mode: {mode!r}")
    return indices


def make_noise_covariance(
    n_antennas: int,
    noise_power: float,
    jammer: tuple[np.ndarray, float] | None = None,
) -> np.ndarray:
    """Spatial noise covariance sigma^2 I, plus rho a a^H for a jammer.

    `jammer` is an optional (steering_vector, power) pair modelling a
    localized interferer that correlates the noise across antennas.
    """
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    r = noise_power * np.eye(n_antennas, dtype=complex)
    if jammer is not None:
        a, rho = jammer
        if rho < 0:
            raise ValueError("jammer power must be non-negative")
        r = r + rho * np.outer(a, np.conj(a))
    return r


def _add_noise(
    rx: np.ndarray, noise_factor, rng: np.random.Generator, out: np.ndarray | None = None
) -> None:
    """Add noise F z to the samples rx (B, N, S) in place, z standard complex
    normal, F an (N, N) factor or a float s for s I; z is drawn into `out`
    when given."""
    z = complex_normal(rng, rx.shape, out=out)
    if np.ndim(noise_factor):
        rx += noise_factor @ z
        return
    # s z with real arithmetic: each (N, N) product s z_n + 0 z_m rounds to
    # s z_n, so the bits match the matrix path.
    parts = z.view(float)
    parts *= noise_factor
    rx += z


def simulate_blocks(
    channels: np.ndarray,
    pilot_indices: np.ndarray,
    pilot_book: PilotBook,
    powers: np.ndarray | None,
    noise_factor: np.ndarray,
    pilot_rng: np.random.Generator,
    tau_u: int,
    data_rng: np.random.Generator | None = None,
    data_noise_rng: np.random.Generator | None = None,
    *,
    buffers=fresh,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize received pilot- and data-phase signals for a batch of blocks.

    Parameters
    ----------
    channels : (B, L, K, N) ndarray
        Channel vectors from every UE to the BS, one set per block.
    pilot_indices : (B, L, K) integer ndarray
        Pilot chosen by each UE in each block.
    powers : (L, K) ndarray or None
        Per-UE transmit power, applied in both phases as the amplitude
        sqrt(power).  None: the channels already carry their amplitudes,
        as when a caller scales a batch once and receives it several
        times; the bits are those of passing the unscaled channels and
        the powers.
    noise_factor : (N, N) ndarray or float
        Square factor F with F F^H equal to the noise covariance; noise is
        drawn independently per sample.  A float s stands for F = s I
        (white noise of power s^2) and is added without the matrix product,
        with the same bits as passing s I.
    pilot_rng, data_rng, data_noise_rng : Generator
        Streams of the pilot-phase noise, the data symbols (uint32 indices
        into PSK_SYMBOLS) and the data-phase noise.  pilot_rx depends on
        pilot_rng only and data_rx on the data streams only, so a caller can
        redraw one phase without the other; passing one generator as all
        three draws in turn.
    tau_u : int
        Data samples per block; 0 skips the data phase, and the data
        streams are then not needed.
    buffers : callable, optional
        Source of the "pilot_rx", "pilot_noise", "symbols", "data_rx" and
        "data_noise" arrays, requested in that order (see `mimoce.buffers`);
        pilot_rx and data_rx are the arrays of those names, which may be
        strided views of a caller's storage.

    Returns
    -------
    (pilot_rx, data_rx) with shapes (B, N, tau_p) and (B, N, tau_u).  Every
    draw is block-major, so with three distinct generators the first t
    blocks of both are, bit for bit, what the first t channel blocks and
    pilot rows give from generators at the same positions, and a batch
    received in consecutive chunks, each chunk continuing the same three
    generators, gives the bits of the whole batch received at once.
    """
    b_blocks, cells, ues, n = channels.shape
    tau_p = pilot_book.tau_p
    if powers is None:
        weighted = channels.reshape(b_blocks, cells * ues, n)
    else:
        amp = np.sqrt(powers)[None, :, :, None]  # (1, L, K, 1)
        weighted = (channels * amp).reshape(b_blocks, cells * ues, n)
    weighted_t = weighted.transpose(0, 2, 1)  # (B, N, L*K)

    seq = pilot_book.sequences[pilot_indices.reshape(b_blocks, cells * ues)]
    pilot_rx = np.matmul(weighted_t, seq, out=buffers("pilot_rx", (b_blocks, n, tau_p)))
    _add_noise(pilot_rx, noise_factor, pilot_rng, buffers("pilot_noise", pilot_rx.shape))

    if tau_u > 0:
        if data_rng is None or data_noise_rng is None:
            raise ValueError("tau_u > 0 needs the data-phase generators")
        # uint32 draws take 32-bit halves of the generator's 64-bit output
        # and keep a spare half in the generator, so a batch drawn in chunks
        # holds the bits of one draw; uint8 and uint16 draws would not.
        # mode="wrap" lets take write into `out` directly, where "raise"
        # fills a temporary first.
        indices = data_rng.integers(
            0, PSK_ORDER, (b_blocks, cells * ues, tau_u), dtype=np.uint32
        )
        symbols = np.take(
            PSK_SYMBOLS, indices, out=buffers("symbols", indices.shape), mode="wrap"
        )
        data_rx = np.matmul(weighted_t, symbols, out=buffers("data_rx", (b_blocks, n, tau_u)))
        _add_noise(data_rx, noise_factor, data_noise_rng, buffers("data_noise", data_rx.shape))
    else:
        data_rx = np.zeros((b_blocks, n, 0), dtype=complex)
    return pilot_rx, data_rx


def despread_batch(
    pilot_rx: np.ndarray, pilot_book: PilotBook, b: np.ndarray
) -> np.ndarray:
    """Correlate each block's pilot-phase signal with conjugate pilots.

    pilot_rx has shape (B, N, tau_p) and b holds pilot indices of shape
    (B, ...): one index per block, or several, e.g. (B, K) for every
    center UE of the block.  Returns (B, ..., N) with entries
    sum_p pilot_rx[t, :, p] * conj(s_b[t, ...](p)), all from one matmul.
    A UE that transmitted pilot b at power p contributes
    sqrt(p) * tau_p * h, while UEs on orthogonal pilots cancel exactly.
    """
    b = np.asarray(b)
    seq = pilot_book.sequences[b.reshape(len(b), -1)]  # (B, M, tau_p)
    d = np.conj(seq) @ pilot_rx.transpose(0, 2, 1)  # (B, M, N), C-contiguous
    return d.reshape(*b.shape, pilot_rx.shape[1])
