"""Hot-path contractions against the einsum expressions they replace.

The matmul forms sum in a different order, so results agree to rounding
(relative 1e-12), not bitwise.  Each case draws its random inputs and any
random stream the function consumes from fixed seeds, so the reference
sees the same values.
"""

import numpy as np
import pytest

from mimoce.airlink import despread_batch, make_pilot_book, simulate_blocks
from mimoce.channel import sample_channels
from mimoce.seeding import complex_normal
from support import pilot_cov_of

RTOL = 1e-12
B, L, K, N, TAU_P = 9, 3, 4, 6, 5


def cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def simulate_blocks_reference(
    channels, pilot_indices, book, powers, noise_factor, rng, tau_u, data_rng=None,
    data_noise_rng=None,
):
    b_blocks, cells, ues, n = channels.shape
    weighted = (channels * np.sqrt(powers)[None, :, :, None]).reshape(b_blocks, cells * ues, n)
    seq = book.sequences[pilot_indices.reshape(b_blocks, cells * ues)]
    pilot_rx = np.einsum("bun,bup->bnp", weighted, seq)
    pilot_rx += np.einsum(
        "nm,bmp->bnp", noise_factor, complex_normal(rng, (b_blocks, n, book.tau_p))
    )
    if tau_u == 0:
        return pilot_rx, np.zeros((b_blocks, n, 0), dtype=complex)
    phases = data_rng.uniform(0.0, 2.0 * np.pi, size=(b_blocks, cells * ues, tau_u))
    data_rx = np.einsum("bun,but->bnt", weighted, np.exp(1j * phases))
    data_rx += np.einsum(
        "nm,bmt->bnt", noise_factor, complex_normal(data_noise_rng, (b_blocks, n, tau_u))
    )
    return pilot_rx, data_rx


def case_simulate_blocks(tau_u):
    def run(rng, impl):
        book = make_pilot_book(TAU_P)
        channels = cn(rng, B, L, K, N)
        indices = rng.integers(0, TAU_P, size=(B, L, K))
        powers = rng.uniform(0.5, 2.0, size=(L, K))
        noise_factor = cn(rng, N, N)
        fn = simulate_blocks if impl == "matmul" else simulate_blocks_reference
        return fn(
            channels, indices, book, powers, noise_factor, np.random.default_rng(5), tau_u,
            np.random.default_rng(6), np.random.default_rng(7),
        )

    return run


def case_sample_channels(rng, impl):
    factors = cn(rng, L, K, N, N)
    if impl == "matmul":
        return (sample_channels(factors, np.random.default_rng(5), blocks=B),)
    z = complex_normal(np.random.default_rng(5), (B, L, K, N))
    return (np.einsum("...nm,b...m->b...n", factors, z),)


def case_despread_batch(rng, impl):
    book = make_pilot_book(TAU_P)
    pilot_rx = cn(rng, B, N, TAU_P)
    b = rng.integers(0, TAU_P, size=B)
    if impl == "matmul":
        return (despread_batch(pilot_rx, book, b),)
    return (np.einsum("bnp,bp->bn", pilot_rx, np.conj(book.sequences[b])),)


def case_despread_batch_per_ue(rng, impl):
    book = make_pilot_book(TAU_P)
    pilot_rx = cn(rng, B, N, TAU_P)
    b = rng.integers(0, TAU_P, size=(B, K))
    if impl == "matmul":
        return (despread_batch(pilot_rx, book, b),)
    columns = [
        np.einsum("bnp,bp->bn", pilot_rx, np.conj(book.sequences[b[:, k]]))
        for k in range(K)
    ]
    return (np.stack(columns, axis=1),)


def case_estimate_pilot_cov(rng, impl):
    y = cn(rng, B, N)
    if impl == "matmul":
        return (pilot_cov_of(y, TAU_P),)
    raw = np.einsum("tn,tm->nm", y, y.conj())
    return (0.5 * (raw + raw.conj().T) / (B * TAU_P),)


@pytest.mark.parametrize(
    "case",
    [
        case_simulate_blocks(0),
        case_simulate_blocks(7),
        case_sample_channels,
        case_despread_batch,
        case_despread_batch_per_ue,
        case_estimate_pilot_cov,
    ],
    ids=[
        "simulate_blocks_tau_u_0",
        "simulate_blocks_tau_u_7",
        "sample_channels",
        "despread_batch",
        "despread_batch_per_ue",
        "estimate_pilot_cov",
    ],
)
def test_matches_einsum_reference(case):
    actual = case(np.random.default_rng(2024), "matmul")
    expected = case(np.random.default_rng(2024), "einsum")
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.shape == e.shape
        assert np.linalg.norm(a - e) <= RTOL * np.linalg.norm(e)
