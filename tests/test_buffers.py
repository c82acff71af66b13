"""Batch buffers: every function that takes them computes the same bits
with them as without, also when the memory holds an earlier batch; and
the sample-covariance sums, which take none, give the same bits for
the strided views that a receive buffer may be."""

import numpy as np
import pytest

from mimoce.airlink import make_noise_covariance, make_pilot_book, simulate_blocks
from mimoce.buffers import SLOTS, BatchBuffers, slot_bytes
from mimoce.channel import sample_channels, steering_vector
from mimoce.covest import AllCovAccumulator
from mimoce.linalg import psd_factor
from mimoce.seeding import complex_normal
from support import random_psd


def plain_sizes(blocks, links, antennas, tau_p, tau_u):
    """Slot sizes for a plain sample_channels, simulate_blocks sequence
    over `blocks` blocks, each array in its own slot's memory."""
    channels = max(blocks, 2) * links * antennas * 16
    pilot = blocks * antennas * tau_p * 16
    data = blocks * antennas * tau_u * 16
    return slot_bytes(
        {
            "normals": channels,
            "channels": channels,
            "pilot_rx": pilot,
            "pilot_noise": pilot,
            "phases": blocks * links * tau_u * 8,
            "symbols": blocks * links * tau_u * 16,
            "data_rx": data,
            "data_noise": data,
        }
    )


def poisoned(sizes):
    """A set of slots of `sizes` bytes that hold NaNs."""
    buffers = BatchBuffers(sizes)
    for name, slot in SLOTS.items():
        buffers(name, (sizes[slot] // 8,), float)[:] = np.nan
    return buffers


def bits(*arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


def factors(cells, ues, n, seed=0):
    rng = np.random.default_rng(seed)
    covs = [random_psd(rng, n, rank=2) for _ in range(cells * ues)]
    return psd_factor(np.stack(covs).reshape(cells, ues, n, n))


@pytest.mark.parametrize("shape", [(7,), (3, 4, 5)])
def test_complex_normal_fills_out(shape):
    expected = complex_normal(np.random.default_rng(1), shape)
    out = np.full(shape, np.nan, dtype=complex)
    got = complex_normal(np.random.default_rng(1), shape, out=out)
    assert np.shares_memory(got, out)
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("blocks", [None, 1, 2, 9])
def test_sample_channels_same_bits(blocks):
    # None and 1 take the one-block path, whose second GEMM row must be
    # zeroed again in memory that held other draws.
    f = factors(3, 2, 5)
    expected = sample_channels(f, np.random.default_rng(4), blocks=blocks)
    reused = BatchBuffers()
    sample_channels(factors(3, 2, 5, seed=1), np.random.default_rng(5), 9, buffers=reused)
    for buffers in (poisoned(plain_sizes(9, 6, 5, 1, 0)), reused):
        got = sample_channels(f, np.random.default_rng(4), blocks=blocks, buffers=buffers)
        assert bits(got) == bits(expected)


def simulate(channels, seed, noise_factor, tau_u, tau_p, buffers=None):
    blocks, cells, ues, _ = channels.shape
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, tau_p, size=(blocks, cells, ues))
    powers = rng.uniform(0.5, 2.0, size=(cells, ues))
    streams = [np.random.default_rng(seed + i) for i in (1, 2, 3)]
    kwargs = {} if buffers is None else {"buffers": buffers}
    return simulate_blocks(
        channels, indices, make_pilot_book(tau_p), powers, noise_factor, streams[0], tau_u,
        *streams[1:], **kwargs,
    )


@pytest.mark.parametrize(
    "cells, ues, n, tau_u, coloured",
    [
        (3, 2, 6, 0, False),
        (3, 2, 6, 7, False),
        (3, 2, 6, 7, True),
        (7, 5, 4, 7, False),  # L*K = 35 > 2N: the phases outgrow the data receive
    ],
    ids=["tau_u_0", "white", "coloured", "links_over_2n"],
)
def test_simulate_blocks_same_bits(cells, ues, n, tau_u, coloured):
    tau_p, blocks = 5, 9
    noise = 0.3**0.5
    if coloured:
        noise = psd_factor(make_noise_covariance(n, 0.3, (steering_vector(n, 0.4), 2.0)))
    f = factors(cells, ues, n)
    sizes = plain_sizes(blocks, cells * ues, n, tau_p, tau_u)
    for buffers in (poisoned(sizes), BatchBuffers()):
        # Two batches through the same memory, channels from it as well.
        for seed in (10, 20):
            h = sample_channels(f, np.random.default_rng(seed), blocks, buffers=buffers)
            expected = simulate(h.copy(), seed, noise, tau_u, tau_p)
            got = simulate(h, seed, noise, tau_u, tau_p, buffers)
            assert bits(*got) == bits(*expected)


@pytest.mark.parametrize("coloured", [False, True], ids=["white", "coloured"])
def test_chunks_into_strided_views_same_bits(coloured):
    # Channels scaled once by their amplitudes (powers None), received in
    # chunks that continue the same three generators, each chunk into views
    # of (N, B, S) storage: the bits of one call on the whole batch.
    cells, ues, n, tau_p, tau_u, blocks = 3, 2, 6, 5, 7, 9
    noise = 0.3**0.5
    if coloured:
        noise = psd_factor(make_noise_covariance(n, 0.3, (steering_vector(n, 0.4), 2.0)))
    h = sample_channels(factors(cells, ues, n), np.random.default_rng(1), blocks)
    rng = np.random.default_rng(2)
    indices = rng.integers(0, tau_p, size=(blocks, cells, ues))
    powers = rng.uniform(0.5, 2.0, size=(cells, ues))
    book = make_pilot_book(tau_p)

    def streams():
        return [np.random.default_rng(seed) for seed in (3, 4, 5)]

    pilot_rng, *data_rngs = streams()
    expected = simulate_blocks(h, indices, book, powers, noise, pilot_rng, tau_u, *data_rngs)
    scaled = h * np.sqrt(powers)[:, :, None]
    pilot = np.full((n, blocks, tau_p), np.nan, dtype=complex).transpose(1, 0, 2)
    data = np.full((n, blocks, tau_u), np.nan, dtype=complex).transpose(1, 0, 2)
    pilot_rng, *data_rngs = streams()
    slots = BatchBuffers()
    for chunk in (slice(0, 4), slice(4, 8), slice(8, 9)):
        views = {"pilot_rx": pilot[chunk], "data_rx": data[chunk]}

        def buffers(name, shape, dtype=complex):
            return views[name] if name in views else slots(name, shape, dtype)

        got = simulate_blocks(
            scaled[chunk], indices[chunk], book, None, noise, pilot_rng, tau_u, *data_rngs,
            buffers=buffers,
        )
        assert np.shares_memory(got[0], pilot) and np.shares_memory(got[1], data)
    assert bits(np.ascontiguousarray(pilot), np.ascontiguousarray(data)) == bits(*expected)


def test_data_phases_are_the_uniform_draw():
    # simulate_blocks scales random() by 2 pi in place of uniform(0, 2 pi).
    expected = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, size=(4, 35, 40))
    got = np.random.default_rng(3).random(size=(4, 35, 40))
    got *= 2.0 * np.pi
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("case", ["batch", "prefix", "matrix", "strided", "stored_prefix"])
def test_accumulator_add_same_bits(case):
    # Adding the same signals twice, contiguous or strided views like the
    # receive arrays, sums their blocks in fixed groups: the bits of one
    # add of the two copies stacked.
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
    signals = {
        "batch": samples,
        "prefix": samples[:2],
        "matrix": samples[0],
        "strided": samples.transpose(0, 2, 1)[:, :, ::2],  # (5, 3, 2), not contiguous
        # Stored (N, B, S): a prefix is not contiguous either.
        "stored_prefix": np.ascontiguousarray(samples.transpose(1, 0, 2)).transpose(1, 0, 2)[:2],
    }[case]
    blocks = signals if signals.ndim == 3 else signals[None]
    expected = AllCovAccumulator(signals.shape[-2])
    expected.add(np.concatenate([blocks, blocks]))
    acc = AllCovAccumulator(signals.shape[-2])
    acc.add(signals)
    acc.add(signals)
    assert bits(acc.estimate()) == bits(expected.estimate())


def test_a_slot_grows_without_touching_live_arrays():
    buffers = BatchBuffers(plain_sizes(2, 1, 2, 1, 1))
    small = buffers("pilot_noise", (2, 2, 1))
    small[:] = 1.0
    large = buffers("symbols", (50, 50))  # beyond the slot's size
    large[:] = 2.0
    assert not np.shares_memory(small, large)
    assert np.all(small == 1.0)

