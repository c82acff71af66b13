"""Tests for the random-stream helpers."""

import numpy as np
import pytest

from mimoce.seeding import complex_normal, derive_rng


def test_complex_normal_bitwise_matches_interleaved_formula():
    # Each entry takes the next two normals of the stream as its real and
    # imaginary part, in C order over the shape.
    shape = (16, 7, 5, 8)
    z = complex_normal(derive_rng(3, 1), shape)
    pairs = derive_rng(3, 1).standard_normal((*shape, 2))
    expected = (pairs[..., 0] + 1j * pairs[..., 1]) * np.sqrt(0.5)
    assert z.dtype == np.complex128
    assert z.shape == shape
    assert np.array_equal(z.view(np.float64), expected.view(np.float64))


@pytest.mark.parametrize("t", [1, 75, 255])
def test_complex_normal_prefix_is_a_smaller_draw(t):
    shape = (7, 5, 8)
    full = complex_normal(derive_rng(3, 2), (256, *shape))
    part = complex_normal(derive_rng(3, 2), (t, *shape))
    assert full[:t].tobytes() == part.tobytes()
