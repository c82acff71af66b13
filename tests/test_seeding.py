"""Tests for the random-stream helpers."""

import numpy as np

from mimoce.seeding import complex_normal, derive_rng


def test_complex_normal_bitwise_matches_two_draw_formula():
    shape = (16, 7, 5, 8)
    z = complex_normal(derive_rng(3, 1), shape)
    twin = derive_rng(3, 1)
    a = twin.standard_normal(shape)
    b = twin.standard_normal(shape)
    expected = (a + 1j * b) * np.sqrt(0.5)
    assert z.dtype == np.complex128
    assert z.shape == shape
    assert np.array_equal(z.view(np.float64), expected.view(np.float64))
