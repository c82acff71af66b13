"""Deterministic random-stream derivation.

All randomness in the package flows through numpy Generators derived from
a single master seed with explicit integer keys, so that runs are
reproducible and independent of thread scheduling.  Samplers draw whole
batch shapes at once, so the values a stream yields depend on how the
consumer splits its draws: equal keys and equal draw shapes give equal
values, but a prefix of a larger batch is not a smaller batch.

A stream may also be keyed by a batch index, so that what a batch draws
does not depend on what was drawn before it: the data phase of training
batch i is keyed by (master seed, run, data stream id, i) and therefore
depends only on the run, i and the batch size, at every tau_p.
"""

from __future__ import annotations

import numpy as np


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return `seed` if it already is a Generator, else seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(*keys: int) -> np.random.Generator:
    """Independent Generator keyed by a tuple of non-negative integers.

    Distinct key tuples yield statistically independent streams; equal
    tuples yield identical streams.  Exception: SeedSequence pads short
    entropy with zeros, so short tuples that differ only by trailing
    zeros, such as (1, 8) and (1, 8, 0), give the same stream; keys of one
    kind must therefore have one length.
    """
    if any(k < 0 for k in keys):
        raise ValueError("stream keys must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence(keys))


def complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard circularly-symmetric complex normal samples.

    Unit variance per complex entry: real and imaginary parts each have
    variance 1/2.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(0.5)
    return z
