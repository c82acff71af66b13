"""Deterministic random-stream derivation.

All randomness in the package flows through numpy Generators derived from
a single master seed with explicit integer keys, so that runs are
reproducible and independent of thread scheduling.  Samplers draw
block-major: the values of block 0 come first, then those of block 1,
and so on, each complex value as a (real, imaginary) pair.  So the first
t blocks of a b-block draw are, bit for bit, the t-block draw from the
same stream position, and a prefix of a larger batch is a smaller batch.

A stream may also be keyed by a batch index, so that what a batch draws
does not depend on what was drawn before it: the data phase of training
batch i draws its symbol phases and its noise from two streams keyed by
(master seed, run, stream id, i), and therefore depends only on the run
and i, at every tau_p; a shorter batch i draws a prefix of it.
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
    variance 1/2.  Each entry takes the next two normals of the stream as
    its real and imaginary part, in C order over `shape`, so the leading
    entries of a larger draw equal a smaller draw.
    """
    pairs = rng.standard_normal((*shape, 2))
    pairs *= np.sqrt(0.5)
    return pairs.view(complex).reshape(shape)
