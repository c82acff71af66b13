"""Deterministic random-stream derivation.

All randomness in the package flows through numpy Generators derived from
a single master seed with explicit integer keys, so that runs are
reproducible and independent of thread scheduling.  The sweep harness
uses one layout: every value is drawn from a fresh
derive_rng(master seed, run, stream id, batch).  Batch i of a batched
stream draws from key i, and whole-run draws take batch 0, so no
Generator outlives the batch it draws and what a batch holds depends on
its key alone, never on what was drawn before it.

Samplers draw block-major: the values of block 0 come first, then those
of block 1, and so on, each complex value as a (real, imaginary) pair.
So the first t blocks of a b-block draw are, bit for bit, the t-block
draw from the same key, and a prefix of a larger batch is a smaller
batch.
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
    entropy with zeros, so short tuples of keys below 2**32 that differ
    only by trailing zeros, such as (1, 8) and (1, 8, 0), give the same
    stream; keys of one kind must therefore have one length.
    """
    if any(k < 0 for k in keys):
        raise ValueError("stream keys must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence(keys))


def complex_normal(
    rng: np.random.Generator, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """I.i.d. standard circularly-symmetric complex normal samples.

    Unit variance per complex entry: real and imaginary parts each have
    variance 1/2.  Each entry takes the next two normals of the stream as
    its real and imaginary part, in C order over `shape`, so the leading
    entries of a larger draw equal a smaller draw.  `out`, a C-contiguous
    complex array of `shape`, receives the same bits in place of a new
    array.
    """
    if out is None:
        pairs = rng.standard_normal((*shape, 2))
    else:
        pairs = rng.standard_normal(out=out.view(float).reshape(*shape, 2))
    pairs *= np.sqrt(0.5)
    return pairs.view(complex).reshape(shape)
