"""Memory for the large arrays of one batch, reused from batch to batch.

The functions that build a batch's large arrays (`channel.sample_channels`,
`airlink.simulate_blocks`) take an optional `buffers` keyword: a callable
buffers(name, shape, dtype=complex) that returns an array of that shape
and dtype for the function to overwrite, the array being named by its
role; it is C-contiguous, except that the receive arrays "pilot_rx" and
"data_rx" may be strided views.  Without it every array is a fresh one
(`fresh`), so a plain call allocates as it always did.  The bits a
function computes do not depend on where its arrays live.

A `BatchBuffers` serves those requests from four slots of memory that it
keeps and reuses, so a thread that receives batch after batch stops
handing the same pages back to the allocator and faulting them in again.
Names share a slot when no caller needs their arrays at the same time
(`SLOTS`): a request may return the memory of the array last requested
under any name of its slot.  That holds for a plain sample_channels,
simulate_blocks sequence, and for the order in which the sweep harness
receives a batch: in chunks of blocks, each chunk's channels drawn once
and received under every pilot allocation, each receive's samples added
to the batch's sample-covariance sums before the next receive.  No array
holds more than a chunk of blocks, and a chunk's channels take at most
CHUNK_BYTES.  A set's slots are made at the sizes `slot_bytes` gives, the
largest array of each slot's names, so a thread's first batch does not
fault in memory that it then drops for a larger array; a request beyond
that size grows the slot.  An array a caller keeps is copied out of its
slot first.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Bytes of the channels of one chunk of blocks.
CHUNK_BYTES = 3 << 20

# Slot of each array name.  Slot 0 holds a chunk's channel normals, then
# each receive's pilot noise, data symbols and data noise; the symbol
# phases leave slot 2 before the data receive matmul writes it; slot 3
# holds the pilot receive.
SLOTS = {
    "normals": 0,
    "pilot_noise": 0,
    "symbols": 0,
    "data_noise": 0,
    "channels": 1,
    "phases": 2,
    "data_rx": 2,
    "pilot_rx": 3,
}
_SLOT_COUNT = max(SLOTS.values()) + 1


def slot_bytes(largest: dict[str, int]) -> list[int]:
    """Bytes of each slot: the largest of the bytes that `largest` gives
    for its names, 0 for a slot none of whose names it gives."""
    sizes = [0] * _SLOT_COUNT
    for name, nbytes in largest.items():
        sizes[SLOTS[name]] = max(sizes[SLOTS[name]], nbytes)
    return sizes


def fresh(name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """A new uninitialised array: the default of every `buffers` keyword."""
    return np.empty(shape, dtype)


class BatchBuffers:
    """One thread's slots, of `sizes` bytes to start with (empty without
    them); calling it serves a `buffers` request."""

    def __init__(self, sizes: list[int] | None = None):
        sizes = sizes or [0] * _SLOT_COUNT
        # One allocation for all slots, each starting on a 64-byte boundary,
        # so that a set freed at the end of a sweep is one block of memory
        # that the next sweep's set can reuse whole.
        padded = [-(-nbytes // 64) * 64 for nbytes in sizes]
        arena = np.empty(sum(padded), np.uint8)
        starts = np.cumsum([0, *padded])
        self._slots = [arena[start : start + nbytes] for start, nbytes in zip(starts, sizes)]

    def __call__(self, name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        slot = SLOTS[name]
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if self._slots[slot].nbytes < nbytes:
            self._slots[slot] = np.empty(nbytes, np.uint8)
        return self._slots[slot][:nbytes].view(dtype).reshape(shape)


class ThreadBuffers:
    """One `BatchBuffers` of slots of `sizes` bytes per thread that asks for
    one, made on its first request.  A thread's set is freed when the
    thread ends or when this object is."""

    def __init__(self, sizes: list[int] | None = None):
        self.sizes = sizes
        self._local = threading.local()

    def get(self) -> BatchBuffers:
        """The calling thread's set."""
        try:
            return self._local.batch
        except AttributeError:
            self._local.batch = BatchBuffers(self.sizes)
            return self._local.batch
