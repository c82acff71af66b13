"""Scoped control of the BLAS thread pools numpy and scipy load.

numpy and scipy wheels each bundle an OpenBLAS build (libscipy_openblas64_
for numpy, libscipy_openblas for scipy) whose thread pool defaults to one
thread per core.  The simulator's matrices are small (N = 32..100), where
several BLAS threads per call cost more in hand-off than they save and
compete with the sweep's own worker threads for the same cores.

The thread count is process-wide state of each library, so it is read and
set through the libraries' own exported functions, found among the shared
objects mapped into this process.  Environment variables such as
OPENBLAS_NUM_THREADS only act if set before numpy is imported, and
threadpoolctl is not a dependency.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass(frozen=True)
class OpenBlasLibrary:
    """One loaded OpenBLAS build and its thread-count accessors."""

    name: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def openblas_libraries() -> list[OpenBlasLibrary]:
    """The scipy-openblas builds currently mapped into this process.

    Read from /proc/self/maps, so only libraries already loaded (by importing
    numpy and scipy.linalg) are found.  Returns an empty list where that
    file does not exist or no such library is loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "libscipy_openblas" in line}
            )
    except OSError:
        return []
    libraries = []
    for path in paths:
        name = Path(path).name
        # numpy's ILP64 build suffixes every exported symbol with 64_.
        suffix = "64_" if "openblas64_" in name else ""
        lib = ctypes.CDLL(path)
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        getter.argtypes = []
        getter.restype = ctypes.c_int
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        libraries.append(OpenBlasLibrary(name, getter, setter))
    return libraries


class _Pin:
    """Process-wide count of open single_threaded_blas() bodies.

    The thread counts it changes are process-wide, so its state is too:
    the first entry saves them and sets one thread, the last exit restores
    them, and bodies that overlap, nested or in other threads, run at one
    thread throughout.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved: list[tuple[OpenBlasLibrary, int]] = []

    def enter(self) -> None:
        with self.lock:
            if self.depth == 0:
                libraries = openblas_libraries()
                self.saved = [(lib, lib.get_num_threads()) for lib in libraries]
                for lib in libraries:
                    lib.set_num_threads(1)
            self.depth += 1

    def exit(self) -> None:
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                for lib, count in self.saved:
                    lib.set_num_threads(count)
                self.saved = []


_PIN = _Pin()


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS limited to one thread.

    The thread counts saved on the outermost entry are restored when the
    last open body exits, also when a body raises.  Safe to nest and to
    enter from several threads at once.  A no-op where no OpenBLAS is
    loaded.  The setting is process-wide: BLAS calls from other threads
    see it too.
    """
    _PIN.enter()
    try:
        yield
    finally:
        _PIN.exit()
