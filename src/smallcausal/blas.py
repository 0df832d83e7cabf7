"""The OpenBLAS libraries loaded here: one BLAS thread per process, and
LAPACK's triangular solve from numpy's own OpenBLAS.

numpy loads its OpenBLAS (and scipy, where a caller imports it, another),
and each sizes its thread pool to the machine.  The fits here are small, so
a pool thread woken by a QR factorisation or a matrix product does little
work and then busy-waits beside the main thread: one process burns two
cores for one core of work, and ``simulate --workers`` processes crowd
each other out.
:func:`cap_blas_threads` sets every loaded OpenBLAS to one thread, so
parallelism comes only from ``--workers``.  The cap changed no output byte
in any run compared (see CHANGES.md).  :func:`scipy_dtrtrs` finds the
``dtrtrs`` of numpy's OpenBLAS for ``glm``'s triangular solves, so the
package needs no scipy at run time.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable

# (setter, getter) symbols of the OpenBLAS builds in numpy's wheels
# (64-bit integers, suffixed) and scipy's wheels (32-bit, unsuffixed)
OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)
# LAPACK's triangular solve as numpy's build exports it (64-bit integers)
SCIPY_DTRTRS = "scipy_dtrtrs_64_"


def _loaded_libraries() -> list[tuple[str, ctypes.CDLL]]:
    """(path, handle) of each OpenBLAS mapped into this process.

    Reads the process's memory map, so it finds libraries only on Linux.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split(maxsplit=5)[5].strip()
                for line in fh
                if "openblas" in line.rsplit("/", 1)[-1]
            }
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: dlopen returns its handle
        except OSError:  # e.g. a mapped file since deleted or replaced
            continue
        found.append((path, lib))
    return found


def loaded_openblas() -> list[tuple[str, Callable[[int], None], Callable[[], int]]]:
    """(path, set_threads, get_threads) of each known OpenBLAS loaded here.

    Finds libraries only on Linux; elsewhere, and for an OpenBLAS without a
    known setter, it finds none.
    """
    found = []
    for path, lib in _loaded_libraries():
        for setter, getter in OPENBLAS_SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.append((path, set_threads, get_threads))
                break
    return found


def scipy_dtrtrs() -> Callable[..., None] | None:
    """LAPACK's ``dtrtrs`` in numpy's OpenBLAS (Fortran arguments, 64-bit
    integers), or None where that library is not found.

    Importing numpy maps that library.  No argtypes are set: a
    caller passes ctypes objects, which ctypes hands on unconverted.  The
    call holds the GIL (a ``PyDLL`` function), so no two threads are ever
    inside it at once.
    """
    for path, lib in _loaded_libraries():
        if hasattr(lib, SCIPY_DTRTRS):
            dtrtrs = getattr(ctypes.PyDLL(path), SCIPY_DTRTRS)
            dtrtrs.restype = None
            return dtrtrs
    return None


def cap_blas_threads() -> list[dict] | None:
    """Set every loaded OpenBLAS to one thread.

    Returns, per library, its file name and its thread count before and
    after, or None when no known OpenBLAS is loaded (nothing is changed).
    Also the initializer of ``run_study``'s worker processes.
    """
    report = []
    for path, set_threads, get_threads in loaded_openblas():
        before = get_threads()
        set_threads(1)
        report.append(
            {
                "library": os.path.basename(path),
                "threads_before": before,
                "threads_after": get_threads(),
            }
        )
    return report or None
