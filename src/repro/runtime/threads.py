"""How many cores this process may use, and how many BLAS threads it runs.

OpenBLAS runs one thread per core, and its idle threads spin for about
0.1 s after each call.  A forked worker inherits that count, so N
workers on N cores run N² BLAS threads that busy-wait against each
other.  The process supervisor core (:mod:`repro.runtime.supervisor`)
therefore computes :func:`worker_blas_share` once and has each child
apply it with :func:`set_blas_threads` before it does any work.  In a
forked child that call starts OpenBLAS's thread server, whose idle
threads spin once; with one thread nothing wakes them again.

The thread count is read and set through the OpenBLAS that NumPy itself
loaded: ``dlsym`` on NumPy's ``_multiarray_umath`` extension also searches
the libraries it links against.  Where no OpenBLAS symbol resolves (MKL,
Accelerate, Windows) the functions report ``None``/``False`` and change
nothing.
"""

from __future__ import annotations

import os
from functools import cache

from .logging import get_logger

__all__ = ["blas_threads", "set_blas_threads", "usable_cores", "worker_blas_share"]

_log = get_logger("runtime.threads")

#: ``(get, set)`` symbol pairs, tried in order: NumPy >= 2 wheels bundle
#: a prefixed ILP64 scipy-openblas; other builds export the plain names.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


@cache
def _openblas():
    """NumPy's OpenBLAS ``(get, set)`` thread functions, or ``None``."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as extension
    try:
        library = ctypes.CDLL(extension.__file__)
    except OSError as exc:
        _log.info("BLAS thread control unavailable: %s", exc)
        return None
    for get_name, set_name in _SYMBOLS:
        try:
            get, set_ = getattr(library, get_name), getattr(library, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    _log.info("BLAS thread control unavailable: NumPy is not linked to OpenBLAS")
    return None


def blas_threads() -> "int | None":
    """OpenBLAS's current thread count, or ``None`` without thread control."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def set_blas_threads(count: int) -> bool:
    """Set OpenBLAS's thread count; ``False`` when it cannot be controlled."""
    functions = _openblas()
    if functions is None:
        return False
    functions[1](max(1, int(count)))
    return True


def worker_blas_share(workers: int) -> "int | None":
    """BLAS threads for each of ``workers`` sibling processes.

    ``max(1, usable_cores() // workers)``, never more than this process
    runs now, so a user's ``OPENBLAS_NUM_THREADS`` still caps it.
    ``None`` without thread control.
    """
    current = blas_threads()
    if current is None:
        return None
    return min(current, max(1, usable_cores() // workers))
