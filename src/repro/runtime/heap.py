"""Keep the heap that a process frees mapped for its next allocation.

glibc hands an allocation above its mmap threshold its own mapping and
unmaps it on ``free``; it trims the top of the heap back to the OS once
more than its trim threshold lies free there.  Both thresholds start at
128 KiB and only grow as the process frees large mappings.  A simulated
sample or a main-thread inference allocates and frees tens of MiB of
NumPy workspaces per call, so each call touched fresh pages again: about
2,500-3,500 minor faults and several ms of system time per DEFAULT
sample, against a few dozen with the thresholds below.

:func:`keep_heap_mapped` runs once per process when :mod:`repro` is
imported.  It sets glibc's mmap threshold to 32 MiB (the ceiling of
glibc's own dynamic threshold on 64-bit builds) and its trim threshold
to 128 MiB.  Setting either also turns the dynamic threshold off.
Forked children inherit both settings; spawned ones import ``repro``
and set them again.  Without glibc's ``mallopt`` (macOS, Windows, musl
refuses the call) nothing changes and the function reports ``None``.
"""

from __future__ import annotations

import ctypes
from functools import cache

from .logging import get_logger

__all__ = ["keep_heap_mapped"]

_log = get_logger("runtime.heap")

#: ``mallopt`` parameters from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: What :func:`keep_heap_mapped` asks for, in bytes.
_THRESHOLDS = {
    "mmap_threshold": (_M_MMAP_THRESHOLD, 32 * 1024 * 1024),
    "trim_threshold": (_M_TRIM_THRESHOLD, 128 * 1024 * 1024),
}


@cache
def keep_heap_mapped() -> "dict[str, int] | None":
    """Raise glibc's mmap and trim thresholds, once per process.

    Returns the thresholds applied, in bytes, or ``None`` where glibc's
    ``mallopt`` is missing or refuses a value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError) as exc:
        _log.info("heap thresholds unchanged: no mallopt (%s)", exc)
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for name, (param, value) in _THRESHOLDS.items():
        if mallopt(param, value) == 0:
            _log.info("heap thresholds unchanged: mallopt refused %s=%d", name, value)
            return None
    return {name: value for name, (_, value) in _THRESHOLDS.items()}
