"""Process settings for every command and pool worker: one OpenBLAS thread and a heap that keeps freed memory.

numpy and scipy each load their own OpenBLAS, which starts one thread per
core. Inside a process pool that puts several BLAS threads on each CPU, and
the thread count changes how matrix products round, so a fitted model's
bytes would follow the machine's core count. Every command therefore runs
with each loaded OpenBLAS pinned to one thread (one_thread); pool workers
inherit that pin by fork or set it when they start (pin_worker). Importing
voxmask changes nothing: the caller's counts come back when a command returns.
Where no OpenBLAS is found the command runs unpinned and logs a warning.

Both entry points also set glibc's malloc thresholds once per process
(keep_freed_memory), so that the few-MB temporaries of one utterance stay
in the heap for the next instead of going back to the kernel and being
faulted in again as fresh zeroed pages. The policy is fixed, changes no
arithmetic and is not restored when a command returns: once set, glibc
cannot go back to its dynamic thresholds. Without glibc it is skipped.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os

log = logging.getLogger(__name__)

# (get, set) symbol pairs; the scipy-openblas wheels prefix and suffix them
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _controls(path: str):
    """(get, set) thread-count functions of the library at path, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def openblas_libraries() -> dict:
    """Every OpenBLAS loaded in this process: file path -> (get, set) thread-count functions."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {path: _controls(path) for path in paths}
    return {path: fns for path, fns in found.items() if fns is not None}


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters, from malloc.h


@functools.cache  # once per process; a forked worker inherits the cache with the setting
def keep_freed_memory() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB; a no-op without glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, no such name, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)  # the ceiling glibc's own dynamic threshold climbs to
    mallopt(M_TRIM_THRESHOLD, 64 << 20)  # above it, so a freed block stays for the next utterance


def pin_worker() -> None:
    """Pool initializer: one BLAS thread for the rest of the worker's life, and the heap policy.

    A count already at one is not set again: after a fork any set call makes
    OpenBLAS rebuild its thread pool, whose new threads spin before they sleep.
    """
    keep_freed_memory()
    for get, set_ in openblas_libraries().values():
        if get() != 1:
            set_(1)


@contextlib.contextmanager
def one_thread():
    """Every loaded OpenBLAS at one thread inside the block; each old count after it. Sets the heap policy."""
    keep_freed_memory()
    libs = openblas_libraries()
    if not libs:
        log.warning("no OpenBLAS thread control found; BLAS runs with its own thread count")
    saved = [(set_, get()) for get, set_ in libs.values()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)
