"""One BLAS thread per LAPACK call during a run, and independent items solved side by side.

numpy's wheels bundle an OpenBLAS whose thread pool splits a single LAPACK
call.  For the blocks a generator falls into (a few hundred to two thousand
coordinates) a second pool thread gains nothing and only spin-waits, and how
a call is split moves its last digits, so output bytes would depend on the
pool size.  skinlab calls no LAPACK but numpy's OpenBLAS: through
``np.linalg``, and its ``dgeev`` directly (:func:`dgeev`) for the
eigenvalue-only block solves.  Inside :func:`pinned` its
OpenBLAS runs one thread, and :func:`blockwise` spreads a generator's block
stacks over the available cores instead.  Each item is the same
single-threaded computation whichever thread runs it, so no result depends
on the number of cores.  Trajectory tiles do not come here: a step of a
tile is a few small numpy calls that hold the GIL, so they run one after
another in the calling thread (:mod:`skinlab.trajectories`).

The pool size is read and set through the library's own
``openblas_{get,set}_num_threads`` (with a ``scipy_`` prefix in the wheels'
builds, numpy's among them, and a ``64_`` suffix in numpy's 64-bit-integer
one), looked up with ``ctypes`` on the numpy extension module that links the
library: dlsym searches a library's dependencies too.  The global setter is
the one used: in the OpenBLAS numpy 2.4 bundles,
``openblas_set_num_threads_local`` called in one thread also changed the
count seen by the others.  Where no symbol is found (MKL, Accelerate)
nothing is pinned and items are solved one after another.  The library is
opened once per process, at the first pin or solve, never at import.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import threading
from contextlib import contextmanager

import numpy.linalg._umath_linalg as _numpy_lapack   # its dependencies include numpy's OpenBLAS

_SYMBOLS = [tuple(f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("get", "set"))
            for prefix in ("scipy_", "") for suffix in ("64_", "")]

# Process-wide, as the OpenBLAS pool size they stand for is; _lock guards them.
_lock = threading.Lock()
_pin = None             # the active _Pin
_users = 0              # pinned() blocks open: the last one out restores the pool size


@functools.cache
def _library(path: str):
    """The shared library at ``path`` through ``ctypes``, opened once, or None."""
    import ctypes
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


def _controls(path: str):
    """The (get, set) pool-size functions of the OpenBLAS the library at ``path`` links, or None."""
    import ctypes
    lib = _library(path)
    if lib is None:
        return None
    for get_name, set_name in _SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@functools.cache
def dgeev():
    """numpy's LAPACK ``dgeev`` and the ctypes type of its Fortran integers, or None.

    The wheels' OpenBLAS names it ``scipy_dgeev_64_`` (64-bit integers); a
    build without it (MKL, Accelerate) gives None.  Looked up at the first call.
    """
    import ctypes
    lib = _library(_numpy_lapack.__file__)
    if lib is None:
        return None
    for prefix in ("scipy_", ""):
        for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int)):
            fn = getattr(lib, f"{prefix}dgeev_{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = None, [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 12
                return fn, integer
    return None


class _Pin:
    """numpy's OpenBLAS set to one thread, its pool size on entry, and the block workers.

    ``previous`` is None, nothing is pinned and there are no workers where
    the library has no thread control.
    """

    def __init__(self):
        controls = _controls(_numpy_lapack.__file__)
        self.set = self.previous = None
        self.workers = 0
        if controls is not None:
            get, self.set = controls
            self.previous = get()
            self.set(1)
            self.workers = _cores() - 1

    def restore(self) -> None:
        if self.set is not None:
            self.set(self.previous)

    def record(self) -> dict:
        """Manifest entries: the pool size on entry, the libraries pinned, whether
        eigenvalue-only solves run in place (:func:`dgeev` found), the block workers."""
        return {"blas_threads": self.previous,
                "blas_pinned": ["numpy"] if self.set is not None else [],
                "lapack_in_place": dgeev() is not None,
                "block_workers": self.workers}


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def pinned():
    """numpy's OpenBLAS at one thread inside, restored on exit; yields the :class:`_Pin`.

    With it pinned, :func:`blockwise` runs on cores - 1 workers besides the
    caller.  Nested or concurrent blocks share one pin, and the last to exit
    restores the pool size.
    """
    global _pin, _users
    with _lock:
        if _pin is None:
            _pin = _Pin()
        _users += 1
        pin = _pin
    try:
        yield pin
    finally:
        with _lock:
            _users -= 1
            if _users == 0:
                _pin = None
                pin.restore()


def blockwise(fn, items) -> list:
    """``[fn(item) for item in items]``, the items solved side by side inside :func:`pinned`.

    The items are dealt round-robin over min(len(items), workers + 1)
    threads; the caller runs share 0 (callers pass the largest item first)
    and each share runs its items in order.  The fixed split keeps each
    thread's malloc arena to the same items from run to run, so peak memory
    does not drift with timing, and no worker still runs once the call
    returns or raises.  Outside the pin, without a thread control, on one
    core or with one item it is the plain loop.
    """
    items = list(items)
    shares = min(len(items), 1 + (0 if _pin is None else _pin.workers))
    if shares < 2:
        return [fn(item) for item in items]

    def share(k: int) -> list:
        return [fn(item) for item in items[k::shares]]

    with concurrent.futures.ThreadPoolExecutor(shares - 1, "skinlab-block") as pool:
        futures = [pool.submit(share, k) for k in range(1, shares)]
        done = [share(0)] + [future.result() for future in futures]
    return [done[i % shares][i // shares] for i in range(len(items))]
