"""One BLAS thread per LAPACK call during a run, and independent items solved side by side.

numpy and scipy wheels each bundle an OpenBLAS whose thread pool splits a
single LAPACK call.  For the blocks a generator falls into (a few hundred to
two thousand coordinates) a second pool thread gains nothing and only
spin-waits, and how a call is split moves its last digits, so output bytes
would depend on the pool size.  Inside :func:`pinned` every OpenBLAS found
runs one thread, and :func:`blockwise` spreads independent items (a
generator's block stacks, a chunk's trajectory tiles) over the available
cores instead.  Each item is the same single-threaded computation whichever
thread runs it, so no result depends on the number of cores.

The pool size is read and set through the library's own
``openblas_{get,set}_num_threads`` (with a ``scipy_`` prefix in the wheels'
builds, and a ``64_`` suffix in numpy's 64-bit-integer one), looked up with
``ctypes`` on the numpy or scipy extension module that links the library:
dlsym searches a library's dependencies too.  The global setter is the one
used: in the OpenBLAS numpy 2.4 bundles, ``openblas_set_num_threads_local``
called in one thread also changed the count seen by the others.  Where no
symbol is found (MKL, Accelerate) nothing is pinned and items are solved
one after another.
"""

from __future__ import annotations

import concurrent.futures
import os
import sys
import threading
from contextlib import contextmanager

# library -> the extension module whose dependencies include its OpenBLAS
EXTENSIONS = {"numpy": "numpy.linalg._umath_linalg", "scipy": "scipy.linalg._flapack"}
_SYMBOLS = [tuple(f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("get", "set"))
            for prefix in ("scipy_", "") for suffix in ("64_", "")]

# Process-wide, as the OpenBLAS pool sizes they stand for are; _lock guards them.
_lock = threading.Lock()
_pin = None             # the active _Pin
_users = 0              # pinned() blocks open: the last one out restores the pool sizes


def _controls(path: str):
    """The (get, set) pool-size functions of the OpenBLAS the library at ``path`` links, or None."""
    import ctypes
    try:
        lib = ctypes.CDLL(path)
    except OSError:
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


class _Pin:
    """The libraries a :func:`pinned` block set to one thread, with the pool sizes to restore."""

    def __init__(self):
        self.libraries: dict = {}       # name -> (set, pool size on entry), None where not found
        self.workers = 0

    def add_loaded(self) -> None:
        """Pin each library of ``EXTENSIONS`` that is loaded and not looked up yet."""
        for name, module in EXTENSIONS.items():
            if name in self.libraries or module not in sys.modules:
                continue
            controls = _controls(sys.modules[module].__file__)
            self.libraries[name] = None
            if controls is not None:
                get, set_ = controls
                self.libraries[name] = set_, get()
                set_(1)

    def restore(self) -> None:
        for pinned in self.libraries.values():
            if pinned is not None:
                set_, previous = pinned
                set_(previous)

    def record(self) -> dict:
        """Manifest entries: numpy's pool size on entry, the libraries pinned, the block workers."""
        numpy = self.libraries.get("numpy")
        return {"blas_threads": numpy[1] if numpy else None,
                "blas_pinned": [name for name, pinned in self.libraries.items() if pinned],
                "block_workers": self.workers}


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def pinned():
    """Every loaded OpenBLAS at one thread inside, restored on exit; yields the :class:`_Pin`.

    numpy's OpenBLAS is pinned on entry and scipy's once ``scipy.linalg`` is
    loaded (on entry, or where :func:`pin_loaded` is called after its lazy
    import).  With numpy's pinned, :func:`blockwise` runs on cores - 1
    workers besides the caller.  Nested or concurrent blocks share one pin,
    and the last to exit restores the pool sizes.
    """
    global _pin, _users
    with _lock:
        if _pin is None:
            pin = _Pin()
            pin.add_loaded()
            if pin.libraries.get("numpy"):
                pin.workers = _cores() - 1
            _pin = pin
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


def pin_loaded() -> None:
    """Inside :func:`pinned`, pin the OpenBLAS of libraries loaded since it began; else nothing."""
    with _lock:
        if _pin is not None:
            _pin.add_loaded()


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
