"""The BLAS thread count, and a per-fit budget that only ever lowers it.

numpy's wheels link scipy-openblas, whose thread count is one
process-global setting.  A fleet whose workers run concurrently on one
host oversubscribes it: W workers each running the library's default
threads contend for ``cores`` cores.  :func:`fleet_budget` gives each
concurrent worker ``max(1, cores // W)`` threads and
:func:`thread_budget` applies that for the span of a ``with`` block.

The setter is reached through ctypes on the OpenBLAS numpy itself
loaded (``numpy.libs/libscipy_openblas64_-*.so``); where that library
or its ``scipy_openblas_get/set_num_threads64_`` symbols are missing,
:func:`get_threads` returns None and :func:`thread_budget` does
nothing.

Bits do not depend on the count: OpenBLAS level-3 threading splits the
output rows and columns, never the inner-product reduction, so a fit
under a budget is bit-identical to one at the default count (the
sharded-vs-single suites check this on every executor).
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["fleet_budget", "get_threads", "host_cores", "thread_budget"]

# module state on purpose: it tracks a setting that is itself one per
# process, whichever fit or thread opened the block
_LOCK = threading.Lock()
#: budgets of the ``thread_budget`` blocks open right now (any thread)
_held: list[int] = []
#: the count before the first open block lowered it
_outer: int | None = None
#: cached ``(get, set)`` pair; False once a lookup found nothing
_fns = None


def _load():
    """``(get, set)`` of numpy's OpenBLAS thread count, or None."""
    global _fns
    if _fns is None:
        _fns = False
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                              "numpy.libs")
        for path in sorted(glob.glob(os.path.join(
                libdir, "libscipy_openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            _fns = (get, set_)
            break
    return _fns or None


def get_threads() -> int | None:
    """The BLAS thread count now in force (None when unknown)."""
    fns = _load()
    return None if fns is None else int(fns[0]())


def host_cores() -> int:
    """Cores this process may run on (its CPU affinity)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:        # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def fleet_budget(concurrent_workers: int) -> int:
    """BLAS threads per worker so that workers x threads <= cores."""
    return max(1, host_cores() // max(1, int(concurrent_workers)))


@contextmanager
def thread_budget(budget: int | None):
    """Run the block at ``min(caller's count, budget)`` BLAS threads.

    Never raises the count, and restores the caller's count on every
    exit, errors included.  Blocks may nest or overlap across threads:
    the count in force is always the smallest open budget, and the
    caller's count returns when the last block closes.  The setting is
    process-global, so every other thread of the process runs at the
    budget too while a block is open.  ``budget=None``, or a missing
    library, leaves the count untouched.
    """
    fns = None if budget is None else _load()
    if fns is None:
        yield
        return
    global _outer
    get, set_ = fns
    budget = max(1, int(budget))
    with _LOCK:
        if not _held:
            _outer = int(get())
        _held.append(budget)
        set_(min([_outer, *_held]))
    try:
        yield
    finally:
        with _LOCK:
            _held.remove(budget)
            set_(min([_outer, *_held]))
