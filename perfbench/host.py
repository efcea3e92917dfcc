"""Host facts and the ceilings measured in the same run.

* GEMM ceiling: stacked ``np.matmul`` at the engine's unit shape
  (``GEMM_UNIT_ROWS`` rows x 64 features x 64 centroids), the exact call
  the engine's fast lane issues.
* Streaming ceiling: ``np.copyto`` bandwidth (read + write bytes) on
  arrays sized to four times the last-level cache, capped at
  :data:`STREAM_CAP_BYTES` so the benchmark stays small on a shared
  host.  Both sizes are reported with the result; when the cap wins the
  ceiling is not a DRAM figure, so the update layer reports operations
  per byte instead of a bandwidth ratio.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import os
import platform
import statistics
import time

import numpy as np

__all__ = ["STREAM_CAP_BYTES", "gemm_gflops", "stream_gbs", "llc_bytes",
           "host_facts"]

STREAM_CAP_BYTES = 128 << 20
_SC_LEVEL3_CACHE_SIZE = 194   # glibc <bits/confname.h>
_SC_LEVEL2_CACHE_SIZE = 191


def _timed_median(fn, reps: int) -> float:
    fn()  # warm: page faults, BLAS thread spin-up
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def gemm_gflops(dtype, unit_rows: int, n_features: int, n_clusters: int,
                units: int = 128, reps: int = 40) -> float:
    """Median GFLOP/s of one stacked unit-shape matmul."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((units, unit_rows, n_features)).astype(dtype)
    b = rng.standard_normal((n_features, n_clusters)).astype(dtype)
    out = np.empty((units, unit_rows, n_clusters), dtype=dtype)
    t = _timed_median(lambda: np.matmul(a, b, out=out), reps)
    return 2.0 * units * unit_rows * n_features * n_clusters / t / 1e9


def llc_bytes() -> int:
    """Last-level cache size from ``sysconf`` (0 when unknown)."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        for name in (_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE):
            size = int(libc.sysconf(name))
            if size > 0:
                return size
    except (OSError, AttributeError, TypeError):
        pass
    return 0


def stream_gbs(llc: int, reps: int = 5) -> tuple[float, int]:
    """(copy GB/s counting read + write, bytes per array)."""
    nbytes = min(4 * llc, STREAM_CAP_BYTES) if llc else STREAM_CAP_BYTES
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    t = _timed_median(lambda: np.copyto(dst, src), reps)
    return 2.0 * src.nbytes / t / 1e9, int(src.nbytes)


def _blas() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = None
    return info


def host_facts(engine=None) -> dict:
    """nproc, BLAS vendor and threads, numpy version, LLC size and the
    engine's memory geometry, so oversubscription and the operand
    budget are visible next to every result."""
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "llc_bytes": llc_bytes(),
    }
    if engine is not None:
        facts["engine"] = {"chunk_bytes": engine.chunk_bytes,
                           "unit_rows": engine.unit_rows,
                           "operand_budget": engine.operand_budget}
    return facts
