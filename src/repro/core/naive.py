"""V0 — the naive assignment kernel (Sec. III-A1).

One thread per sample: load every centroid from global memory, compute
the squared distance dimension-by-dimension, keep the running minimum.
No tiling, no shared-memory reuse — each thread re-reads the full
centroid matrix, which is why the paper measures it at ~5% of cuML.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import AssignmentKernelBase, AssignmentResult
from repro.gpusim.counters import PerfCounters

__all__ = ["NaiveAssignment"]

#: samples processed per vectorised chunk in functional mode (one chunk
#: stands for one thread batch; keeps the O(chunk*K*N) temporary small)
_CHUNK = 4096


class NaiveAssignment(AssignmentKernelBase):
    """Per-thread centroid scan.

    ``functional`` mode keeps the dimension-by-dimension scan (the
    paper's V0 dataflow); ``fast`` mode streams through the blocked
    engine like every other variant (naive has no tile geometry, so the
    engine runs without fault replay — matching the seed behaviour of
    never injecting into the naive kernel's fast path).  Note the
    engine computes distances via the GEMM norm identity, which — like
    every GEMM-based variant — can cancel catastrophically on data with
    a large common offset; use ``functional`` mode for the exact
    per-dimension ``(x - y)**2`` scan.
    """

    name = "naive"

    def assign(self, x: np.ndarray, y: np.ndarray, *,
               accumulator=None) -> AssignmentResult:
        counters = PerfCounters()
        counters.kernels_launched += 1
        m, k = x.shape
        n = y.shape[0]
        if self.mode != "functional":
            labels, best = self.engine.assign(x, y, counters,
                                              accumulator=accumulator)
            # charge the same modelled work the per-thread scan performs
            # (every thread streams all centroids), so counter-derived
            # GFLOPS/traffic stay comparable across modes
            counters.global_loads += m * y.nbytes + x.nbytes
            counters.simt_fma += m * n * k
            counters.flops += 3 * m * n * k
            return AssignmentResult(labels, best, counters,
                                    self.estimate(m, n, k))
        labels = np.empty(m, dtype=np.int64)
        best = np.empty(m, dtype=self.dtype)
        for lo in range(0, m, _CHUNK):
            hi = min(lo + _CHUNK, m)
            xc = x[lo:hi]
            # every thread streams all centroids from global memory
            counters.global_loads += (hi - lo) * y.nbytes
            counters.global_loads += xc.nbytes
            diff = xc[:, None, :].astype(self.dtype) - y[None, :, :].astype(self.dtype)
            d = np.einsum("ijk,ijk->ij", diff, diff)
            counters.simt_fma += d.size * k
            counters.flops += 3 * (hi - lo) * n * k
            labels[lo:hi] = np.argmin(d, axis=1)
            best[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
        self._feed_functional(accumulator, x, labels, best)
        timings = self.estimate(m, n, k)
        return AssignmentResult(labels, best, counters, timings)

    def estimate(self, m, n_clusters, k_features):
        return [("distance_naive",
                 self.model.distance_naive(m, n_clusters, k_features, self.dtype))]
