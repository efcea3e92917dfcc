"""V1 — GEMM-based assignment with a separate reduction kernel
(Sec. III-A2).

The distance decomposition ``‖x‖² + ‖y‖² − 2·x·yᵀ`` turns the hot loop
into a GEMM; V1 launches four kernels per iteration: two squared-norm
passes, the SIMT GEMM writing the full distance matrix, and a row-wise
argmin reduction that re-reads it.  The re-read is the memory traffic V2
eliminates.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import (
    AssignmentKernelBase,
    AssignmentResult,
    setup_gmem,
)
from repro.gemm.epilogue import StoreEpilogue
from repro.gemm.shapes import GemmShape
from repro.gemm.simt_gemm import SimtGemm
from repro.gemm.tiling import TileConfig
from repro.gpusim.counters import PerfCounters

__all__ = ["V1GemmAssignment", "default_simt_tile"]


def default_simt_tile(dtype) -> TileConfig:
    """The hand-written SIMT kernels' fixed tiling (balanced 64x64)."""
    return TileConfig.make((64, 64, 16), (32, 32, 16), dtype, stages=2)


class V1GemmAssignment(AssignmentKernelBase):
    """SIMT GEMM + separate row-argmin reduction kernel."""

    name = "v1"
    variant_key = "v1"

    def __init__(self, device, dtype, *, mode="fast", injector=None,
                 tile: TileConfig | None = None,
                 chunk_bytes: int | None = None, prune="auto"):
        super().__init__(device, dtype, mode=mode, injector=injector,
                         chunk_bytes=chunk_bytes, prune=prune)
        self.tile = tile if tile is not None else default_simt_tile(dtype)

    # ------------------------------------------------------------------
    def assign(self, x: np.ndarray, y: np.ndarray, *,
               accumulator=None) -> AssignmentResult:
        m, k = x.shape
        n = y.shape[0]
        counters = PerfCounters()
        if self.mode == "functional":
            labels, best = self._assign_functional(x, y, counters)
            self._feed_functional(accumulator, x, labels, best)
        else:
            labels, best = self.engine.assign(x, y, counters,
                                              accumulator=accumulator)
        return AssignmentResult(labels, best, counters,
                                self.estimate(m, n, k))

    def _assign_functional(self, x, y, counters):
        m, k = x.shape
        n = y.shape[0]
        gmem = setup_gmem(x, y, counters)
        gmem.alloc("distances", (m, n), self.dtype)
        kern = SimtGemm(self.device, self.tile, self.dtype,
                        epilogue=StoreEpilogue(), counters=counters,
                        injector=self.injector)
        kern.run(gmem, GemmShape(m, n, k))
        # separate reduction kernel: re-reads the whole distance matrix
        d = gmem.load("distances", slice(0, m), slice(0, n))
        counters.kernels_launched += 1
        labels = np.argmin(d, axis=1).astype(np.int64)
        best = d[np.arange(m), labels]
        return labels, best

    # ------------------------------------------------------------------
    def estimate(self, m, n_clusters, k_features):
        tb, w = self.tile.tb, self.tile.warp
        dist = self.model.distance_simt(
            m, n_clusters, k_features, self.dtype,
            tb.m, tb.n, tb.k, w.m, w.n, variant=self.variant_key)
        norms = self.model.norms_kernel(m, k_features, self.dtype)
        return [("norms", norms), (f"distance_{self.variant_key}", dist)]
