"""V4 — tensor-core kernel with the async pipeline (Sec. III-A5).

The final non-fault-tolerant form of FT K-means: CUTLASS-style tensor-core
GEMM (TF32 on FP32), ``cp.async`` multi-stage prefetch, and the fused
broadcast-argmin epilogue, with tile parameters chosen per problem shape
by the code-generation selector.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import (
    AssignmentKernelBase,
    AssignmentResult,
    setup_gmem,
)
from repro.gemm.epilogue import BroadcastArgminEpilogue
from repro.gemm.shapes import GemmShape
from repro.gemm.tensorop_gemm import TensorOpGemm
from repro.gemm.tiling import TileConfig
from repro.gpusim.counters import PerfCounters

__all__ = ["TensorOpAssignment", "default_tensorop_tile"]


def default_tensorop_tile(dtype) -> TileConfig:
    """Reasonable default tiles when no selector is used.

    FP32: TB(128,64,16)/W(64,32,16) — a balanced mid-size tile;
    FP64: TB(64,64,16)/W(32,32,16) — the paper's parameter 19.
    """
    if np.dtype(dtype) == np.float32:
        return TileConfig.make((128, 64, 16), (64, 32, 16), dtype, stages=3)
    return TileConfig.make((64, 64, 16), (32, 32, 16), dtype, stages=3)


class TensorOpAssignment(AssignmentKernelBase):
    """Tensor-core fused distance + assignment (no fault tolerance)."""

    name = "tensorop"

    def __init__(self, device, dtype, *, mode="fast", injector=None,
                 tile: TileConfig | None = None, use_tf32: bool = True,
                 stages: int | None = None, chunk_bytes: int | None = None,
                 prune="auto"):
        super().__init__(device, dtype, mode=mode, injector=injector,
                         chunk_bytes=chunk_bytes, prune=prune)
        self.tile = tile if tile is not None else default_tensorop_tile(dtype)
        if stages is not None and stages != self.tile.stages:
            self.tile = TileConfig(self.tile.tb, self.tile.warp,
                                   self.tile.thread, stages=stages,
                                   param_id=self.tile.param_id)
        self.use_tf32 = use_tf32 and np.dtype(dtype) == np.float32

    def _engine_options(self) -> dict:
        return dict(tf32=self.use_tf32)

    def _make_kernel(self, counters: PerfCounters) -> TensorOpGemm:
        return TensorOpGemm(self.device, self.tile, self.dtype,
                            epilogue=BroadcastArgminEpilogue(),
                            counters=counters, injector=self.injector,
                            use_tf32=self.use_tf32)

    # ------------------------------------------------------------------
    def assign(self, x: np.ndarray, y: np.ndarray, *,
               accumulator=None) -> AssignmentResult:
        m, k = x.shape
        n = y.shape[0]
        counters = PerfCounters()
        if self.mode == "functional":
            gmem = setup_gmem(x, y, counters)
            kern = self._make_kernel(counters)
            kern.run(gmem, GemmShape(m, n, k))
            assign = gmem["assign"]
            labels = assign[:, 1].astype(np.int64)
            best = assign[:, 0].astype(self.dtype)
            self._feed_functional(accumulator, x, labels, best)
        else:
            labels, best = self.engine.assign(x, y, counters,
                                              accumulator=accumulator)
        return AssignmentResult(labels, best, counters,
                                self.estimate(m, n, k))

    # ------------------------------------------------------------------
    def estimate(self, m, n_clusters, k_features):
        tb, w = self.tile.tb, self.tile.warp
        dist = self.model.distance_tensorop(
            m, n_clusters, k_features, self.dtype,
            tb.m, tb.n, tb.k, w.m, w.n, stages=self.tile.stages,
            abft="none")
        norms = self.model.norms_kernel(m, k_features, self.dtype)
        return [("norms", norms), ("distance_tensorop", dist)]
