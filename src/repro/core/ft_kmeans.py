"""FT K-means — the fused warp-level ABFT kernel (Sec. IV, Fig. 6).

:class:`FtTensorOpGemm` splices the fault-tolerance instructions into the
tensor-core main loop of :class:`TensorOpGemm`:

* lines 15-18 — per warp, per K-step, SIMT accumulation of the factored
  checksums e1ᵀA, Be1, e2ᵀA, Be2 (thread-local; no inter-thread traffic);
* lines 22-24 — three extra tensor-core MMAs accumulate the running
  d1 = e1ᵀ·AB·e1, d2 = e1ᵀ·AB·e2, d3 = e2ᵀ·AB·e1;
* line 25-31 — every 256 K-elements (and at loop end) each warp compares
  d1/d2/d3 against its accumulator, locates a single corrupted element
  via the e2/e1 residual ratio and fixes it *in place* — no
  recomputation, no threadblock synchronisation.

:class:`FtAssignment` wraps the kernel into the assignment-stage
interface and also hosts the baseline schemes (Wu's threadblock-level
correction, Kosaian's detect-and-recompute) behind the same API so the
error-injection benchmarks can swap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.corrector import CorrectionKind, Corrector
from repro.abft.detector import Detector
from repro.abft.encoding import e1, e2
from repro.abft.kosaian import KosaianDetectGemm
from repro.abft.schemes import FTKMEANS, AbftScheme, get_scheme
from repro.abft.thresholds import ThresholdPolicy
from repro.abft.wu import WuFtGemm
from repro.core.assignment import AssignmentResult, setup_gmem
from repro.core.gemm_kmeans import default_simt_tile
from repro.core.tensorop import TensorOpAssignment
from repro.gemm.epilogue import BroadcastArgminEpilogue, StoreEpilogue
from repro.gemm.shapes import GemmShape
from repro.gemm.tensorop_gemm import TensorOpGemm
from repro.gpusim.counters import PerfCounters
from repro.gpusim.hierarchy import ThreadBlock, Warp

__all__ = ["FtTensorOpGemm", "FtBlockState", "FtAssignment"]


@dataclass
class FtBlockState:
    """Per-warp running checksums (three scalars per warp — the whole
    ABFT state; contrast with Wu's threadblock-wide vectors)."""

    d: dict[int, tuple[float, float, float]] = field(default_factory=dict)


class FtTensorOpGemm(TensorOpGemm):
    """Tensor-core GEMM + fused warp-level ABFT with online correction."""

    def __init__(self, *args, safety: float = 4.0, **kwargs):
        super().__init__(*args, **kwargs)
        self._safety = safety
        self._policy: ThresholdPolicy | None = None
        self._corrector: Corrector | None = None
        self.corrections: list[tuple[int, int, int]] = []
        self.recomputed_warps: list[tuple[int, int]] = []

    def run(self, gmem, shape) -> None:
        self._policy = ThresholdPolicy(self.dtype,
                                       tf32=self.mma_unit.use_tf32,
                                       safety=self._safety)
        self._corrector = Corrector(Detector(self._policy))
        self._gmem = gmem
        self._shape = shape
        super().run(gmem, shape)

    # ------------------------------------------------------------------
    def block_begin(self, block: ThreadBlock, warps: list[Warp]) -> FtBlockState:
        return FtBlockState(d={w.warp_id: (0.0, 0.0, 0.0) for w in warps})

    def warp_step(self, state: FtBlockState, warp: Warp, a_w: np.ndarray,
                  b_w: np.ndarray, acc_w: np.ndarray, k_iter: int) -> None:
        super().warp_step(state, warp, a_w, b_w, acc_w, k_iter)
        # Fig. 6 lines 15-18: thread-local weighted sums over fragments.
        # Accumulation happens in float64 'registers'; the running scalars
        # are warp-private, so no shared memory and no barriers.
        m_w, n_w = a_w.shape[0], b_w.shape[0]
        sa1 = e1(m_w) @ a_w.astype(np.float64)
        sa2 = e2(m_w) @ a_w.astype(np.float64)
        sb1 = e1(n_w) @ b_w.astype(np.float64)
        sb2 = e2(n_w) @ b_w.astype(np.float64)
        self.counters.abft_simt_ops += 2 * (a_w.size + b_w.size)
        self.counters.simt_fma += 2 * (a_w.size + b_w.size)
        # Fig. 6 lines 22-24: three checksum MMAs on the tensor cores
        d1, d2, d3 = state.d[warp.warp_id]
        state.d[warp.warp_id] = (d1 + float(sa1 @ sb1),
                                 d2 + float(sa1 @ sb2),
                                 d3 + float(sa2 @ sb1))
        self.counters.mma_ops += 3
        self.counters.abft_mma_ops += 3

    def interval_check(self, state: FtBlockState, block: ThreadBlock,
                       warps: list[Warp], acc: np.ndarray, k_iter: int) -> None:
        self._verify(state, block, warps, acc, k_iter)

    def block_end(self, state: FtBlockState, block: ThreadBlock,
                  warps: list[Warp], acc: np.ndarray) -> None:
        self._verify(state, block, warps, acc, -1)

    # ------------------------------------------------------------------
    def _verify(self, state: FtBlockState, block: ThreadBlock,
                warps: list[Warp], acc: np.ndarray, k_iter: int) -> None:
        """Per-warp checksum test + locate-and-correct (Fig. 6 l.25-31)."""
        for w in warps:
            wm0 = w.warp_m * self.tile.warp.m
            wn0 = w.warp_n * self.tile.warp.n
            acc_w = acc[wm0: wm0 + self.tile.warp.m,
                        wn0: wn0 + self.tile.warp.n]
            self.counters.checksum_tests += 1
            result, fresh = self._corrector.check_and_correct(
                state.d[w.warp_id], acc_w)
            state.d[w.warp_id] = fresh
            if result.kind is CorrectionKind.CORRECTED:
                self.counters.errors_detected += 1
                self.counters.errors_corrected += 1
                self.corrections.append(
                    (block.block_id, wm0 + result.row, wn0 + result.col))
                self.trace.emit("correct", block.block_id, k_iter,
                                row=wm0 + result.row, col=wn0 + result.col,
                                magnitude=result.magnitude, scheme="ftkmeans")
            elif result.kind is CorrectionKind.CHECKSUM_RESYNC:
                self.counters.errors_detected += 1
                self.trace.emit("resync", block.block_id, k_iter,
                                scheme="ftkmeans")
            elif result.kind is CorrectionKind.RECOMPUTE:
                # detectable but inside the ratio-decode noise band:
                # replay this warp's tile from global memory (rare)
                self.counters.errors_detected += 1
                self._recompute_warp(block, w, acc_w)
                state.d[w.warp_id] = tuple(
                    float(v) for v in
                    np.array(self._fresh_triple(acc_w)))
                self.counters.errors_corrected += 1
                self.recomputed_warps.append((block.block_id, w.warp_id))
                self.trace.emit("warp_recompute", block.block_id, k_iter,
                                warp=w.warp_id, scheme="ftkmeans")

    # ------------------------------------------------------------------
    @staticmethod
    def _fresh_triple(acc_w: np.ndarray):
        from repro.abft.encoding import acc_checksum_triple

        return acc_checksum_triple(acc_w, dtype=np.float64)

    def _recompute_warp(self, block: ThreadBlock, warp: Warp,
                        acc_w: np.ndarray) -> None:
        """Time-redundant replay of one warp tile (duplicated loads and
        MMAs, all counted against this launch)."""
        shape, tile = self._shape, self.tile
        tb_m, tb_n, tb_k = tile.tb.m, tile.tb.n, tile.tb.k
        row0 = block.block_m * tb_m + warp.warp_m * tile.warp.m
        col0 = block.block_n * tb_n + warp.warp_n * tile.warp.n
        rows = max(0, min(tile.warp.m, shape.m - row0))
        cols = max(0, min(tile.warp.n, shape.n - col0))
        acc_w[:] = 0
        k_iters = -(-shape.k // tb_k)
        for ki in range(k_iters):
            kk0 = ki * tb_k
            kw = min(tb_k, shape.k - kk0)
            a_w = np.zeros((tile.warp.m, tb_k), self.dtype)
            if rows:
                a_w[:rows, :kw] = self._gmem.load(
                    "samples", slice(row0, row0 + rows), slice(kk0, kk0 + kw))
            b_w = np.zeros((tile.warp.n, tb_k), self.dtype)
            if cols:
                b_w[:cols, :kw] = self._gmem.load(
                    "centroids", slice(col0, col0 + cols), slice(kk0, kk0 + kw))
            self.mma_unit.mma(a_w, b_w.T, acc_w)


class FtAssignment(TensorOpAssignment):
    """Assignment stage with a pluggable fault-tolerance scheme.

    ``scheme`` ∈ {'ftkmeans', 'kosaian', 'wu', 'tensor_only'}; the kernel
    class, execution path and timing-model key follow from the scheme's
    capability record.
    """

    name = "ft"

    def __init__(self, device, dtype, *, mode="fast", injector=None,
                 tile=None, use_tf32: bool = True,
                 scheme: str | AbftScheme = FTKMEANS, safety: float = 4.0,
                 stages: int | None = None, chunk_bytes: int | None = None,
                 prune="auto"):
        super().__init__(device, dtype, mode=mode, injector=injector,
                         tile=tile, use_tf32=use_tf32, stages=stages,
                         chunk_bytes=chunk_bytes, prune=prune)
        self.scheme = get_scheme(scheme)
        self.safety = safety
        if self.scheme.name == "wu":
            # Wu's fusion needs the register-staged path; its kernels use
            # the SIMT tiling defaults unless caller overrides
            if tile is None:
                self.tile = default_simt_tile(dtype)

    def _engine_options(self) -> dict:
        return dict(tf32=self.use_tf32, scheme=self.scheme, safety=self.safety)

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
        return AssignmentResult(labels, best, counters, self.estimate(m, n, k))

    def _assign_functional(self, x, y, counters):
        m, k = x.shape
        n = y.shape[0]
        gmem = setup_gmem(x, y, counters)
        shape = GemmShape(m, n, k)
        if self.scheme.name == "wu":
            gmem.alloc("distances", (m, n), self.dtype)
            kern = WuFtGemm(self.device, self.tile, self.dtype,
                            epilogue=StoreEpilogue(), counters=counters,
                            injector=self.injector, safety=self.safety)
            kern.run(gmem, shape)
            # the store epilogue already fused the norm terms in
            d = gmem.load("distances", slice(0, m), slice(0, n))
            labels = np.argmin(d, axis=1).astype(np.int64)
            best = d[np.arange(m), labels]
            return labels, best
        if self.scheme.name == "kosaian":
            kern = KosaianDetectGemm(self.device, self.tile, self.dtype,
                                     epilogue=BroadcastArgminEpilogue(),
                                     counters=counters, injector=self.injector,
                                     use_tf32=self.use_tf32, safety=self.safety)
        else:
            kern = FtTensorOpGemm(self.device, self.tile, self.dtype,
                                  epilogue=BroadcastArgminEpilogue(),
                                  counters=counters, injector=self.injector,
                                  use_tf32=self.use_tf32, safety=self.safety)
        kern.run(gmem, shape)
        assign = gmem["assign"]
        labels = assign[:, 1].astype(np.int64)
        best = assign[:, 0].astype(self.dtype)
        return labels, best

    # ------------------------------------------------------------------
    def estimate(self, m, n_clusters, k_features):
        tb, w = self.tile.tb, self.tile.warp
        p = self.injector.p_block if getattr(self.injector, "enabled", False) else 0.0
        dist = self.model.distance_tensorop(
            m, n_clusters, k_features, self.dtype,
            tb.m, tb.n, tb.k, w.m, w.n, stages=self.tile.stages,
            abft=self.scheme.timing_key, p_block_inject=p)
        norms = self.model.norms_kernel(m, k_features, self.dtype)
        return [("norms", norms), (f"distance_ft_{self.scheme.name}", dist)]
