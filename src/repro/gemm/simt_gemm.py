"""Functional SIMT (CUDA-core) GEMM — the pre-Ampere data path.

Loads stage through the *register file* (global → registers → shared),
which is precisely the property the older ABFT schemes exploit: while an
element sits in a register en route to shared memory, checksum partial
sums can be accumulated at no extra global-memory cost ("register
reusing", Sec. I / Fig. 1).  The :meth:`on_stage_register` hook exposes
that window; :class:`repro.abft.wu.WuFtGemm` overrides it.

This kernel backs the paper's step-wise variants V1–V3 (Sec. III-A2..4)
via pluggable epilogues, and Wu's threadblock-level FT-GEMM baseline.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.epilogue import EpilogueContext, StoreEpilogue
from repro.gemm.shapes import GemmShape
from repro.gemm.tiling import TileConfig
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.faults import NullInjector
from repro.gpusim.hierarchy import Grid, LaunchConfig, ThreadBlock, Warp
from repro.gpusim.memory import GlobalMemory
from repro.gpusim.simt import SimtUnit
from repro.gpusim.trace import NullTrace
from repro.utils.arrays import ceil_div

__all__ = ["SimtGemm"]


class SimtGemm:
    """Tile-accurate SIMT GEMM with register-staged loads.

    Same grid/tile structure as the tensor-core kernel but: no async
    pipeline (ping-pong synchronous staging), CUDA-core FMAs instead
    of MMA instructions, and a register-reuse hook during staging.
    """

    def __init__(self, device: DeviceSpec, tile: TileConfig, dtype, *,
                 epilogue=None, counters: PerfCounters | None = None,
                 trace=None, injector=None):
        self.device = device
        self.tile = tile
        self.dtype = np.dtype(dtype)
        self.counters = counters if counters is not None else PerfCounters()
        self.trace = trace if trace is not None else NullTrace()
        self.injector = injector if injector is not None else NullInjector()
        self.epilogue = epilogue if epilogue is not None else StoreEpilogue()
        self.simt = SimtUnit(dtype, self.counters)
        if hasattr(self.injector, "counters"):
            self.injector.counters = self.counters
        tile.assert_feasible(device, dtype)

    # -- hook points --------------------------------------------------------
    def block_begin(self, block: ThreadBlock, warps: list[Warp]):
        return None

    def on_stage_register(self, state, a_tile: np.ndarray, b_tile: np.ndarray,
                          k_iter: int) -> None:
        """Register-reuse window: tiles are in registers on their way to
        shared memory.  Pre-Ampere ABFT accumulates checksums here."""

    def warp_step(self, state, warp: Warp, a_w: np.ndarray, b_w: np.ndarray,
                  acc_w: np.ndarray, k_iter: int) -> None:
        self.simt.fma_gemm(a_w, b_w.T, acc_w)

    def block_end(self, state, block: ThreadBlock, warps: list[Warp],
                  acc: np.ndarray) -> None:
        pass

    # -- driver ---------------------------------------------------------------
    def run(self, gmem: GlobalMemory, shape: GemmShape) -> None:
        gmem.counters = self.counters
        tb = self.tile.tb
        cfg = LaunchConfig(
            grid_m=ceil_div(shape.m, tb.m),
            grid_n=ceil_div(shape.n, tb.n),
            threads_per_block=self.tile.threads_per_block,
            smem_bytes=self.tile.smem_bytes(self.dtype),
            regs_per_thread=min(self.tile.regs_per_thread(self.dtype),
                                self.device.regs_per_thread_max),
        )
        grid = Grid(self.device, cfg, counters=self.counters)
        for block in grid.blocks():
            self._run_block(block, gmem, shape)

    def _run_block(self, block: ThreadBlock, gmem: GlobalMemory,
                   shape: GemmShape) -> None:
        tile, dt = self.tile, self.dtype
        tb_m, tb_n, tb_k = tile.tb.m, tile.tb.n, tile.tb.k
        k_iters = ceil_div(shape.k, tb_k)
        row0, col0 = block.block_m * tb_m, block.block_n * tb_n
        rows = min(tb_m, shape.m - row0)
        cols = min(tb_n, shape.n - col0)

        a_sh = block.smem.alloc("A_tb", (tb_m, tb_k), dt)
        b_sh = block.smem.alloc("B_tb", (tb_n, tb_k), dt)
        acc = np.zeros((tb_m, tb_n), dt)
        warps = block.warps(tb_m // tile.warp.m, tb_n // tile.warp.n)
        state = self.block_begin(block, warps)
        fault = self.injector.plan_for_block(block.block_id, k_iters)

        for ki in range(k_iters):
            kk0 = ki * tb_k
            kw = min(tb_k, shape.k - kk0)
            # global -> registers (counted as plain loads: no cp.async here)
            a_reg = np.zeros((tb_m, tb_k), dt)
            a_reg[:rows, :kw] = gmem.load(
                "samples", slice(row0, row0 + rows), slice(kk0, kk0 + kw))
            b_reg = np.zeros((tb_n, tb_k), dt)
            b_reg[:cols, :kw] = gmem.load(
                "centroids", slice(col0, col0 + cols), slice(kk0, kk0 + kw))
            # the register-reuse window
            self.on_stage_register(state, a_reg, b_reg, ki)
            # registers -> shared memory, then block-wide barrier
            block.smem.write("A_tb", slice(None), a_reg)
            block.smem.write("B_tb", slice(None), b_reg)
            block.syncthreads()
            a_tile = block.smem.read("A_tb", slice(None))
            b_tile = block.smem.read("B_tb", slice(None))
            for w in warps:
                wm0, wn0 = w.warp_m * tile.warp.m, w.warp_n * tile.warp.n
                a_w = a_tile[wm0: wm0 + tile.warp.m]
                b_w = b_tile[wn0: wn0 + tile.warp.n]
                acc_w = acc[wm0: wm0 + tile.warp.m, wn0: wn0 + tile.warp.n]
                self.warp_step(state, w, a_w, b_w, acc_w, ki)
            if fault is not None and fault.step == ki:
                r, c = self.injector.apply(fault, acc)
                self.trace.emit("fault", block.block_id, ki, row=r, col=c,
                                bit=fault.bit)
            block.syncthreads()

        self.block_end(state, block, warps, acc)
        ctx = EpilogueContext(gmem=gmem, counters=self.counters, acc=acc,
                              row0=row0, col0=col0, rows=rows, cols=cols,
                              block_col=block.block_n)
        self.epilogue(ctx)
