"""Analytic kernel timing model.

The paper's performance results cannot be reproduced by wall-clock on this
host (no GPU), so every figure is regenerated from an analytic model that
is driven by the *same quantities the paper's analysis reasons about*:

* **Padding waste** — tensor cores execute full ``TB_M x TB_N`` tiles, so a
  fixed ``Threadblock.N = 256`` against ``K = 8`` clusters burns 31/32 of
  the MMA work (the cuML failure mode of Sec. V-A6).  Compute time is
  charged for *padded* tiles; memory traffic only for *real* (predicated)
  bytes, like CUTLASS.
* **Occupancy** — shared-memory/register pressure bounds resident warps,
  which gates both latency hiding (compute efficiency) and achievable
  memory bandwidth.
* **Pipeline fill/drain** — a ``k_iters``-step main loop behind an
  ``stages``-deep async pipeline spends ``(stages-1)/(k_iters+stages-1)``
  of its life filling/draining; short feature dimensions are punished.
* **Two peak families** — FP32 kernels are bound far below the TF32 tensor
  peak (issue/data movement), so extra ABFT MMAs slide into idle tensor
  slots (paper: 37.5% theoretical → ~11% observed).  FP64 runs near the
  DMMA roofline, so the same MMAs cost real time (paper: K=128 FP64
  overhead ≈ 20%).
* **Async-copy overlap** — Ampere kernels overlap memory with compute
  (``max``); pre-Ampere / Wu-style synchronous staging serialises part of
  it (``+``), which is exactly why Wu's scheme pays ~30%.

Calibration constants live in :class:`Calibration` with documented
physical meaning; EXPERIMENTS.md records paper-vs-model numbers for every
figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.mma import mma_shape_for
from repro.gpusim.occupancy import Occupancy, compute_occupancy
from repro.utils.arrays import ceil_div

__all__ = ["Calibration", "KernelTiming", "TimingModel", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class Calibration:
    """Tunable constants of the timing model (all dimensionless unless
    noted).  Values were fit to the paper's anchor numbers; each constant
    has a physical interpretation, not a per-figure fudge."""

    # Fraction of the *tensor* peak attainable by the fused tall-skinny
    # distance kernel in steady state with ideal parameters.  FP32/TF32 is
    # issue- and epilogue-bound far below the 156 TFLOPS MMA peak (the
    # paper's "less than 10% of peak" observation); FP64 DMMA is nearly
    # compute-bound.
    eff_tensor_fp32: float = 0.20
    eff_tensor_fp64: float = 0.80
    # SIMT GEMM efficiencies (hand-written kernels of Sec. III-A).
    eff_simt_gemm: float = 0.26
    eff_naive: float = 0.026
    # Steady-state fraction of DRAM bandwidth reachable at full occupancy.
    eff_mem_base: float = 0.88
    # Warps/SM needed to saturate the MMA issue pipes: tensor cores keep up
    # with very few warps (2 MMA issues/cycle/SM), which is why cuML's
    # 8-resident-warp configuration still runs its padded tiles near full
    # rate — padding waste, not starvation, is its penalty.
    warps_needed_compute: float = 4.0
    # Warps/SM needed to saturate DRAM bandwidth: reaching the full
    # 1.55 TB/s needs nearly full occupancy (~48+ warps of outstanding
    # loads); low-occupancy kernels see a steep bandwidth cliff.  This is
    # the dominant cost at skinny shapes (K=8 panels of Figs. 8/9).
    warps_needed_mem: float = 48.0
    mem_occ_exponent: float = 0.75
    # Occupancy softness: eff = w / (w + soft * needed).
    occ_softness: float = 0.12
    # Warp-tile operand reuse: flops per staged fragment element peak for
    # balanced warp tiles (harmonic mean of w_m, w_n); skewed tiles like
    # W(128,8) starve the MMA pipes on shared-memory traffic.
    frag_reuse_ref_fp32: float = 40.0
    frag_reuse_ref_fp64: float = 30.0
    # Threadblock-level balance: global->shared traffic per output element
    # is (TB_M+TB_N)/(TB_M*TB_N); skewed blocks like cuML's (32,256) move
    # ~2x the data of a balanced (128,128) block (the paper's Sec. V-A6
    # explanation of parameter 83's win at large N).
    tb_balance_ref_fp32: float = 96.0
    tb_balance_ref_fp64: float = 60.0
    tb_balance_exponent: float = 0.25
    # Per-main-loop-iteration bookkeeping (commit/wait, address math)
    # favours deeper K-tiles: eff = tb_k / (tb_k + cost).
    iter_overhead_k: float = 2.0
    # FP64 vectorised-load penalty (alignment fixed to 1 in CUTLASS FP64).
    fp64_vec_penalty: float = 1.0
    # L2 reuse: repeated B-tile (centroid) traffic is served at an
    # effective rate l2_speedup x DRAM.
    l2_speedup: float = 6.0
    # Fraction of memory time NOT hidden by register ping-pong buffers on
    # the synchronous (pre-Ampere) data path.
    sync_mem_exposed: float = 0.45
    # Wu's threadblock-level scheme: extra time for smem checksum
    # reductions + block-wide barriers, as a fraction of main-loop time.
    # Without cp.async (T4, or any pre-Ampere device) there is no
    # concurrent copy stream to hide the barrier stalls behind, so the
    # penalty is much larger — the "elimination of threadblock-level
    # synchronization" advantage the paper measures at ~60% on T4.
    wu_sync_overhead: float = 0.12
    wu_sync_overhead_no_async: float = 0.55
    # Fraction of idle SIMT issue slots usable to hide checksum arithmetic
    # (scaled by 1 - tensor busy fraction).
    simt_hide_budget: float = 0.40
    # When memory-bound, fraction of checksum SIMT arithmetic that still
    # delays the load path (LSU/issue contention); FP64's half-rate 64-bit
    # datapath makes its pressure much larger.
    simt_mem_contention_fp32: float = 0.10
    simt_mem_contention_fp64: float = 0.50
    # Tensor-core-only checksum ablation (Sec. IV-B): embedding e1/e2 as
    # extra operand columns; cannot be hidden.
    tensor_only_abft_overhead: float = 0.50
    # In-place correction cost per affected block, as a fraction of its
    # main loop (pipeline drain + the Fig. 6 l.26-31 fix sequence).
    correction_cost_frac_fp32: float = 0.025
    correction_cost_frac_fp64: float = 0.095
    # Detection interval in GEMM-K elements (Fig. 6 line 25).
    detection_interval: int = 256
    # Atomic traffic model: each global atomic costs one L2 transaction of
    # ~32 B served at the L2-to-SM bandwidth (mostly-uncontended per-row
    # locks of the broadcast epilogue).
    atomic_bytes: float = 32.0
    atomic_bw: float = 2.0e12
    # Atomic throughput for the update stage's contended accumulation.
    atomic_ops_per_s: float = 4.0e9


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one simulated kernel launch.

    ``time_s`` is the modelled wall time; ``gflops`` is computed against
    the *useful* FLOP count ``2*M*K*N`` exactly as the paper reports.
    """

    time_s: float
    useful_flops: float
    t_compute: float
    t_memory: float
    t_epilogue: float
    t_abft: float
    t_correction: float
    t_launch: float
    occupancy: Occupancy
    limiter: str
    details: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.time_s / 1e9


def _saturating(w: float, needed: float, softness: float) -> float:
    """Smooth saturating efficiency in the number of resident warps."""
    if w <= 0:
        return 0.0
    return min(1.0, w / (w + softness * needed))


class TimingModel:
    """Analytic cost model for the kernels of the paper on one device."""

    def __init__(self, device: DeviceSpec, calib: Calibration | None = None):
        self.device = device
        self.calib = calib if calib is not None else DEFAULT_CALIBRATION

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _resources(self, tb_m: int, tb_n: int, tb_k: int, w_m: int, w_n: int,
                   stages: int, dtype) -> tuple[int, int, int, Occupancy]:
        """threads/block, smem bytes, regs/thread and occupancy for a tile."""
        itemsize = np.dtype(dtype).itemsize
        warps = max(1, (tb_m // w_m) * (tb_n // w_n))
        threads = warps * self.device.warp_size
        smem = stages * (tb_m + tb_n) * tb_k * itemsize
        # accumulator registers per thread + operand fragments + control.
        acc_elems = (w_m * w_n) / self.device.warp_size
        regs = int(acc_elems * (2 if np.dtype(dtype) == np.float64 else 1)
                   + (w_m + w_n) / 4 + 24)
        regs = min(regs, self.device.regs_per_thread_max)
        occ = compute_occupancy(self.device, threads, smem, regs)
        return threads, smem, regs, occ

    def _wave_utilisation(self, blocks: int, occ: Occupancy) -> float:
        """Tail-wave quantisation: partially filled final waves waste SMs."""
        slots = max(1, occ.blocks_per_sm * self.device.num_sms)
        waves = ceil_div(blocks, slots)
        return blocks / (waves * slots)

    def _traffic_bytes(self, m: int, n_clusters: int, k_features: int,
                       grid_m: int, grid_n: int, dtype) -> float:
        """Effective-DRAM bytes for the distance main loop.

        Sample tiles (A) are re-read once per column of blocks, but when
        the whole sample matrix fits in L2 (the N<=32 regime on A100 —
        131072 x 32 x 4B = 16.8 MB against 40 MB of L2) the re-reads are
        served at the L2-discounted rate.  That capacity cliff is what
        creates the paper's Fig. 14 selection regions along the feature
        dimension.  Centroid tiles (B) are always small enough to stay L2
        resident.  Only real (predicated) elements count.
        """
        sz = np.dtype(dtype).itemsize
        a_once = m * k_features * sz
        if a_once <= self.device.l2_bytes:
            a_bytes = a_once + max(0, grid_n - 1) * a_once / self.calib.l2_speedup
        else:
            a_bytes = grid_n * a_once
        b_once = n_clusters * k_features * sz
        b_rereads = max(0, grid_m - 1) * n_clusters * k_features * sz
        return a_bytes + b_once + b_rereads / self.calib.l2_speedup

    def _mem_eff(self, warps_per_sm: float, dtype) -> float:
        """Achievable fraction of DRAM bandwidth at this occupancy.

        Bandwidth needs outstanding *bytes*, not warps: FP64's 64-bit
        accesses reach saturation at half the occupancy of FP32's, so
        occupancy is byte-weighted by the element width.
        """
        cal = self.calib
        weighted = warps_per_sm * (np.dtype(dtype).itemsize / 4.0)
        occ = min(1.0, weighted / cal.warps_needed_mem) ** cal.mem_occ_exponent
        e = cal.eff_mem_base * occ
        if np.dtype(dtype) == np.float64:
            e *= cal.fp64_vec_penalty
        return e

    def _tb_balance_eff(self, tb_m: int, tb_n: int, dtype) -> float:
        """Threadblock shape efficiency (global traffic per output).

        The reference scales with element width: an FP64 (64,64) tile
        moves as many bytes per output as an FP32 (128,128) one.
        """
        cal = self.calib
        ref = (cal.tb_balance_ref_fp64 if np.dtype(dtype) == np.float64
               else cal.tb_balance_ref_fp32)
        hm = 2.0 * tb_m * tb_n / (tb_m + tb_n)
        return min(1.0, hm / ref) ** cal.tb_balance_exponent

    def _frag_reuse_eff(self, w_m: int, w_n: int, dtype) -> float:
        """Operand-reuse efficiency of the warp tile (harmonic mean)."""
        cal = self.calib
        ref = (cal.frag_reuse_ref_fp64 if np.dtype(dtype) == np.float64
               else cal.frag_reuse_ref_fp32)
        hm = 2.0 * w_m * w_n / (w_m + w_n)
        return min(1.0, hm / ref)

    def _epilogue_time(self, m: int, grid_n: int, dtype, *, atomic: bool) -> float:
        """Fused distance-NN epilogue: one (min, argmin) write per sample
        per block column; cross-block merging costs atomics when grid_n>1
        or the broadcast variant is used."""
        sz = np.dtype(dtype).itemsize + 4  # key + index
        t_store = grid_n * m * sz / self.device.mem_bw()
        t_atomic = 0.0
        if atomic and grid_n >= 1:
            t_atomic = grid_n * m * self.calib.atomic_bytes / self.calib.atomic_bw
        return t_store + t_atomic

    # ------------------------------------------------------------------
    # tensor-core fused distance kernel (FT K-means final form)
    # ------------------------------------------------------------------
    def distance_tensorop(self, m: int, n_clusters: int, k_features: int, dtype,
                          tb_m: int, tb_n: int, tb_k: int, w_m: int, w_n: int,
                          *, stages: int = 3, abft: str = "none",
                          p_block_inject: float = 0.0,
                          use_async: bool | None = None) -> KernelTiming:
        """Model the fused distance + nearest-centroid kernel (Sec. III).

        ``abft`` is one of ``none | ftkmeans | kosaian | tensor_only | wu``.
        ``p_block_inject`` is the SEU probability per threadblock and adds
        correction time under the ``ftkmeans``/``wu`` schemes.
        """
        dev, cal = self.device, self.calib
        dt = np.dtype(dtype)
        if use_async is None:
            use_async = dev.has_async_copy
        grid_m, grid_n = ceil_div(m, tb_m), ceil_div(n_clusters, tb_n)
        blocks = grid_m * grid_n
        k_pad = ceil_div(k_features, tb_k) * tb_k
        k_iters = k_pad // tb_k
        # CUTLASS handles the K residue at MMA-instruction granularity, so
        # compute is only charged for k padded to the instruction depth
        # (the pipeline still runs ceil(k / TB_K) iterations)
        mma = mma_shape_for(dt)
        k_mma_pad = ceil_div(k_features, mma.k) * mma.k

        threads, smem, regs, occ = self._resources(tb_m, tb_n, tb_k, w_m, w_n, stages, dt)
        if not occ.feasible:
            raise ValueError("tile parameters cannot be resident on this device")

        # ---- compute side -------------------------------------------------
        padded_flops = 2.0 * (grid_m * tb_m) * (grid_n * tb_n) * k_mma_pad
        tensor_peak = dev.peak_flops(dt, tensor_core=True)
        eff_base = (cal.eff_tensor_fp32 if dt == np.float32 else cal.eff_tensor_fp64)
        eff_pipe = k_iters / (k_iters + (stages - 1)) if use_async \
            else k_iters / (k_iters + 1)
        eff_occ = _saturating(occ.warps_per_sm, cal.warps_needed_compute,
                              cal.occ_softness)
        wave_util = self._wave_utilisation(blocks, occ)
        eff_frag = self._frag_reuse_eff(w_m, w_n, dt)
        eff_tb = self._tb_balance_eff(tb_m, tb_n, dt)
        eff_iter = tb_k / (tb_k + cal.iter_overhead_k)
        eff_c = (eff_base * eff_pipe * eff_occ * wave_util * eff_frag
                 * eff_tb * eff_iter)
        t_comp = padded_flops / (tensor_peak * max(eff_c, 1e-9))
        # tensor pipes' true busy time (idle slots absorb ABFT MMAs)
        t_mma_busy = padded_flops / tensor_peak

        # ---- memory side --------------------------------------------------
        bytes_eff = self._traffic_bytes(m, n_clusters, k_features, grid_m, grid_n, dt)
        t_mem = bytes_eff / (dev.mem_bw() * max(self._mem_eff(occ.warps_per_sm, dt), 1e-9))
        t_mem /= max(wave_util, 1e-9)

        # ---- ABFT extras ---------------------------------------------------
        m_w, n_w = max(1, w_m // mma.m), max(1, w_n // mma.n)
        t_abft_tensor = 0.0
        t_abft_simt_visible = 0.0
        sync_penalty = 0.0
        if abft in ("ftkmeans", "kosaian"):
            n_checksum_mma = 3 if abft == "ftkmeans" else 1
            ratio = n_checksum_mma / (m_w * n_w)
            if dt == np.float32:
                # TF32 pipes are ~15-20% busy: checksum MMAs slot into idle
                # issue cycles, paying only their raw pipe time
                t_abft_tensor = ratio * t_mma_busy
            else:
                # the DMMA pipe runs near the roofline AND the checksum
                # MMAs depend on the freshly produced SIMT sums, so their
                # latency is exposed on the critical path (paper: K=128
                # FP64 overhead ≈ 20% ≈ 3/(m_w·n_w))
                t_abft_tensor = ratio * t_comp
            # SIMT accumulation of e1ᵀA, Be1 (+ e2ᵀA, Be2 for correction)
            n_sums = 4 if abft == "ftkmeans" else 2
            simt_flops = n_sums * 0.5 * (w_m + w_n) * tb_k \
                * (threads // dev.warp_size) * blocks * k_iters
            simt_peak = dev.peak_flops(dt, tensor_core=False)
            t_simt = simt_flops / simt_peak
            tensor_busy_frac = min(1.0, t_mma_busy / max(t_comp, 1e-12))
            hide_budget = cal.simt_hide_budget * (1.0 - tensor_busy_frac) * t_comp
            if use_async:
                # the memory/compute overlap bubble absorbs checksum
                # arithmetic first (the paper's 37.5% -> 11% effect); a
                # synchronous pipeline has no such bubble
                hide_budget += max(0.0, t_mem - t_comp)
            t_abft_simt_visible = max(0.0, t_simt - hide_budget)
            if t_mem > t_comp:  # memory-bound: LSU/issue contention
                gamma = (cal.simt_mem_contention_fp64 if dt == np.float64
                         else cal.simt_mem_contention_fp32)
                t_abft_simt_visible += gamma * min(t_simt, hide_budget)
        elif abft == "tensor_only":
            t_abft_tensor = cal.tensor_only_abft_overhead * t_comp
        elif abft == "wu":
            # threadblock-level checksums forbid cp.async (register reuse);
            # without an async pipeline the block-wide barriers around the
            # shared-memory checksum reductions stall every warp directly
            use_async = False
            sync_penalty = (cal.wu_sync_overhead if dev.has_async_copy
                            else cal.wu_sync_overhead_no_async)
        elif abft != "none":
            raise ValueError(f"unknown abft scheme {abft!r}")

        # ---- combine main loop ---------------------------------------------
        if use_async:
            t_main = max(t_comp + t_abft_tensor, t_mem) + t_abft_simt_visible
        else:
            t_main = (t_comp + t_abft_tensor
                      + cal.sync_mem_exposed * t_mem
                      + t_abft_simt_visible)
            t_main *= (1.0 + sync_penalty)

        # ---- correction under injection -------------------------------------
        t_corr = 0.0
        if p_block_inject > 0.0 and abft in ("ftkmeans", "wu"):
            # Online correction is in place (no recompute): a corrupted
            # block drains its pipeline and runs the locate-and-fix
            # sequence of Fig. 6 l.26-31 serially within the warp.  The
            # cost per affected block is a dtype-dependent fraction of its
            # main loop (FP64's half-rate SIMT datapath and busier DMMA
            # pipe make its sequence ~4x more visible).
            frac = (cal.correction_cost_frac_fp64 if dt == np.float64
                    else cal.correction_cost_frac_fp32)
            t_corr = min(1.0, p_block_inject) * frac * t_main
        elif p_block_inject > 0.0 and abft == "kosaian":
            # detection only: recovery is time-redundant recomputation of
            # every affected block
            t_corr = min(1.0, p_block_inject) * t_main

        t_epi = self._epilogue_time(m, grid_n, dt, atomic=True)
        t_launch = dev.kernel_launch_us * 1e-6
        total = t_main + t_epi + t_corr + t_launch

        useful = 2.0 * m * n_clusters * k_features
        limiter = "memory" if t_mem > t_comp + t_abft_tensor else "compute"
        return KernelTiming(
            time_s=total, useful_flops=useful, t_compute=t_comp, t_memory=t_mem,
            t_epilogue=t_epi, t_abft=t_abft_tensor + t_abft_simt_visible,
            t_correction=t_corr, t_launch=t_launch, occupancy=occ,
            limiter=limiter,
            details=dict(blocks=blocks, k_iters=k_iters, smem=smem, regs=regs,
                         padded_flops=padded_flops, bytes=bytes_eff,
                         eff_compute=eff_c, wave_util=wave_util,
                         m_w=m_w, n_w=n_w, use_async=use_async),
        )

    # ------------------------------------------------------------------
    # SIMT step-wise variants (Sec. III-A)
    # ------------------------------------------------------------------
    def distance_naive(self, m: int, n_clusters: int, k_features: int, dtype) -> KernelTiming:
        """V0: one thread per sample scans every centroid serially."""
        dev, cal = self.device, self.calib
        dt = np.dtype(dtype)
        useful = 2.0 * m * n_clusters * k_features
        t_comp = useful / (dev.peak_flops(dt, tensor_core=False) * cal.eff_naive)
        bytes_eff = m * k_features * dt.itemsize * 1.2  # samples + cached centroids
        t_mem = bytes_eff / (dev.mem_bw() * cal.eff_mem_base)
        occ = compute_occupancy(dev, 256, 0, 32)
        total = max(t_comp, t_mem) + dev.kernel_launch_us * 1e-6
        return KernelTiming(total, useful, t_comp, t_mem, 0.0, 0.0, 0.0,
                            dev.kernel_launch_us * 1e-6, occ,
                            "compute" if t_comp > t_mem else "memory",
                            details=dict(variant="naive"))

    def distance_simt(self, m: int, n_clusters: int, k_features: int, dtype,
                      tb_m: int, tb_n: int, tb_k: int, w_m: int, w_n: int,
                      *, variant: str = "v1") -> KernelTiming:
        """V1/V2/V3: hand-written SIMT GEMM with increasing fusion.

        * v1 — GEMM writes the full distance matrix; a separate reduction
          kernel re-reads it (extra traffic + extra launch).
        * v2 — fused thread/threadblock argmin; partial results per block
          column merged by a small second pass.
        * v3 — threadblock broadcast with per-row locks: single kernel.
        """
        dev, cal = self.device, self.calib
        dt = np.dtype(dtype)
        grid_m, grid_n = ceil_div(m, tb_m), ceil_div(n_clusters, tb_n)
        blocks = grid_m * grid_n
        k_pad = ceil_div(k_features, tb_k) * tb_k
        threads, smem, regs, occ = self._resources(tb_m, tb_n, tb_k, w_m, w_n, 2, dt)

        padded_flops = 2.0 * (grid_m * tb_m) * (grid_n * tb_n) * k_pad
        eff_variant = {"v1": 1.0, "v2": 1.13, "v3": 1.30}[variant]
        eff_occ = _saturating(occ.warps_per_sm, 2 * self.calib.warps_needed_compute,
                              cal.occ_softness)
        wave_util = self._wave_utilisation(blocks, occ)
        eff = cal.eff_simt_gemm * eff_variant * eff_occ * wave_util
        t_comp = padded_flops / (dev.peak_flops(dt, tensor_core=False) * max(eff, 1e-9))

        bytes_eff = self._traffic_bytes(m, n_clusters, k_features, grid_m, grid_n, dt)
        n_launch = 1
        if variant == "v1":
            # write D, then re-read it in the reduction kernel (plus norms)
            bytes_eff += 2.0 * m * n_clusters * dt.itemsize + m * dt.itemsize
            n_launch = 2
        elif variant == "v2":
            bytes_eff += 2.0 * m * grid_n * (dt.itemsize + 4)
            n_launch = 2 if grid_n > 1 else 1
        t_mem = bytes_eff / (dev.mem_bw() * max(self._mem_eff(occ.warps_per_sm, dt), 1e-9))
        t_mem /= max(wave_util, 1e-9)

        # synchronous staging path: register ping-pong buffers hide part
        t_main = t_comp + cal.sync_mem_exposed * t_mem
        t_epi = self._epilogue_time(m, grid_n, dt, atomic=variant == "v3")
        t_launch = n_launch * dev.kernel_launch_us * 1e-6
        total = t_main + t_epi + t_launch
        useful = 2.0 * m * n_clusters * k_features
        return KernelTiming(total, useful, t_comp, t_mem, t_epi, 0.0, 0.0,
                            t_launch, occ,
                            "compute" if t_comp > t_mem else "memory",
                            details=dict(variant=variant, blocks=blocks))

    # ------------------------------------------------------------------
    # auxiliary stages
    # ------------------------------------------------------------------
    def norms_kernel(self, m: int, k_features: int, dtype) -> KernelTiming:
        """Row-wise squared-norm pass over the samples (Fig. 2 step 1)."""
        dev = self.device
        dt = np.dtype(dtype)
        bytes_eff = m * k_features * dt.itemsize + m * dt.itemsize
        t_mem = bytes_eff / (dev.mem_bw() * self.calib.eff_mem_base)
        useful = 2.0 * m * k_features
        occ = compute_occupancy(dev, 256, 0, 32)
        total = t_mem + dev.kernel_launch_us * 1e-6
        return KernelTiming(total, useful, 0.0, t_mem, 0.0, 0.0, 0.0,
                            dev.kernel_launch_us * 1e-6, occ, "memory",
                            details=dict(variant="norms"))

    def update_kernel(self, m: int, n_clusters: int, k_features: int, dtype,
                      *, dmr: bool = False, serial_kernels: bool = False) -> KernelTiming:
        """Centroid update (Fig. 2 step 3).

        ``serial_kernels=True`` models the naive variant's one-kernel-per-
        centroid scheme; otherwise a single atomic-add kernel.  DMR
        duplicates the arithmetic, which hides entirely behind the memory
        latency except for a <1% issue cost (the paper's Sec. I claim).
        """
        dev = self.device
        dt = np.dtype(dtype)
        bytes_eff = m * k_features * dt.itemsize + n_clusters * k_features * dt.itemsize
        t_mem = bytes_eff / (dev.mem_bw() * self.calib.eff_mem_base)
        t_atomic = m * (k_features + 1) / self.calib.atomic_ops_per_s / dev.num_sms
        n_launch = (n_clusters + 1) if serial_kernels else 2
        if serial_kernels:
            t_mem *= n_clusters  # every serial kernel re-reads the samples
        t_launch = n_launch * dev.kernel_launch_us * 1e-6
        total = max(t_mem, t_atomic) + t_launch
        if dmr:
            total *= 1.008  # duplicated arithmetic: <1% (paper Sec. I)
        useful = m * k_features
        occ = compute_occupancy(dev, 256, 0, 32)
        return KernelTiming(total, useful, t_atomic, t_mem, 0.0, 0.0, 0.0,
                            t_launch, occ, "memory",
                            details=dict(variant="update", dmr=dmr))
