"""Tensor-core MMA (matrix-multiply-accumulate) functional model.

A warp-level tensor-core operation computes ``acc += a @ b`` on small
fragments.  The instruction shapes mirror the hardware the paper targets:

* FP32 path: ``mma.sync.m16n8k8`` with **TF32** operands — inputs are
  rounded to TF32 (10-bit mantissa) before the multiply, accumulation stays
  in FP32.  This is the "enable TF32 in FP32 precision" step of Sec. III-A5
  and the reason FP32 has more headroom than FP64 (Sec. V-A6).
* FP64 path: ``mma.sync.m8n8k4`` (the instruction quoted verbatim in the
  paper's Fig. 4/6 pseudocode), full-precision accumulate.

:class:`MmaUnit` executes whole warp fragments with a single NumPy matmul
(bit-faithful dataflow, fast) while counting how many hardware MMA
instructions the fragment decomposes into, so overhead ratios such as the
ABFT ``3/(m_w·n_w)`` extra MMAs are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.counters import PerfCounters
from repro.utils.arrays import ceil_div

__all__ = ["MmaShape", "MMA_FP32_TF32", "MMA_FP64", "mma_shape_for", "round_tf32", "MmaUnit"]


@dataclass(frozen=True)
class MmaShape:
    """One hardware MMA instruction's (m, n, k) fragment shape."""

    m: int
    n: int
    k: int
    name: str

    def instructions_for(self, frag_m: int, frag_n: int, frag_k: int) -> int:
        """How many instructions cover a (frag_m x frag_n x frag_k) op."""
        return (
            ceil_div(frag_m, self.m)
            * ceil_div(frag_n, self.n)
            * ceil_div(frag_k, self.k)
        )


MMA_FP32_TF32 = MmaShape(16, 8, 8, "mma.sync.aligned.m16n8k8.f32.tf32")
MMA_FP64 = MmaShape(8, 8, 4, "mma.sync.aligned.m8n8k4.f64")


def mma_shape_for(dtype) -> MmaShape:
    """Instruction shape used for ``dtype`` (paper Sec. III-B1 rule 4)."""
    dt = np.dtype(dtype)
    if dt == np.float32:
        return MMA_FP32_TF32
    if dt == np.float64:
        return MMA_FP64
    raise ValueError(f"unsupported dtype {dt!r}")


#: the RNE chain's constants: the kept-LSB position (13 dropped mantissa
#: bits), the round-half bias below it and the mask that drops them
_TF32_DROP = np.uint32(13)
_TF32_HALF = np.uint32(0xFFF)
_TF32_KEEP = np.uint32(0xFFFFE000)


def round_tf32(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round FP32 values to TF32 precision (10-bit mantissa, RNE).

    TF32 keeps FP32's 8-bit exponent but only 10 mantissa bits; hardware
    rounds to nearest-even on tensor-core ingestion (truncation would bias
    dot products toward zero and visibly inflate K-means inertia).
    Accumulation stays full FP32, which is why the checksum threshold
    analysis in :mod:`repro.abft.thresholds` uses TF32 unit roundoff for
    the products but FP32 for the sums.

    ``out`` (a float32 array of ``x``'s shape) receives the result
    instead of a fresh allocation.  The rounding runs as one in-place
    chain of integer ufuncs on ``out``'s bits — shift, AND, add the
    half bias, add the input, mask — so a caller that rounds into a
    reused buffer allocates nothing.  ``out`` may be ``x`` itself; the
    input bits are then staged in one temporary first.
    """
    x = np.asarray(x, dtype=np.float32)
    if out is None:
        out = np.empty_like(x)
    elif np.may_share_memory(x, out):
        x = x.copy()
    bits = x.view(np.uint32)
    o = out.view(np.uint32)
    # round-to-nearest-even on the low 13 bits: bias = 0xFFF + kept LSB;
    # mantissa carries propagate into the exponent exactly as the
    # hardware rounder does (the largest finite values round to inf)
    np.right_shift(bits, _TF32_DROP, out=o)
    np.bitwise_and(o, np.uint32(1), out=o)
    np.add(o, _TF32_HALF, out=o)
    np.add(o, bits, out=o)
    np.bitwise_and(o, _TF32_KEEP, out=o)
    # +-inf come through the chain unchanged; NaN payloads must pass
    # through untouched too (the bias could carry them into inf or
    # across the sign bit).  max() propagates NaN: one read-only pass
    if x.size and np.isnan(np.max(x)):
        np.copyto(out, x, where=np.isnan(x))
    return out


class MmaUnit:
    """Executes warp-fragment matmuls on the (simulated) tensor cores.

    Parameters
    ----------
    dtype:
        Element type; selects the instruction shape and TF32 rounding.
    counters:
        Per-launch counters (instructions, flops).
    use_tf32:
        When False the FP32 path multiplies at full precision (used for
        ablations; the paper's kernels always enable TF32).
    """

    def __init__(self, dtype, counters: PerfCounters | None = None, *,
                 use_tf32: bool = True):
        self.dtype = np.dtype(dtype)
        self.shape = mma_shape_for(dtype)
        self.counters = counters if counters is not None else PerfCounters()
        self.use_tf32 = use_tf32 and self.dtype == np.float32

    def mma(self, a_frag: np.ndarray, b_frag: np.ndarray, acc: np.ndarray, *,
            abft: bool = False) -> None:
        """``acc += a_frag @ b_frag`` with instruction accounting.

        a_frag: (m, k); b_frag: (k, n); acc: (m, n) updated in place.
        ``abft=True`` marks the instructions as checksum-only work so the
        overhead ratio is measurable.
        """
        m, k = a_frag.shape
        k2, n = b_frag.shape
        if k != k2 or acc.shape != (m, n):
            raise ValueError(
                f"fragment mismatch: a {a_frag.shape}, b {b_frag.shape}, acc {acc.shape}"
            )
        if self.use_tf32:
            prod = round_tf32(a_frag) @ round_tf32(b_frag)
        else:
            prod = a_frag.astype(self.dtype) @ b_frag.astype(self.dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            # NaN/Inf accumulators are legitimate simulator states after a
            # fault injection; warnings would only be noise here
            acc += prod.astype(acc.dtype, copy=False)
        n_instr = self.shape.instructions_for(m, n, k)
        self.counters.mma_ops += n_instr
        self.counters.flops += 2 * m * n * k
        if abft:
            self.counters.abft_mma_ops += n_instr
