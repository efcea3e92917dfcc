"""Transient-fault (SEU) injection.

Implements the paper's fault model (Sec. II-A) verbatim:

* Only *compute* errors are injected — memory is assumed ECC-protected.
* Single-event-upset assumption: at most one error per detection/correction
  interval (the ``k % 256 == 0`` checksum window in Fig. 6).
* Each selected threadblock corrupts one element of its accumulator by
  flipping one uniformly-random bit of the fp32/fp64 representation.

The injector pre-plans faults per (kernel, block) from its own RNG stream
so results are reproducible no matter in which order the functional
simulator visits blocks, and so the vectorised ``fast`` execution mode can
apply the *same* plan to whole block regions of the distance matrix.

This module covers *silent* in-device SEUs.  The orthogonal failure
class — a whole worker/process dying, stalling or wedging — lives in
:mod:`repro.dist.faults` and reports through the same
:class:`~repro.gpusim.counters.PerfCounters` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.counters import PerfCounters
from repro.utils.bits import flip_bit, num_bits, random_bit_index

__all__ = ["FaultPlan", "FaultInjector", "NullInjector"]


@dataclass(frozen=True)
class FaultPlan:
    """One planned SEU inside a threadblock's main loop.

    Attributes
    ----------
    step:
        Main-loop iteration index (over the GEMM K dimension) at which the
        flip happens.
    row_frac, col_frac:
        Target element inside the block's accumulator tile, as fractions in
        [0, 1) so the same plan applies to any tile geometry.
    bit:
        Bit index to flip in the element's float representation.
    """

    step: int
    row_frac: float
    col_frac: float
    bit: int

    def locate(self, tile_m: int, tile_n: int) -> tuple[int, int]:
        """Resolve the fractional target to concrete tile coordinates."""
        return (
            min(int(self.row_frac * tile_m), tile_m - 1),
            min(int(self.col_frac * tile_n), tile_n - 1),
        )


class FaultInjector:
    """Plans and applies SEU bit flips.

    Parameters
    ----------
    rng:
        NumPy Generator (or integer seed).
    p_block:
        Probability that a given threadblock suffers one SEU during one
        kernel execution.  The paper's "tens of errors per second" maps to
        a per-block probability via the error-injection benchmarks
        (see :mod:`repro.bench.figures`).
    dtype:
        Accumulator element type (sets the bit-width for flips).
    max_faults:
        Optional global cap (None = unlimited).
    """

    def __init__(self, rng, p_block: float, dtype, *, max_faults: int | None = None,
                 counters: PerfCounters | None = None):
        if not 0.0 <= p_block <= 1.0:
            raise ValueError(f"p_block must be in [0, 1], got {p_block}")
        self.rng = np.random.default_rng(rng)
        self.p_block = float(p_block)
        self.dtype = np.dtype(dtype)
        self.max_faults = max_faults
        self.counters = counters if counters is not None else PerfCounters()
        self.injected: list[tuple[int, FaultPlan]] = []

    @property
    def enabled(self) -> bool:
        return self.p_block > 0.0

    def plan_for_block(self, block_id: int, n_steps: int) -> FaultPlan | None:
        """Decide (once) whether / where this block is corrupted.

        ``n_steps`` is the number of main-loop iterations (the fault can
        strike at any of them).  Deterministic given the injector's RNG
        stream and call order; callers invoke it exactly once per block.
        """
        if not self.enabled or n_steps <= 0:
            return None
        if self.max_faults is not None and len(self.injected) >= self.max_faults:
            return None
        if self.rng.random() >= self.p_block:
            return None
        plan = FaultPlan(
            step=int(self.rng.integers(0, n_steps)),
            row_frac=float(self.rng.random()),
            col_frac=float(self.rng.random()),
            bit=random_bit_index(self.rng, self.dtype),
        )
        self.injected.append((block_id, plan))
        return plan

    def apply(self, plan: FaultPlan, acc: np.ndarray) -> tuple[int, int]:
        """Flip the planned bit in accumulator tile ``acc`` (in place).

        Returns the (row, col) that was corrupted.
        """
        r, c = plan.locate(acc.shape[0], acc.shape[1])
        acc[r, c] = flip_bit(acc[r, c], plan.bit)
        self.counters.errors_injected += 1
        return r, c


class NullInjector:
    """No-fault stand-in with the same interface (default for clean runs)."""

    enabled = False
    injected: list = []

    def plan_for_block(self, block_id: int, n_steps: int) -> None:
        return None

    def apply(self, plan, acc) -> tuple[int, int]:  # pragma: no cover - unreachable
        raise RuntimeError("NullInjector cannot apply faults")
