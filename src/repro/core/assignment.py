"""Assignment-stage infrastructure shared by all kernel variants.

Defines the :class:`AssignmentResult` contract, the common base class
and global-memory setup helpers.  Every variant's ``fast`` mode runs
through the blocked streaming engine of :mod:`repro.core.engine`, which
preserves the fault-injection / ABFT semantics of the functional
kernels at NumPy speed (Sec. 5 of DESIGN.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import FastPathEngine
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import GlobalMemory
from repro.gpusim.timing import KernelTiming, TimingModel

__all__ = ["AssignmentResult", "AssignmentKernelBase", "setup_gmem"]


@dataclass
class AssignmentResult:
    """Output of one assignment-stage execution.

    ``timings`` holds the modelled durations of every kernel the variant
    launched (the simulated clock charges them); ``counters`` the
    functional-execution statistics.

    Lifetime: in ``fast`` mode while a fit cache is active,
    ``labels``/``min_sqdist`` alias the engine's reusable per-fit
    buffers — the next assign() on the same samples overwrites them.
    Consume (or copy) a result before requesting the next pass;
    functional mode always returns owned arrays.
    """

    labels: np.ndarray
    min_sqdist: np.ndarray
    counters: PerfCounters
    timings: list[tuple[str, KernelTiming]] = field(default_factory=list)

    @property
    def sim_time_s(self) -> float:
        return sum(t.time_s for _, t in self.timings)


def setup_gmem(x: np.ndarray, y: np.ndarray, counters: PerfCounters) -> GlobalMemory:
    """Bind operands + precomputed norms the fused kernels expect.

    The squared-norm vectors correspond to the two 'Samples²'/'Centroids²'
    kernels of Fig. 2 step 1; their cost is charged separately by the
    variants that need them.
    """
    gmem = GlobalMemory(counters)
    gmem.bind("samples", x)
    gmem.bind("centroids", y)
    gmem.bind("x_norms", np.sum(x * x, axis=1, dtype=x.dtype).reshape(-1, 1))
    gmem.bind("y_norms", np.sum(y * y, axis=1, dtype=y.dtype).reshape(-1, 1))
    # the (min, argmin) scratch lives in the kernel dtype: a float64
    # buffer would double the epilogue traffic accounting on fp32 runs
    assign = np.full((x.shape[0], 2), np.inf, dtype=x.dtype)
    assign[:, 1] = -1
    gmem.bind("assign", assign)
    return gmem


class AssignmentKernelBase(ABC):
    """Common interface of the step-wise assignment variants.

    ``chunk_bytes`` parameterises the blocked streaming engine every
    variant's ``fast`` mode runs through; the engine is built lazily so
    subclasses can finish configuring themselves (tile, scheme, TF32)
    before first use.
    """

    name: str = "base"

    def __init__(self, device: DeviceSpec, dtype, *, mode: str = "fast",
                 injector=None, chunk_bytes: int | None = None,
                 prune="auto"):
        self.device = device
        self.dtype = np.dtype(dtype)
        self.mode = mode
        self.injector = injector
        self.chunk_bytes = chunk_bytes
        self.prune = prune
        self.model = TimingModel(device)
        self._engine: FastPathEngine | None = None

    # -- streaming engine ----------------------------------------------
    def _engine_options(self) -> dict:
        """Subclass hook: extra FastPathEngine kwargs (tf32, scheme, ...)."""
        return {}

    @property
    def engine(self) -> FastPathEngine:
        """The variant's blocked streaming fast-path engine (lazy)."""
        if self._engine is None:
            self._engine = FastPathEngine(
                self.device, self.dtype, tile=getattr(self, "tile", None),
                injector=self.injector, chunk_bytes=self.chunk_bytes,
                prune=self.prune, **self._engine_options())
        return self._engine

    def feed_centroid_shifts(self, shifts, y) -> None:
        """Forward the update stage's per-centroid movement to the
        engine's pruning bounds (``fast`` mode only; a no-op otherwise).
        One-shot and identity-keyed to ``y`` — see
        :meth:`FastPathEngine.feed_centroid_shifts`."""
        if self.mode == "fast" and self._engine is not None:
            self._engine.feed_centroid_shifts(shifts, y)

    def begin_fit(self, x: np.ndarray,
                  n_clusters: int | None = None) -> None:
        """Hoist per-fit invariants (norms, buffers, chunk/block plans)."""
        if self.mode == "fast":
            self.engine.begin_fit(x, n_clusters)

    def end_fit(self) -> None:
        """Release the per-fit cache (see FastPathEngine.end_fit)."""
        if self._engine is not None:
            self._engine.end_fit()

    @abstractmethod
    def assign(self, x: np.ndarray, y: np.ndarray, *,
               accumulator=None) -> AssignmentResult:
        """Compute (labels, min distances) for samples ``x`` against
        centroids ``y``.

        ``accumulator`` (a
        :class:`repro.core.accumulate.StreamedAccumulator`) requests
        fused update accumulation: in ``fast`` mode the engine feeds it
        per chunk inside the assignment loop; functional kernels feed
        the whole pass once labels exist.  Either way the accumulated
        sums are bit-identical to a one-shot sequential pass."""

    def _feed_functional(self, accumulator, x: np.ndarray,
                         labels: np.ndarray, best: np.ndarray) -> None:
        """Finish a functional-mode pass: floor the min squared distances
        at 0 in place, as the engine does (cancellation or an injected
        flip can push them negative, down to -inf; labels keep the raw
        argmin), then feed the pass to the update accumulator."""
        np.maximum(best, 0, out=best)
        if accumulator is not None:
            accumulator.feed(x, labels)

    @abstractmethod
    def estimate(self, m: int, n_clusters: int, k_features: int) -> list[tuple[str, KernelTiming]]:
        """Modelled kernel timings for one assignment pass at this shape."""

