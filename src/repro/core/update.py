"""Centroid-update stage (Fig. 2 step 3) with checksum protection.

One kernel handles all centroids: each thread streams its sample and
``atomicAdd``s every dimension into the assigned centroid's accumulator,
plus a count; a small second kernel divides.  The stage is memory-bound
(it must touch every sample once), which is why the paper protects it
with duplicated-instruction redundancy (DMR, Sec. I): on a GPU the
duplicate arithmetic hides behind the loads.

The accumulation is fused into the assignment pass: the pass feeds a
:class:`repro.core.accumulate.StreamedAccumulator` (per-chunk
``bincount`` segment sums with sequential continuation, bit-identical
to one sequential ``np.add.at`` pass), which also forms the Sec. IV
e1/e2 checksums of the rows it sums.  :meth:`UpdateStage.update` takes
the packed sums and those checksums and verifies one against the other
(:mod:`repro.abft.sumcheck`) — the same detect/recompute semantics as
DMR without a second pass over the samples; only an alarm
re-accumulates.

Empty clusters are re-seeded from the samples farthest from their
assigned centroid (a common cuML/sklearn policy), keeping K constant.
"""

from __future__ import annotations

import numpy as np

# the verify step keeps the DMR name it replaced: the benchmark's layer
# probe (perfbench/probes.py) wraps this module global as ``abft.dmr``
from repro.abft.sumcheck import checksum_protected as dmr_protected
from repro.core.accumulate import accumulate_checked
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.timing import KernelTiming, TimingModel

__all__ = ["UpdateStage", "UpdateResult"]


class UpdateResult:
    """Output of one centroid update.

    Attributes
    ----------
    centroids : ndarray of shape (K, N)
        The new centroids, in the stage dtype.
    counts : ndarray of shape (K,)
        Samples assigned to each cluster (int64; per-cluster weight
        totals in float64 when ``sample_weight`` was supplied).
    shift : float
        Frobenius norm of the centroid movement this iteration.
    timings : list of (str, KernelTiming)
        Modelled kernel durations charged to the simulated clock.
    shifts : ndarray of shape (K,) or None
        Per-centroid float64 movement ``‖new_j - old_j‖`` — the
        loosening feed of the engine's pruning bounds
        (:meth:`repro.core.engine.FastPathEngine.feed_centroid_shifts`).
        Computed with the same expression as
        :meth:`repro.core.bounds.BoundsState._shifts_from`, so a fed
        vector carries exactly the bits the bounds would self-compute.
        Note ``shift`` is *not* derived from it: the scalar keeps its
        historical float association.
    """

    def __init__(self, centroids: np.ndarray, counts: np.ndarray,
                 shift: float, timings: list[tuple[str, KernelTiming]],
                 shifts: np.ndarray | None = None):
        self.centroids = centroids
        self.counts = counts
        self.shift = shift
        self.timings = timings
        self.shifts = shifts


class UpdateStage:
    """Centroid update with checksum protection and empty-cluster
    re-seeding.

    Parameters
    ----------
    device : DeviceSpec
        Timing-model device.
    dtype : dtype-like
        Centroid element type (float32/float64).
    dmr : bool, default True
        Verify the accumulated sums against the pass's e1/e2 checksums
        (:mod:`repro.abft.sumcheck`); an alarm triggers recomputation.
        The name is the paper's: the check stands in for its DMR.
    corrupt_hook : callable, optional
        Test hook — an SEU in the fused sums, applied before the check.
    """

    def __init__(self, device: DeviceSpec, dtype, *, dmr: bool = True,
                 corrupt_hook=None):
        self.device = device
        self.dtype = np.dtype(dtype)
        self.dmr = dmr
        self.model = TimingModel(device)
        #: test hook — an SEU in the fused sums (see abft.sumcheck)
        self.corrupt_hook = corrupt_hook

    # ------------------------------------------------------------------
    def update(self, x: np.ndarray, labels: np.ndarray, best_sqdist: np.ndarray,
               old_centroids: np.ndarray, counters: PerfCounters,
               sums: np.ndarray, checksums: np.ndarray, *,
               sample_weight: np.ndarray | None = None) -> UpdateResult:
        """Compute new centroids from one assignment pass.

        Parameters
        ----------
        x : ndarray of shape (M, N)
            Samples (in the estimator dtype).
        labels : ndarray of shape (M,)
            Assignments from the distance stage.
        best_sqdist : ndarray of shape (M,)
            Per-sample min squared distances (drives the worst-fit
            empty-cluster re-seed).
        old_centroids : ndarray of shape (K, N)
            Previous iteration's centroids.
        counters : PerfCounters
            Statistics sink (atomics, update-guard checks, detections).
        sums : ndarray of shape (K, N+1)
            Packed sums ‖ counts the assignment pass accumulated.
        checksums : ndarray of shape (N+1, 2)
            The same pass's e1/e2 checksums
            (:meth:`StreamedAccumulator.checksums`), verified against
            ``sums``.
        sample_weight : ndarray of shape (M,), optional
            Per-sample weights; sums become ``Σ w_i x_i`` and counts the
            per-cluster weight totals (``UpdateResult.counts`` is then
            float64 instead of int64).

        Returns
        -------
        UpdateResult
        """
        n_clusters, k = old_centroids.shape
        sums = self.accumulate_protected(x, labels, n_clusters, counters,
                                         sums, checksums,
                                         sample_weight=sample_weight)
        wcounts = sums[:, k]
        counts = (wcounts.astype(np.int64) if sample_weight is None
                  else wcounts.copy())
        centroids = np.array(old_centroids, dtype=self.dtype, copy=True)
        nz = wcounts > 0
        centroids[nz] = (sums[nz, :k] / wcounts[nz, None]).astype(self.dtype)

        # re-seed empty clusters from the worst-fit samples
        empty = np.flatnonzero(~nz)
        if empty.size:
            order = np.argsort(best_sqdist)[::-1]
            donors = order[: empty.size]
            centroids[empty] = x[donors].astype(self.dtype)

        d64 = centroids.astype(np.float64) - old_centroids.astype(np.float64)
        shift = float(np.linalg.norm(d64))
        shifts = np.sqrt(np.sum(d64 * d64, axis=1))
        timings = self.estimate(x.shape[0], n_clusters, k)
        counters.kernels_launched += 2
        return UpdateResult(centroids, counts, shift, timings, shifts=shifts)

    # ------------------------------------------------------------------
    def accumulate_protected(self, x: np.ndarray, labels: np.ndarray,
                             n_clusters: int, counters: PerfCounters,
                             sums: np.ndarray, checksums: np.ndarray, *,
                             sample_weight: np.ndarray | None = None
                             ) -> np.ndarray:
        """Checksum-verified sum/count accumulation (packed ``(K, N+1)``).

        The shared core of the full-batch :meth:`update` and the online
        mini-batch step.  ``sums`` — the assignment pass's fused
        accumulation — is verified against the pass's ``checksums``;
        only an alarm re-accumulates ``x`` (with a fresh accumulator,
        verified against its own checksums).

        Parameters
        ----------
        x : ndarray of shape (M, N)
        labels : ndarray of shape (M,)
        n_clusters : int
        counters : PerfCounters
        sums : ndarray of shape (K, N+1)
        checksums : ndarray of shape (N+1, 2)
        sample_weight : ndarray of shape (M,), optional

        Returns
        -------
        ndarray of shape (K, N+1)
            Per-cluster feature sums with counts (or weight totals) in
            the last column, float64.
        """
        m, k = x.shape
        counters.atomics += m * (k + 1)
        counters.global_loads += x.nbytes
        if not self.dmr:
            return sums

        def recompute() -> tuple[np.ndarray, np.ndarray]:
            return accumulate_checked(x, labels, n_clusters,
                                      sample_weight=sample_weight)

        sums = dmr_protected(sums, checksums, recompute, n_rows=m,
                             exact_counts=sample_weight is None,
                             counters=counters,
                             corrupt_first=self.corrupt_hook)
        # the hook models a one-shot SEU; don't re-fire next iteration
        self.corrupt_hook = None
        return sums

    # ------------------------------------------------------------------
    def estimate(self, m: int, n_clusters: int, k_features: int):
        """Modelled kernel timings for one update at this shape."""
        t = self.model.update_kernel(m, n_clusters, k_features, self.dtype,
                                     dmr=self.dmr)
        return [("update", t)]
