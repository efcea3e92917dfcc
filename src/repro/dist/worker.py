"""The per-shard worker: one simulated device running the fast path.

A :class:`ShardWorker` owns one shard of the sample matrix and a fully
configured assignment kernel (the same :func:`build_assignment` product
the single-device estimator uses, fast mode only).  Per round it runs
one fused assignment pass over its shard against the broadcast centroids
and returns a :class:`RoundResult` with the shard's labels, min squared
distances, fused partial sums and counters — the "map" half of the
coordinator's map-reduce Lloyd iteration.

Determinism: the shard's labels/distances are bit-identical to the rows
a single-worker engine would produce (see :mod:`repro.dist.plan`), and
the fused partial sums are bit-identical to a sequential accumulation
over the shard alone — which is exactly what the coordinator's
localization step recomputes when its checksum test fires.

SEU injection inside a worker draws a fresh, per-round injector seeded
from ``(base_seed, worker_id, iteration)``: the fault pattern of
iteration *k* never depends on how many iterations ran before it, so a
checkpoint-restored replay re-injects the identical flips and recovery
stays bit-exact even under injection.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulate import StreamedAccumulator
from repro.core.variants import build_assignment
from repro.dist.faults import WorkerCrash
from repro.gpusim.counters import PerfCounters
from repro.gpusim.faults import FaultInjector
from repro.utils.bits import flip_bit

__all__ = ["RoundResult", "ShardWorker", "build_worker"]


@dataclass
class RoundResult:
    """One worker's answer for one Lloyd iteration (picklable)."""

    worker_id: int
    iteration: int
    labels: np.ndarray            # (shard_rows,) int64, owned
    best: np.ndarray              # (shard_rows,) kernel dtype, owned
    partial: np.ndarray           # (K, N+1) float64 fused sums ‖ counts
    counters: PerfCounters
    timings: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def sim_time_s(self) -> float:
        return sum(t.time_s for _, t in self.timings)


class ShardWorker:
    """One shard's assignment + fused accumulation, round by round.

    Parameters
    ----------
    worker_id : int
        Position in the shard plan (also the fault-directive address).
    x_shard : ndarray of shape (shard_rows, N)
        This worker's resident sample rows.
    cfg : KMeansConfig
        The fit configuration (``mode`` must be 'fast'; ``tile`` must
        already be resolved — never 'auto', which is shard-shape
        dependent).
    n_clusters : int
        K (redundant with cfg but kept explicit for the engine cache).
    sample_weight : ndarray of shape (shard_rows,), optional
        This shard's slice of the fit's sample weights.
    base_seed : int
        Entropy root of the per-round SEU injector streams.
    x_t : ndarray of shape (N, shard_rows), optional
        The shard's columns of a transposed update operand the caller
        already holds (a coordinator passes a view of its own).  The
        engine borrows it; without it the worker runs the per-feed
        staging path.  A worker never hoists a transpose of its own, so
        one hoist decision — the coordinator's — covers the whole fleet
        and a declined fit holds no transpose anywhere.  Its per-sample
        norms are recomputed at every boot (one O(shard) pass), a
        replacement's included.
    """

    def __init__(self, worker_id: int, x_shard: np.ndarray, cfg,
                 n_clusters: int, *, sample_weight=None, base_seed: int = 0,
                 x_t=None):
        if cfg.mode != "fast":
            raise ValueError("ShardWorker requires mode='fast'")
        if cfg.tile == "auto":
            raise ValueError("resolve tile='auto' before building workers")
        self.worker_id = int(worker_id)
        self.x = x_shard
        self.cfg = cfg
        self.n_clusters = int(n_clusters)
        self.base_seed = int(base_seed)
        m, k = x_shard.shape
        self.kernel = build_assignment(
            cfg, m, k, np.random.default_rng(self.base_seed))
        # a shard worker never owns a transpose: it borrows the fleet's
        # (``x_t``) or runs the staging path, so the coordinator's hoist
        # decision holds for the whole fleet
        self.kernel.engine.operand_budget = 0
        self.kernel.begin_fit(x_shard, n_clusters, x_t=x_t)
        self.acc = StreamedAccumulator(n_clusters, k)
        self.acc.bind_weights(sample_weight)
        self._wedge_s = 0.0
        # cooperative cancellation: the engine checks this token at
        # every chunk boundary, so an abandoned in-process worker stops
        # within one chunk of being cancelled instead of burning CPU
        # through the rest of its pass
        self._cancel = threading.Event()
        self.kernel.engine.cancel_token = self._cancel

    # ------------------------------------------------------------------
    def _round_injector(self, iteration: int) -> None:
        """Per-round SEU injector, seeded by (base, worker, iteration)."""
        if self.cfg.p_inject <= 0:
            return
        seq = np.random.SeedSequence(
            [self.base_seed, self.worker_id, int(iteration)])
        inj = FaultInjector(np.random.default_rng(seq), self.cfg.p_inject,
                            self.cfg.dtype)
        self.kernel.injector = inj
        self.kernel.engine.injector = inj

    def run_round(self, y: np.ndarray, iteration: int,
                  directive: dict | None = None) -> RoundResult:
        """One fused assignment pass over the shard.

        ``directive`` (from :class:`repro.dist.faults.WorkerFaultInjector`)
        may order this worker to stall, crash, or corrupt its partial.
        """
        t0 = time.perf_counter()
        if directive:
            if directive.get("stall_s"):
                time.sleep(float(directive["stall_s"]))
            if directive.get("crash"):
                raise WorkerCrash(self.worker_id, iteration)
        self._round_injector(iteration)
        self.acc.reset()
        res = self.kernel.assign(self.x, y, accumulator=self.acc)
        partial = self.acc.packed()
        if directive and "corrupt" in directive:
            plan = directive["corrupt"]
            r, c = plan.locate(partial.shape[0], partial.shape[1])
            partial[r, c] = flip_bit(partial[r, c], plan.bit)
        if directive and directive.get("wedge_s"):
            # wedge AFTER answering: the round succeeds, the next ping
            # hangs — visible only to the between-round heartbeat
            self._wedge_s = float(directive["wedge_s"])
        return RoundResult(
            worker_id=self.worker_id, iteration=iteration,
            labels=res.labels.copy(), best=res.min_sqdist.copy(),
            partial=partial, counters=res.counters, timings=res.timings,
            wall_s=time.perf_counter() - t0)

    def ping(self) -> bool:
        """Heartbeat probe: answer promptly unless wedged.

        A wedged worker (see the ``wedge`` fault) sleeps ``wedge_s``
        before answering — on the process backend the executor kills the
        child long before that; in-process backends classify the late
        answer retroactively.
        """
        if self._wedge_s:
            time.sleep(self._wedge_s)
        return True

    def cancel(self) -> None:
        """Request a cooperative stop of any in-flight assignment pass.

        Sets the engine's cancellation token: the chunk loop raises
        :class:`repro.core.engine.EngineCancelled` at its next chunk
        boundary, so an abandoned thread-backend worker stops within a
        bounded number of chunks.  Idempotent; the worker must not be
        reused for further rounds afterwards.
        """
        self._cancel.set()

    def close(self) -> None:
        """Release the engine's fit cache / scratch / threads."""
        self.kernel.end_fit()


def build_worker(worker_id: int, *, x: np.ndarray | None = None, plan, cfg,
                 n_clusters: int, sample_weight=None,
                 base_seed: int = 0, data_ref=None, weight_ref=None,
                 x_t: np.ndarray | None = None,
                 xt_ref=None) -> ShardWorker:
    """Module-level worker factory (picklable for the process executor).

    Slices the worker's shard out of the full arrays via the
    :class:`~repro.dist.plan.ShardPlan`, so one factory serves the
    initial spawn and every post-crash respawn alike.  Lookup is by
    worker id, not position: after an elastic re-plan the surviving ids
    are sparse.

    On the process executor the factory carries ``data_ref`` /
    ``weight_ref`` (:class:`repro.dist.shm.ArrayRef`) instead of the
    arrays themselves: the worker maps the shared dataset segment and
    takes its shard as a zero-copy **view**, so pickling the factory —
    at boot, spare promotion, or elastic re-expand — ships only the
    tiny refs, never the rows.

    A coordinator that hoisted the transposed operand of the full ``x``
    also passes it — the array itself (``x_t``) to in-process fleets,
    its segment ref (``xt_ref``) to process children — and every worker
    borrows its column view ``x_t[:, lo:hi]``, so the fleet holds one
    transpose in total.
    """
    if data_ref is not None or xt_ref is not None:
        from repro.dist.shm import attach_array
    if data_ref is not None:
        x = attach_array(data_ref)
        if weight_ref is not None:
            sample_weight = attach_array(weight_ref)
    if xt_ref is not None:
        x_t = attach_array(xt_ref)
    shard = plan.shard_of(worker_id)
    w = (None if sample_weight is None
         else sample_weight[shard.lo:shard.hi])
    return ShardWorker(worker_id, x[shard.lo:shard.hi], cfg, n_clusters,
                       sample_weight=w, base_seed=base_seed,
                       x_t=(None if x_t is None
                            else x_t[:, shard.lo:shard.hi]))
