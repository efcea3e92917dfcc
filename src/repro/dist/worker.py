"""The per-shard worker: one simulated device running the fast path.

A :class:`ShardWorker` owns one shard of the sample matrix and a fully
configured assignment kernel (the same :func:`build_assignment` product
the single-device estimator uses, fast mode only).  Per round it runs
one assignment pass over its shard against the broadcast centroids
and returns a :class:`RoundResult` with the shard's labels, min squared
distances and counters — the "map" half of the coordinator's map-reduce
Lloyd iteration.  A worker sums nothing: the coordinator's shard-ordered
merge is the round's only accumulation.

Determinism: the shard's labels/distances are bit-identical to the rows
a single-worker engine would produce (see :mod:`repro.dist.plan`).

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

from repro.core.blas import get_threads
from repro.core.variants import build_assignment
from repro.dist.faults import WorkerCrash
from repro.gpusim.counters import PerfCounters
from repro.gpusim.faults import FaultInjector

__all__ = ["RoundResult", "ShardWorker", "build_worker"]


@dataclass
class RoundResult:
    """One worker's answer for one Lloyd iteration (picklable)."""

    worker_id: int
    iteration: int
    labels: np.ndarray            # (shard_rows,) int64, owned
    best: np.ndarray              # (shard_rows,) kernel dtype, owned
    counters: PerfCounters
    timings: list = field(default_factory=list)
    wall_s: float = 0.0
    blas_threads: int = 0         # BLAS threads the pass ran at (0: unknown)

    @property
    def sim_time_s(self) -> float:
        return sum(t.time_s for _, t in self.timings)


class ShardWorker:
    """One shard's assignment pass, round by round.

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
    base_seed : int
        Entropy root of the per-round SEU injector streams.

    The worker's assignment passes feed no accumulator, so its engine
    never hoists a transposed update operand.  Its per-sample norms are
    recomputed at every boot (one O(shard) pass), a replacement's
    included.
    """

    def __init__(self, worker_id: int, x_shard: np.ndarray, cfg,
                 n_clusters: int, *, base_seed: int = 0):
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
        self.kernel.begin_fit(x_shard, n_clusters)
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
        """One assignment pass over the shard.

        ``directive`` (from :class:`repro.dist.faults.WorkerFaultInjector`)
        may order this worker to stall, crash or wedge.
        """
        t0 = time.perf_counter()
        if directive:
            if directive.get("stall_s"):
                time.sleep(float(directive["stall_s"]))
            if directive.get("crash"):
                raise WorkerCrash(self.worker_id, iteration)
        self._round_injector(iteration)
        res = self.kernel.assign(self.x, y)
        if directive and directive.get("wedge_s"):
            # wedge AFTER answering: the round succeeds, the next ping
            # hangs — visible only to the between-round heartbeat
            self._wedge_s = float(directive["wedge_s"])
        return RoundResult(
            worker_id=self.worker_id, iteration=iteration,
            labels=res.labels.copy(), best=res.min_sqdist.copy(),
            counters=res.counters, timings=res.timings,
            wall_s=time.perf_counter() - t0,
            blas_threads=get_threads() or 0)

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
                 n_clusters: int, base_seed: int = 0,
                 data_ref=None) -> ShardWorker:
    """Module-level worker factory (picklable for the process executor).

    Slices the worker's shard out of the full array via the
    :class:`~repro.dist.plan.ShardPlan`, so one factory serves the
    initial spawn and every post-crash respawn alike.  Lookup is by
    worker id, not position: after an elastic re-plan the surviving ids
    are sparse.

    On the process executor the factory carries ``data_ref``
    (:class:`repro.dist.shm.ArrayRef`) instead of the array itself: the
    worker maps the shared dataset segment and takes its shard as a
    zero-copy **view**, so pickling the factory — at boot, spare
    promotion, or elastic re-expand — ships only the tiny ref, never
    the rows.
    """
    if data_ref is not None:
        from repro.dist.shm import attach_array
        x = attach_array(data_ref)
    shard = plan.shard_of(worker_id)
    return ShardWorker(worker_id, x[shard.lo:shard.hi], cfg, n_clusters,
                       base_seed=base_seed)
