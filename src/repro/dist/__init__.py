"""repro.dist — sharded multi-worker execution with fault tolerance.

The distribution layer of the reproduction: a full-batch fit sharded
across N simulated devices/processes, surviving whole-worker loss —
the failure class orthogonal to the paper's in-device SEUs.

* :class:`ShardPlan` — GEMM-unit-aligned sample shards (bit-stable);
* :class:`ShardWorker` — one shard's assignment pass per round;
* executors — ``serial`` / ``thread`` / ``process`` backends behind one
  round protocol (:func:`make_executor`);
* :class:`Coordinator` — map-reduce Lloyd with a sequential-continuation
  merge (bit-identical to single-worker for any shard count *and any
  membership history*) streamed as results arrive — the round's only
  accumulation, checked by the update's e1/e2 checksum guard — plus
  checkpoint/restart recovery and round-deadline stall detection
  (:class:`WorkerStall`);
* :class:`FleetManager` — every membership change: between-round
  heartbeats, in-place rebuilds (hot-spare promotion or cold respawn)
  and shrink → re-expand back to the target fleet size (bit-identical
  across any membership history);
* :class:`CheckpointStore` — atomic in-memory or on-disk snapshots,
  the only state a fit persists;
* :class:`WorkerFaultInjector` — crash / stall / wedge injection for
  the recovery tests and benchmarks.

Usually reached through the estimator::

    FTKMeans(n_clusters=64, n_workers=4, executor="process",
             checkpoint_every=5, round_timeout=30.0, elastic=True,
             hot_spares=1, heartbeat_interval=5.0).fit(x)

but every piece is public for direct composition.  The contract lives
in ``docs/distributed.md``.
"""

from repro.dist.checkpoint import CheckpointStore
from repro.dist.coordinator import Coordinator, DistFitResult, ReduceOccupancy
from repro.dist.fleet import FleetManager
from repro.dist.executors import (
    BaseExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.dist.faults import (
    WorkerCrash,
    WorkerFaultInjector,
    WorkerFaultPlan,
    WorkerStall,
)
from repro.dist.plan import Shard, ShardPlan
from repro.dist.worker import RoundResult, ShardWorker

__all__ = [
    "ShardPlan",
    "Shard",
    "ReduceOccupancy",
    "ShardWorker",
    "RoundResult",
    "BaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "Coordinator",
    "DistFitResult",
    "FleetManager",
    "CheckpointStore",
    "WorkerCrash",
    "WorkerStall",
    "WorkerFaultPlan",
    "WorkerFaultInjector",
]
