"""The reduce half: map-reduce Lloyd iterations over shard workers.

:class:`Coordinator` owns the distributed fit.  Per iteration it

1. broadcasts the centroids to every worker (one ``send_round``
   through the configured executor, with any fault directives for the
   round);
2. gathers per-shard labels / min distances as they arrive
   (``collect_round_stream``);
3. **merges with sequential-continuation semantics**: the shards' rows
   feed one :class:`StreamedAccumulator` in shard order, so the merged
   sums carry exactly the bits a single-worker fused pass over the full
   sample matrix would have produced — the association never depends
   on the shard count or executor.  This merge is the round's only
   accumulation: workers sum nothing;
4. applies the same :class:`UpdateStage` / convergence step the
   single-device estimator runs, its e1/e2 checksum guard verifying
   the merged sums against the merge accumulator's own checksums, so
   sharded fits are bit-identical to ``FTKMeans.fit`` with
   ``n_workers=1`` and a corrupted sum is caught where it is used.

**Checkpoint/restart.**  The coordinator snapshots ``(iteration,
centroids, convergence monitor, simulated clock, counters)`` into a
:class:`CheckpointStore` once before the first round (iteration 0) and
then every ``checkpoint_every`` iterations; each save is durable when
it returns.  When a
worker dies — a :class:`WorkerCrash` from the executor, whether injected
in-process or a real child-process death — the coordinator restores the
newest snapshot, restarts the executor (all workers rebuild from the
factory) and replays.  The Lloyd step is deterministic given ``(x, y)``
and worker SEU streams are keyed by ``(seed, worker, iteration)``, so
the replayed trajectory — and the final centroids — are bit-identical
to an uninterrupted run.

**Dataset segment.**  On the process executor the coordinator places
``x`` once in a shared-memory segment
(:class:`~repro.dist.shm.ShmSession`), and every worker factory
carries a reference instead of the rows — a cold spawn, a spare
promotion and a re-expand attach in O(1).  If the segment cannot be
created (``OSError``: ``/dev/shm`` full or absent) the fit warns and
the factories carry the rows.  Per-round payloads always travel over
the executor's pipes.

**Stream merge.**  Step 2 consumes results in **arrival** order
(``collect_round_stream``) but step 3 commits them strictly in
**shard** order: as soon as the next uncommitted shard's result is in,
its gather writes and merge feed run while later workers still
compute, so only the commit remainder past the last arrival occupies
the coordinator.  The commit order is the order the continuation merge
requires, so the sums never depend on which worker answered first
(proven by the suites in ``tests/distributed/test_reduce_topology.py``).
``DistFitResult.reduce_busy_s`` reports that occupancy: reduce work
counts only insofar as it extends past the round's last result arrival
(work hidden under a still-computing worker is free).

**Failure detection and elastic membership.**  ``round_timeout`` arms
the executors' round deadline: a worker that has not answered in time
is terminated and surfaces as a typed :class:`WorkerStall` (counted in
``PerfCounters.worker_stalls``) instead of hanging the fit forever —
the stalled-but-alive failure mode a blocking ``recv()`` could never
escape.  ``round_timeout="auto"`` sizes the deadline adaptively:
before each round the executor deadline is re-armed to
``ADAPTIVE_MULT`` × the median of the last ``ADAPTIVE_WINDOW`` observed
round times (floored at ``ADAPTIVE_FLOOR_S``); until
``ADAPTIVE_MIN_SAMPLES`` rounds have been observed no deadline is
armed, so a cold start can never be misread as a stall.  With ``elastic=True`` the coordinator recovers by *shrinking*:
it asks the :class:`ShardPlan` to re-plan the lost rows onto the
surviving workers (boundaries stay on the same GEMM-unit grid, shards
stay in row order), restores the newest checkpoint and continues with
fewer workers — no respawn of the dead.  Because per-row outputs are
shard-geometry-independent and the merge is a sequential continuation
in row order, the post-shrink trajectory stays bit-identical to
``n_workers=1`` for **any membership history**.  The same
:meth:`ShardPlan.replan` re-expands onto a larger member set when a
replacement spawns.  With ``elastic=False`` (default) recovery respawns
the full original worker set, as before.

**BLAS thread budget.**  Workers that run at the same time share the
host's cores, so on the ``thread`` and ``process`` backends each runs
at most ``max(1, cores // W)`` BLAS threads
(:func:`repro.core.blas.fleet_budget`, W the fit's starting fleet; a
shrink keeps the budget).  Process children set it at boot; in-process
workers share this process's count, so the fit holds the budget from
executor start to shutdown — the count is process-global, so the
caller's other threads run at the budget too while the fit lasts.  The
``serial`` backend runs one worker at a time and never touches the
count.  Every round reports the count its workers ran at; the widest
lands on :attr:`DistFitResult.blas_threads` and the ``fit`` span.

**Self-healing membership.**  ``target_workers`` / ``hot_spares`` /
``heartbeat_interval`` hand membership to a
:class:`~repro.dist.fleet.FleetManager`: between-round heartbeats catch
a wedged worker well before the round deadline would; a loss with
enough ready spares is healed by *promotion in place* (only the dead
ids rebuild — survivors keep running with their warm caches, the plan
never changes); otherwise the fit shrinks onto the survivors exactly
like the elastic path and *re-expands* back to the target size at a
later round boundary, replacements reusing the missing worker ids so a
full regrow restores the original shard plan.  Every transition
recovers through the same checkpoint-restore machinery, so the final
centroids stay bit-identical to ``n_workers=1`` regardless of the
membership history.  The snapshots are the only persisted state: a
replacement worker rebuilds its shard's per-fit invariants at boot, as
every first boot does.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.core.accumulate import StreamedAccumulator
from repro.core.blas import fleet_budget, thread_budget
from repro.core.config import KMeansConfig
from repro.core.convergence import ConvergenceMonitor
from repro.core.engine import transpose_blocked
from repro.core.update import UpdateStage
from repro.core.variants import _resolve_tile, build_assignment
from repro.dist.checkpoint import CheckpointStore
from repro.dist.executors import (BaseExecutor, ProcessExecutor,
                                  make_executor)
from repro.dist.faults import WorkerCrash, WorkerFaultInjector
from repro.dist.fleet import FleetManager
from repro.dist.plan import ShardPlan
from repro.dist.shm import ShmSession
from repro.dist.worker import RoundResult, build_worker
from repro.gpusim.clock import SimClock
from repro.gpusim.counters import PerfCounters
from repro.obs.events import EventBus
from repro.obs.trace import active_tracer

__all__ = ["Coordinator", "DistFitResult", "ReduceOccupancy"]


@dataclass
class DistFitResult:
    """Everything a sharded fit produced (owned arrays throughout)."""

    centroids: np.ndarray
    labels: np.ndarray
    best: np.ndarray
    counts: np.ndarray
    inertia: float
    inertia_history: list[float]
    n_iter: int
    converged: bool
    counters: PerfCounters
    clock: SimClock
    recoveries: int
    trace: list[dict] = field(default_factory=list)
    plan: ShardPlan | None = None        # final plan (post-shrink)
    executor: str = "serial"
    crash_recoveries: int = 0            # workers lost to death
    stall_recoveries: int = 0            # workers lost to the deadline
    shrinks: int = 0                     # elastic re-plans performed
    checkpoint_save_s: float = 0.0       # wall of every snapshot save
    promotions: int = 0                  # dead ids healed by hot spares
    expands: int = 0                     # workers regrown toward target
    heartbeat_failures: int = 0          # losses caught by heartbeat
    reduce_busy_s: float = 0.0           # coordinator reduce occupancy
    broadcast_bytes: int = 0             # pipe bytes coordinator->workers
    gather_bytes: int = 0                # pipe bytes workers->coordinator
    boot_stats: dict = field(default_factory=dict)  # boot walls by kind
    blas_threads: int = 0                # widest worker BLAS count (0: unknown)


class ReduceOccupancy:
    """Wall seconds of reduce work on the coordinator's critical path.

    A reduce segment costs occupancy only insofar as it extends past
    the round's **last result arrival** — commit work done while
    workers still compute hides under the slowest worker and is free.
    Per round: :meth:`begin_round`, :meth:`arrival` at each result
    arrival, :meth:`segment` after each coordinator-side reduce
    segment; :meth:`end_round` folds
    ``sum(max(0, t1 - max(t0, t_last)))`` over the round's segments
    into :attr:`busy_s`.  Blocking waits on the collect are never
    recorded — they are worker time, not coordinator work.
    """

    def __init__(self):
        self.busy_s = 0.0
        self._segments: list[tuple[float, float]] = []
        self._t_last = 0.0

    def begin_round(self) -> None:
        self._segments = []
        self._t_last = 0.0

    def arrival(self) -> None:
        self._t_last = time.monotonic()

    def segment(self, t0: float) -> None:
        self._segments.append((t0, time.monotonic()))

    def end_round(self) -> None:
        t_last = self._t_last
        self.busy_s += sum(max(0.0, t1 - max(t0, t_last))
                           for t0, t1 in self._segments)


@dataclass
class _FitState:
    """What a fit's rounds read and its recovery rewrites.

    ``y`` / ``monitor`` / ``clock`` / ``counters`` are the snapshotted
    Lloyd state (a restore replaces them); ``plan`` is the current
    membership; the trace and the loss and straggler tallies are
    restore-proof (the faults behind them are one-shot, so a replayed
    round runs clean and could never re-count them).
    """

    y: np.ndarray
    monitor: ConvergenceMonitor
    clock: SimClock
    counters: PerfCounters
    plan: ShardPlan
    round_times: deque
    trace: list[dict] = field(default_factory=list)
    recoveries: int = 0
    crash_workers_lost: int = 0
    stall_workers_lost: int = 0
    shrinks: int = 0
    heartbeat_failures: int = 0
    stragglers: int = 0           # tolerated (sub-deadline) stalls
    blas_threads: int = 0         # widest BLAS count a worker ran at

    def snapshot(self, iteration: int) -> dict:
        return {"iteration": iteration, "y": self.y.copy(),
                "monitor": self.monitor, "clock": self.clock,
                "counters": self.counters}

    def restore(self, snap: dict) -> None:
        self.y = snap["y"]
        self.monitor = snap["monitor"]
        self.clock = snap["clock"]
        self.counters = snap["counters"]


def _boot_stats(events: list[dict]) -> dict:
    """Aggregate a fit's boot events by kind (count / total / mean / max).

    ``events`` are the executor's per-handshake records ({"kind",
    "worker_id", "wall_s"}); the aggregate is what rides on
    :attr:`DistFitResult.boot_stats` and into the bench records, where
    the spare-promote / dataset-segment attach win over a cold spawn is
    visible.
    """
    stats: dict[str, dict] = {}
    for ev in events:
        s = stats.setdefault(ev["kind"],
                             {"count": 0, "total_s": 0.0, "max_s": 0.0})
        s["count"] += 1
        s["total_s"] += float(ev["wall_s"])
        s["max_s"] = max(s["max_s"], float(ev["wall_s"]))
    for s in stats.values():
        s["mean_s"] = s["total_s"] / s["count"]
    return stats


class Coordinator:
    """Sharded map-reduce Lloyd driver with checkpoint/restart.

    Parameters
    ----------
    cfg : KMeansConfig
        The fit configuration (``mode='fast'``; ``cfg.n_workers`` sets
        the requested shard count unless an explicit ``plan`` is given).
    executor : str or BaseExecutor, optional
        Backend name ('serial' / 'thread' / 'process') or a prebuilt
        executor; defaults to ``cfg.executor``.
    plan : ShardPlan, optional
        Explicit shard plan (tests); defaults to a unit-aligned balanced
        plan over ``cfg.n_workers``.
    checkpoint : CheckpointStore, optional
        Snapshot store; defaults to a fresh in-memory store.
    checkpoint_every : int, optional
        Snapshot period in iterations; defaults to ``cfg.checkpoint_every``
        (0 = only the iteration-0 snapshot, i.e. recovery restarts the
        fit from iteration 0).
    worker_faults : WorkerFaultInjector, optional
        Worker-level fault source for the rounds.
    max_recoveries : int
        Crash-recovery budget; one more crash raises the
        :class:`WorkerCrash` to the caller.
    elastic : bool, optional
        Recover from a worker loss by re-sharding onto the survivors
        instead of respawning the full set; defaults to ``cfg.elastic``.
    round_timeout : float or "auto", optional
        Seconds each executor round may take before unanswered workers
        are classified stalled (:class:`WorkerStall`); defaults to
        ``cfg.round_timeout`` (None = no deadline, the legacy blocking
        behaviour).  ``"auto"`` re-arms the deadline each round from a
        trailing median of observed round times (see the class
        ``ADAPTIVE_*`` attributes).
    target_workers : int, optional
        Fleet size the :class:`FleetManager` steers back toward after
        losses (promotion / re-expansion); defaults to
        ``cfg.target_workers``.  None (and ``hot_spares=0``) leaves
        membership to the legacy elastic/restart policy.
    hot_spares : int, optional
        Pre-provisioned replacement capacity (see
        :meth:`BaseExecutor.prewarm_spares`); defaults to
        ``cfg.hot_spares``.
    heartbeat_interval : float, optional
        Seconds between between-round liveness sweeps (None disables);
        defaults to ``cfg.heartbeat_interval``.
    spawn_hook : callable, optional
        ``spawn_hook(n_needed) -> int | None`` — budget/veto on booting
        replacement workers during re-expansion (promotion of
        already-booted spares never consults it).
    event_bus : :class:`repro.obs.events.EventBus`, optional
        Bus for the fit's structured events: fleet membership events
        (source ``"fleet"``), coordinator ``recovery`` / ``restore`` /
        ``re_expand`` events (source ``"coordinator"``) and
        ``checkpoint_save`` events (source ``"checkpoint"``).  A private
        bus is created when omitted; either way it is exposed as
        :attr:`event_bus`.
    tracer : :class:`repro.obs.trace.TraceRecorder`, optional
        Span recorder for the coordinator-side stage taxonomy ``fit ->
        {boot, broadcast, compute -> merge, recovery, round -> {update,
        checkpoint}}`` (see ``docs/observability.md``).  Off
        by default; when enabled it records names and clocks only —
        numerics are untouched, so traced fits stay bit-identical.
    """

    #: adaptive deadline = ADAPTIVE_MULT x trailing-median round time
    ADAPTIVE_MULT = 8.0
    #: never arm an adaptive deadline tighter than this (seconds)
    ADAPTIVE_FLOOR_S = 0.5
    #: trailing window of observed round times fed to the median
    ADAPTIVE_WINDOW = 8
    #: observed rounds required before any adaptive deadline is armed
    ADAPTIVE_MIN_SAMPLES = 2

    def __init__(self, cfg: KMeansConfig, *,
                 executor: str | BaseExecutor | None = None,
                 plan: ShardPlan | None = None,
                 checkpoint: CheckpointStore | None = None,
                 checkpoint_every: int | None = None,
                 worker_faults: WorkerFaultInjector | None = None,
                 max_recoveries: int = 8,
                 elastic: bool | None = None,
                 round_timeout: float | str | None = None,
                 target_workers: int | None = None,
                 hot_spares: int | None = None,
                 heartbeat_interval: float | None = None,
                 spawn_hook=None,
                 event_bus: EventBus | None = None, tracer=None):
        if cfg.mode != "fast":
            raise ValueError("sharded execution requires mode='fast'")
        self.cfg = cfg
        executor = executor if executor is not None else cfg.executor
        self.executor = (executor if isinstance(executor, BaseExecutor)
                         else make_executor(executor))
        self.plan = plan
        self.store = checkpoint if checkpoint is not None else CheckpointStore()
        self.checkpoint_every = (cfg.checkpoint_every
                                 if checkpoint_every is None
                                 else int(checkpoint_every))
        self.faults = worker_faults
        self.max_recoveries = int(max_recoveries)
        self.elastic = bool(cfg.elastic if elastic is None else elastic)
        round_timeout = (cfg.round_timeout if round_timeout is None
                         else round_timeout)
        self.adaptive_timeout = round_timeout == "auto"
        if self.adaptive_timeout:
            round_timeout = None  # armed per round from observed times
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError(
                f"round_timeout must be > 0, got {round_timeout}")
        self.round_timeout = (None if round_timeout is None
                              else float(round_timeout))
        self.executor.round_timeout = self.round_timeout
        self.event_bus = event_bus if event_bus is not None else EventBus()
        self.tracer = tracer
        self.fleet = FleetManager(
            target_workers=(cfg.target_workers if target_workers is None
                            else target_workers),
            hot_spares=(cfg.hot_spares if hot_spares is None
                        else hot_spares),
            heartbeat_interval=(cfg.heartbeat_interval
                                if heartbeat_interval is None
                                else heartbeat_interval),
            spawn_hook=spawn_hook, event_bus=self.event_bus)
        # the snapshot store and the executor publish on the fit's bus
        # unless pre-wired to one of their own
        if getattr(self.store, "event_bus", None) is None:
            self.store.event_bus = self.event_bus
        if getattr(self.executor, "event_bus", None) is None:
            self.executor.event_bus = self.event_bus

    # ------------------------------------------------------------------
    def _worker_cfg(self, m: int, k: int) -> KMeansConfig:
        """The per-worker config: tile='auto' resolved at the *full*
        problem shape, so every shard runs the same kernel geometry."""
        cfg = self.cfg
        if cfg.tile == "auto":
            return replace(cfg, tile=_resolve_tile(cfg, m, k))
        return cfg

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y0: np.ndarray, *,
            sample_weight: np.ndarray | None = None) -> DistFitResult:
        """Run the sharded Lloyd loop to convergence (or ``max_iter``).

        ``x`` and ``y0`` must already be validated in the kernel dtype
        (the estimator does this); ``sample_weight`` is float64 per
        sample or None.
        """
        cfg = self.cfg
        # resolved once per fit: the real recorder when tracing is on,
        # a shared no-op otherwise — span sites below cost nothing when
        # tracing is off (and never touch a disabled recorder at all)
        tr = active_tracer(self.tracer)
        m, k = x.shape
        n_clusters = cfg.n_clusters
        worker_cfg = self._worker_cfg(m, k)
        # one probe kernel pins the engine's GEMM row unit for this
        # geometry; shard boundaries align to it (the bit-identity key).
        # A bare unit_rows_for_tile(worker_cfg.tile) is not enough:
        # variant constructors substitute dtype/scheme-specific default
        # tiles when cfg.tile is None, and the unit must match the tile
        # the workers' engines will actually run.
        probe = build_assignment(worker_cfg, m, k, np.random.default_rng(0))
        plan = self.plan or ShardPlan.build(m, cfg.n_workers,
                                            probe.engine.unit_rows)
        base_seed = cfg.seed if cfg.seed is not None else 0

        # the dataset segment: only the process executor pickles its
        # factories, so only it shares x; the in-process backends read
        # the caller's arrays directly
        shm_session = None
        if isinstance(self.executor, ProcessExecutor):
            try:
                shm_session = ShmSession(x)
            except OSError as exc:
                warnings.warn(
                    f"shared-memory dataset segment unavailable ({exc}); "
                    f"worker factories will carry the rows",
                    RuntimeWarning, stacklevel=2)

        # the fleet's one transposed update operand, hoisted under the
        # engine's memory rule: it backs the merge accumulator's feed,
        # the only one of the round (workers accumulate nothing, so
        # they never hoist one)
        xt = None
        if x.nbytes <= probe.engine.operand_budget:
            with tr.span("operand_hoist", nbytes=int(x.nbytes)):
                xt = transpose_blocked(x)

        # functools.partial of a module-level function: picklable, so
        # the process executor can ship it under any start method.  The
        # plan is baked in, so every membership change builds a fresh
        # factory for the executor restart.  With the dataset segment
        # the factory carries a segment *ref* instead of the array —
        # booting a replacement (cold, spare promote, or re-expand)
        # pickles a few hundred bytes and attaches the shard as a view
        # in O(1).
        def make_factory(p: ShardPlan):
            data = ({"data_ref": shm_session.data_ref}
                    if shm_session is not None else {"x": x})
            return partial(build_worker, plan=p, cfg=worker_cfg,
                           n_clusters=n_clusters, base_seed=base_seed,
                           **data)

        updater = UpdateStage(cfg.device, cfg.dtype, dmr=cfg.dmr_update)
        merge_acc = StreamedAccumulator(n_clusters, k)
        merge_acc.bind_weights(sample_weight)
        if xt is not None:
            # contiguous feature rows for every feed (identical bits)
            merge_acc.bind_source_t(xt)
        labels = np.empty(m, dtype=np.int64)
        best = np.empty(m, dtype=cfg.dtype)

        st = _FitState(
            y=y0.astype(cfg.dtype) if y0.dtype != cfg.dtype else y0.copy(),
            monitor=ConvergenceMonitor(cfg.tol), clock=SimClock(),
            counters=PerfCounters(), plan=plan,
            round_times=deque(maxlen=self.ADAPTIVE_WINDOW))
        n_iter = 0
        converged = False
        upd = None
        # a reused store (e.g. a checkpoint_dir shared across fits) must
        # not leak a previous fit's snapshots into this one's recovery;
        # the iteration-0 snapshot is recovery's floor until a periodic
        # checkpoint supersedes it
        self.store.clear()
        t0 = time.perf_counter()
        self.store.save(0, st.snapshot(0))
        ckpt_save_s = time.perf_counter() - t0

        occ = ReduceOccupancy()
        # concurrent workers share the host's cores: cores // W BLAS
        # threads each, for the whole fit.  Process children adopt it at
        # boot; in-process workers run at this process's count, which
        # the fit holds until shutdown
        budget = (fleet_budget(plan.n_workers) if self.executor.concurrent
                  else None)
        self.executor.blas_threads = budget
        held = None if isinstance(self.executor, ProcessExecutor) else budget
        # the fit span brackets the whole round loop including the
        # shutdown tail
        with tr.span("fit", m=int(m), n_features=int(k),
                     n_workers=int(plan.n_workers)) as fit_sp, \
                thread_budget(held):
            try:
                self.fleet.attach(self.executor, plan)
                self.executor.reset_transport_stats()
                with tr.span("boot", n_workers=int(plan.n_workers)):
                    self.executor.start(make_factory(plan), plan.worker_ids)
                it = 1
                while it <= cfg.max_iter:
                    directives = (self.faults.directives_for_round(
                        it, st.plan.worker_ids)
                        if self.faults is not None else {})
                    t_send = self._send(tr, st, it, directives)
                    occ.begin_round()
                    try:
                        # arrival-ordered consume, shard-ordered commit:
                        # the per-shard merge spans nest under the
                        # compute span they genuinely overlap
                        with tr.span("compute", iteration=int(it)) as sp:
                            g0 = self.executor.gather_bytes
                            results = self._stream_reduce(
                                st.plan, x, labels, best, st.counters,
                                st.clock, merge_acc, occ, tr)
                            st.blas_threads = max(
                                [st.blas_threads]
                                + [r.blas_threads for r in results])
                            if sp is not None:
                                sp.meta["payload_bytes"] = (
                                    self.executor.gather_bytes - g0)
                        merged = merge_acc.packed()
                        merged_checks = merge_acc.checksums()
                        # between-round liveness sweep (rate-limited): a
                        # worker that answered its round but wedged
                        # after is caught here, not one full round
                        # budget later
                        self.fleet.maybe_heartbeat(it)
                    except WorkerCrash as crash:
                        it = self._recover(crash, st, make_factory, tr)
                        continue
                    st.round_times.append(time.monotonic() - t_send)
                    occ.end_round()
                    # the reduce streamed under compute, so the round
                    # span brackets update + tail only
                    with tr.span("round", iteration=int(it)):
                        # -- the exact single-device update + convergence
                        with tr.span("update"):
                            upd = updater.update(
                                x, labels, best, st.y, st.counters,
                                merged, merged_checks,
                                sample_weight=sample_weight)
                        for label, t in upd.timings:
                            st.clock.charge(label, t)
                        st.y = upd.centroids

                        # -- re-expansion: a shrunken fleet regrows toward
                        # the target at this round boundary (no round in
                        # flight; replacements reuse the missing ids, so
                        # a full regrow restores the original plan)
                        grown = self.fleet.maybe_expand(st.plan,
                                                        make_factory)
                        if grown is not None:
                            st.plan = grown
                            members = list(grown.worker_ids)
                            st.trace.append({"kind": "expand",
                                             "iteration": it,
                                             "members": members,
                                             "n_workers": grown.n_workers})
                            self.event_bus.publish(
                                "re_expand", source="coordinator",
                                iteration=int(it), members=members)

                        # -- tail ----------------------------------------
                        self._count_directives(st, directives, it)
                        best64 = best.astype(np.float64)
                        inertia = float(np.sum(best64 * sample_weight)
                                        if sample_weight is not None
                                        else np.sum(best64))
                        n_iter = it
                        converged = st.monitor.update(inertia, upd.shift)
                        if (self.checkpoint_every
                                and it % self.checkpoint_every == 0):
                            with tr.span("checkpoint", iteration=int(it)):
                                t0 = time.perf_counter()
                                self.store.save(it, st.snapshot(it))
                                ckpt_save_s += time.perf_counter() - t0
                    if converged:
                        break
                    it += 1
            finally:
                self.executor.shutdown()
                # unlink the dataset segment on the way out (error paths
                # included); a coordinator killed before reaching here
                # is covered by the resource tracker — either way
                # /dev/shm holds no strays once the fit is gone
                if shm_session is not None:
                    shm_session.close()
            if fit_sp is not None:
                fit_sp.meta["blas_threads"] = st.blas_threads

        # fold the restore-proof tallies into the final counter totals:
        # crashes and deadline-tripped stalls count the workers lost,
        # tolerated (sub-deadline) stall directives count as stragglers
        counters = st.counters
        counters.worker_crashes = st.crash_workers_lost
        counters.worker_stalls += st.stall_workers_lost + st.stragglers
        counters.checkpoint_restores = st.recoveries
        monitor = st.monitor
        return DistFitResult(
            centroids=st.y, labels=labels, best=best,
            counts=(upd.counts.copy() if upd is not None
                    else np.zeros(n_clusters, dtype=np.int64)),
            inertia=monitor.history[-1] if monitor.history else float("nan"),
            inertia_history=list(monitor.history), n_iter=n_iter,
            converged=converged, counters=counters, clock=st.clock,
            recoveries=st.recoveries, trace=st.trace, plan=st.plan,
            executor=getattr(self.executor, "name", "custom"),
            crash_recoveries=st.crash_workers_lost,
            stall_recoveries=st.stall_workers_lost, shrinks=st.shrinks,
            checkpoint_save_s=ckpt_save_s,
            promotions=self.fleet.promotions, expands=self.fleet.expands,
            heartbeat_failures=st.heartbeat_failures,
            reduce_busy_s=occ.busy_s,
            broadcast_bytes=int(self.executor.broadcast_bytes),
            gather_bytes=int(self.executor.gather_bytes),
            boot_stats=_boot_stats(self.executor.boot_events),
            blas_threads=st.blas_threads)

    # ------------------------------------------------------------------
    def _recover(self, crash: WorkerCrash, st: _FitState, make_factory,
                 tr) -> int:
        """Recover the fit from the workers ``crash`` lost; returns the
        iteration to resume from.

        Restores the store's newest snapshot (at worst the fit's
        iteration-0 one) into ``st``, then re-establishes a working
        fleet under one of three policies: the fleet manager promotes
        ready spares in place or shrinks onto the survivors; ``elastic``
        shrinks onto the survivors; otherwise the full membership
        respawns.  Re-raises ``crash`` once the recovery budget is
        spent.  The ``recovery`` span is a ``with`` block, so it is
        recorded on every exit, error paths included.
        """
        st.recoveries += 1
        st.crash_workers_lost += len(crash.crashed_ids)
        st.stall_workers_lost += len(crash.stalled_ids)
        detector = getattr(crash, "detector", "deadline")
        if detector == "heartbeat":
            st.heartbeat_failures += 1
        with tr.span("recovery", iteration=int(crash.iteration),
                     detector=detector):
            self.event_bus.publish("recovery", source="coordinator",
                                   iteration=int(crash.iteration),
                                   detector=detector,
                                   crashed=sorted(crash.crashed_ids),
                                   stalled=sorted(crash.stalled_ids))
            for wid in crash.crashed_ids:
                st.trace.append({"kind": "crash", "worker": wid,
                                 "iteration": crash.iteration,
                                 "reason": crash.reason,
                                 "detector": detector})
            for wid in crash.stalled_ids:
                st.trace.append({"kind": "stall_timeout", "worker": wid,
                                 "iteration": crash.iteration,
                                 "detector": detector,
                                 "round_timeout":
                                     self.executor.round_timeout})
            if st.recoveries > self.max_recoveries:
                raise crash
            restored_it, state = self.store.load_latest()
            st.restore(state)
            st.trace.append({"kind": "restore", "iteration": restored_it})
            self.event_bus.publish("restore", source="coordinator",
                                   iteration=int(restored_it))
            # the adaptive deadline's history describes the pre-recovery
            # membership: after an elastic shrink the surviving shards
            # are larger and an honest round is legitimately slower, so
            # the median must re-warm (deadline disarmed for the warm-up
            # rounds) instead of condemning healthy survivors as phantom
            # stalls round after round
            if self.adaptive_timeout:
                st.round_times.clear()
                self.executor.round_timeout = None
            survivors = tuple(w for w in st.plan.worker_ids
                              if w not in crash.failed_ids)
            if self.fleet.manages_membership and survivors:
                # fleet recovery: promote ready spares onto the dead ids
                # in place (plan unchanged, survivors keep running) or
                # shrink onto the survivors now and re-expand at a later
                # round boundary
                st.plan, action = self.fleet.recover(
                    st.plan, make_factory, crash)
            elif self.elastic and survivors:
                # shrink: the lost rows re-shard onto the survivors
                # (same unit grid, same row order, so the merge bits
                # never move); only survivors respawn
                st.plan = st.plan.replan(survivors)
                self.executor.restart(make_factory(st.plan),
                                      st.plan.worker_ids)
                action = "shrink"
            else:
                # non-elastic (or every member lost at once): respawn
                # the current membership in full
                self.executor.restart()
                action = "restart"
            if action == "promote":
                st.trace.append({"kind": "promote",
                                 "iteration": crash.iteration,
                                 "promoted": sorted(crash.failed_ids),
                                 "n_workers": st.plan.n_workers})
            elif action == "shrink":
                st.shrinks += 1
                st.trace.append({"kind": "shrink",
                                 "iteration": crash.iteration,
                                 "lost": sorted(crash.failed_ids),
                                 "survivors": list(st.plan.worker_ids),
                                 "n_workers": st.plan.n_workers})
        return restored_it + 1

    def _send(self, tr, st: _FitState, it: int, directives: dict) -> float:
        """Broadcast round ``it`` of ``st.y`` under a ``broadcast``
        span; returns the send time."""
        self._arm_deadline(st.round_times)
        t_send = time.monotonic()
        with tr.span("broadcast", iteration=int(it)) as sp:
            b0 = self.executor.broadcast_bytes
            self.executor.send_round(st.y, it, directives)
            if sp is not None:
                sp.meta["payload_bytes"] = self.executor.broadcast_bytes - b0
        return t_send

    def _arm_deadline(self, round_times: deque) -> None:
        """Re-arm the executor deadline under ``round_timeout='auto'``.

        A multiple of the trailing median of observed round times; no
        deadline until enough rounds have been observed (a cold start
        must never be misread as a stall), and never tighter than the
        floor.
        """
        if not self.adaptive_timeout:
            return
        if len(round_times) >= self.ADAPTIVE_MIN_SAMPLES:
            self.executor.round_timeout = max(
                self.ADAPTIVE_FLOOR_S,
                self.ADAPTIVE_MULT * float(np.median(round_times)))

    @staticmethod
    def _charge_round(clock: SimClock, results: list[RoundResult]) -> None:
        """Charge the slowest worker's modelled kernel times: shards run
        concurrently on independent devices, so the round's simulated
        duration is the makespan, not the sum."""
        slow = max(results, key=lambda r: r.sim_time_s)
        for label, t in slow.timings:
            clock.charge(label, t)

    def _stream_reduce(self, cur_plan: ShardPlan, x: np.ndarray,
                       labels: np.ndarray, best: np.ndarray,
                       counters: PerfCounters, clock: SimClock,
                       merge_acc: StreamedAccumulator,
                       occ: ReduceOccupancy, tr) -> list[RoundResult]:
        """The round's collect and merge: arrival-ordered consume,
        shard-ordered commit; returns the results in shard order.

        Results are buffered as they arrive and committed strictly in
        shard order — the order the sequential-continuation merge
        requires, regardless of which worker answered first — so each
        committed shard's gather writes and merge feed overlap the
        still-computing workers.  The executor raises its round failure
        only after the stream ends; everything committed by then is
        discarded through the normal recovery path (the next round
        resets the accumulator and rewrites the gather arrays).
        """
        shards = cur_plan.shards
        arrived: dict[int, RoundResult] = {}
        results: list[RoundResult] = [None] * len(shards)
        next_pos = 0
        merge_acc.reset()
        for wid, res in self.executor.collect_round_stream():
            occ.arrival()
            arrived[wid] = res
            while (next_pos < len(shards)
                   and shards[next_pos].worker_id in arrived):
                shard = shards[next_pos]
                r = arrived.pop(shard.worker_id)
                results[next_pos] = r
                t0 = time.monotonic()
                with tr.span("merge", worker=int(shard.worker_id),
                             lo=int(shard.lo), hi=int(shard.hi)):
                    labels[shard.lo:shard.hi] = r.labels
                    best[shard.lo:shard.hi] = r.best
                    counters.merge(r.counters)
                    merge_acc.feed(x[shard.slice], labels[shard.slice])
                occ.segment(t0)
                next_pos += 1
        if next_pos != len(shards):  # pragma: no cover - defensive
            raise RuntimeError("round stream ended with uncommitted "
                               "shards and no failure raised")
        self._charge_round(clock, results)
        return results

    @staticmethod
    def _count_directives(st: _FitState, directives: dict[int, dict],
                          it: int) -> None:
        """Tally the tolerated stalls of a *completed* round.

        Tallies go to the restore-proof ``st.stragglers``, not the
        (checkpoint-snapshotted) counters: the directives are one-shot,
        so a replayed round runs clean and could never re-count them.
        """
        for wid, d in directives.items():
            if d.get("stall_s"):
                st.stragglers += 1
                st.trace.append({"kind": "stall", "worker": wid,
                                 "iteration": it,
                                 "stall_s": d["stall_s"]})
