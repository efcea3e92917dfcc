"""FTKMeans — the public estimator.

An sklearn-style interface over the simulated-GPU K-means of the paper::

    from repro import FTKMeans

    km = FTKMeans(n_clusters=16, variant="ft", dtype="float32",
                  device="a100", mode="fast", seed=0)
    km.fit(X)
    km.labels_, km.cluster_centers_, km.inertia_, km.sim_time_s_

``variant`` selects the paper's optimisation rung (naive → v1 → v2 → v3 →
tensorop → ft); ``p_inject`` turns on SEU error injection; ``mode``
chooses tile-accurate ('functional') or vectorised ('fast') execution.
The fitted model also exposes the simulated clock (``sim_time_s_``), the
per-kernel timing log (``timing_log_``) and the merged performance
counters (``counters_``) so benchmarks can report paper-style GFLOPS.

Beyond full-batch Lloyd, the estimator clusters **streams**:

* :meth:`FTKMeans.partial_fit` consumes one mini-batch per call
  (sklearn ``MiniBatchKMeans`` semantics: per-cluster learning-rate
  decay, configurable empty-cluster reassignment, EWA-inertia
  convergence) — fault injection and ABFT checks run per batch, and the
  per-batch fault activity is surfaced on ``fault_trace_``;
* ``batch_size=...`` makes :meth:`fit` run mini-batch K-means over
  shuffled epochs of the training set through the same online step.

Both :meth:`fit` and :meth:`partial_fit` accept ``sample_weight``
(weighted sums/counts through the same bit-exact streamed accumulation).

With ``n_workers > 1`` the full-batch fit shards across simulated
devices/processes through :mod:`repro.dist` — map-reduce Lloyd rounds
whose coordinator-side merge is checked by the same e1/e2 update guard,
and checkpoint/restart recovery from worker loss — while staying
bit-identical to the single-worker fast path.

See ``docs/streaming.md`` for the streaming/determinism contract and
``docs/distributed.md`` for the sharded execution contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.accumulate import StreamedAccumulator
from repro.core.assignment import AssignmentResult
from repro.core.config import KMeansConfig
from repro.core.convergence import ConvergenceMonitor, EwaInertiaMonitor
from repro.core.initializers import initialize
from repro.core.update import UpdateStage
from repro.core.validation import (
    validate_centroids,
    validate_data,
    validate_weights,
)
from repro.core.variants import build_assignment
from repro.gemm.shapes import distance_flops
from repro.gpusim.clock import SimClock
from repro.gpusim.counters import PerfCounters
from repro.obs.trace import active_tracer

__all__ = ["FTKMeans"]


class FTKMeans:
    """K-means estimator running on the simulated GPU.

    Parameters mirror :class:`repro.core.config.KMeansConfig`; see its
    docstring for the full list.  Additional constructor conveniences:

    ``init_centroids``
        Optional explicit (K x N) starting centroids (overrides ``init``).
    ``worker_faults``
        Optional :class:`repro.dist.WorkerFaultInjector` driving
        worker-level crash/stall/wedge injection in sharded
        fits (``n_workers > 1``).
    ``checkpoint_dir``
        Directory for the sharded fit's checkpoint snapshots; None
        (default) keeps them in memory.

    Fitted attributes (sklearn naming): ``cluster_centers_``, ``labels_``,
    ``inertia_``, ``n_iter_``; plus simulator outputs ``sim_time_s_``,
    ``assignment_time_s_``, ``timing_log_``, ``counters_``,
    ``inertia_history_``.

    Online attributes (after :meth:`partial_fit` or a ``batch_size``
    fit): ``n_batches_seen_``, ``converged_``, ``ewa_inertia_``,
    ``cluster_counts_``, ``fault_trace_``.

    Sharded-fit attributes (after a ``n_workers > 1`` fit):
    ``n_workers_`` (the *final* effective worker count — smaller than
    requested after an un-regrown elastic shrink), ``dist_recoveries_``,
    ``dist_stall_recoveries_``, ``dist_shrinks_``, ``dist_trace_``,
    the self-healing tallies ``dist_promotions_`` (dead ids healed in
    place from hot spares), ``dist_expands_`` (workers regrown toward
    ``target_workers``) and ``dist_heartbeat_failures_`` (losses caught
    by the between-round heartbeat rather than the round deadline),
    plus the checkpoint overhead ``dist_checkpoint_save_s_`` (wall
    seconds of every synchronous snapshot save), ``dist_reduce_busy_s_``
    (coordinator occupancy of the reduce: wall seconds of merge work
    not hidden under still-computing workers), the transport trio
    ``dist_broadcast_bytes_`` / ``dist_gather_bytes_`` (per-fit bytes
    of round payloads moved over the process executor's worker pipes
    in each direction; 0 on the in-process backends) and
    ``dist_boot_stats_`` (worker boot/attach walls
    aggregated by kind: cold spawn vs spare promote vs warm
    reconfigure) and ``dist_blas_threads_`` (the widest BLAS thread
    count any worker ran at; ``thread`` / ``process`` fleets hold each
    worker to ``cores // n_workers``, see :mod:`repro.core.blas`; 0
    when the count is unknown).

    ``spawn_hook`` (constructor-only, like ``worker_faults``) is the
    fleet manager's budget callback for booting replacement workers
    during re-expansion: ``spawn_hook(n_needed) -> int | None``.

    ``tracer`` (constructor-only) attaches a
    :class:`repro.obs.trace.TraceRecorder` recording the fit's stage
    spans — ``fit -> iteration -> {assign_chunk, gemm, update_feed,
    bounds_refresh}`` on the single-worker path, the coordinator
    taxonomy on sharded fits.  Off by default; tracing reads clocks
    only, so traced fits are bit-identical to untraced ones.
    ``event_bus`` (constructor-only) supplies a
    :class:`repro.obs.events.EventBus` for the sharded fit's
    fleet / coordinator / checkpoint events.  Both stay off the
    picklable worker-shipped config, like ``worker_faults``.
    """

    def __init__(self, n_clusters: int = 8, *, variant: str = "tensorop",
                 dtype="float32", device="a100", mode: str = "fast",
                 tile=None, abft="none", p_inject: float = 0.0,
                 dmr_update: bool = True, use_tf32: bool = True,
                 chunk_bytes: int | None = None, prune: str = "auto",
                 batch_size: int | None = None,
                 n_workers: int = 1, executor: str = "serial",
                 checkpoint_every: int = 0,
                 round_timeout=None, elastic: bool = False,
                 target_workers: int | None = None, hot_spares: int = 0,
                 heartbeat_interval: float | None = None,
                 reassignment_mode: str = "deterministic",
                 reassignment_ratio: float = 0.01,
                 init: str = "k-means++", max_iter: int = 50,
                 tol: float = 1e-4, seed: int | None = None,
                 init_centroids=None, worker_faults=None,
                 checkpoint_dir=None, spawn_hook=None,
                 tracer=None, event_bus=None):
        self.config = KMeansConfig(
            n_clusters=n_clusters, variant=variant, dtype=np.dtype(dtype),
            device=device, mode=mode, tile=tile, abft=abft,
            p_inject=p_inject, dmr_update=dmr_update, use_tf32=use_tf32,
            chunk_bytes=chunk_bytes, prune=prune, batch_size=batch_size,
            n_workers=n_workers, executor=executor,
            checkpoint_every=checkpoint_every,
            round_timeout=round_timeout, elastic=elastic,
            target_workers=target_workers, hot_spares=hot_spares,
            heartbeat_interval=heartbeat_interval,
            reassignment_mode=reassignment_mode,
            reassignment_ratio=reassignment_ratio,
            init=init, max_iter=max_iter, tol=tol, seed=seed)
        self._init_centroids = init_centroids
        self._worker_faults = worker_faults
        self._checkpoint_dir = checkpoint_dir
        # kept off the (picklable, worker-shipped) config, like
        # worker_faults: hooks are caller-side callables
        self._spawn_hook = spawn_hook
        self._tracer = tracer
        self._event_bus = event_bus

    # ------------------------------------------------------------------
    def _attach_tracer(self, assigner) -> None:
        """Hand the estimator's tracer to the assigner's engine (fast
        mode; functional variants have no engine and record no engine
        spans)."""
        if self._tracer is None:
            return
        engine = getattr(assigner, "engine", None)
        if engine is not None:
            engine.tracer = self._tracer

    def _run_init(self, x: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """The configured ``init`` on ``x``, under an ``init`` span."""
        cfg = self.config
        with active_tracer(self._tracer).span("init", method=cfg.init,
                                              m=int(x.shape[0])):
            return initialize(x, cfg.n_clusters, cfg.init, rng)

    # ------------------------------------------------------------------
    def fit(self, x, sample_weight=None) -> "FTKMeans":
        """Cluster ``x``, full-batch Lloyd or mini-batch.

        Runs Lloyd iterations until convergence or ``max_iter``; with
        ``batch_size`` set, runs mini-batch K-means instead (shuffled
        epochs of online updates, EWA-inertia convergence — see
        :meth:`partial_fit` for the per-batch step).  With
        ``n_workers > 1`` the full-batch fit shards across workers
        through :mod:`repro.dist` (bit-identical result, plus
        checkpoint/restart fault tolerance).

        Parameters
        ----------
        x : array-like of shape (n_samples, n_features)
            Training samples; validated to a finite C-contiguous array
            of the configured dtype.
        sample_weight : array-like of shape (n_samples,), optional
            Non-negative per-sample weights.  Weighted centroid sums
            and counts run through the same bit-exact streamed
            accumulation; inertia becomes ``sum(w_i * d_i)``.

        Returns
        -------
        FTKMeans
            ``self``, with the fitted attributes populated.
        """
        cfg = self.config
        self._reset_online_state()
        x = validate_data(x, cfg.dtype)
        m, k = x.shape
        w = validate_weights(sample_weight, m)
        if cfg.n_clusters > m:
            raise ValueError(
                f"n_clusters={cfg.n_clusters} exceeds n_samples={m}")
        if cfg.batch_size is not None:
            return self._fit_minibatch(x, w)
        if cfg.n_workers > 1:
            return self._fit_dist(x, w)
        # the fit -> {init, iteration} spans of the single-worker
        # taxonomy; the engine's assign_chunk/gemm/update_feed/
        # bounds_refresh spans nest under each iteration via the tracer
        # attached to the assigner
        tr = active_tracer(self._tracer)
        with tr.span("fit", m=int(m), n_features=int(k),
                     n_clusters=int(cfg.n_clusters)):
            return self._fit_lloyd(x, w, tr)

    def _fit_lloyd(self, x: np.ndarray, w: np.ndarray | None,
                   tr) -> "FTKMeans":
        """Full-batch single-worker Lloyd fit: the body of :meth:`fit`'s
        ``fit`` span, whose active tracer ``tr`` it records into."""
        cfg = self.config
        m, k = x.shape
        rng = np.random.default_rng(cfg.seed)

        if self._init_centroids is not None:
            y = validate_centroids(self._init_centroids, cfg.n_clusters, k,
                                   cfg.dtype)
        else:
            y = self._run_init(x, rng)

        assigner = build_assignment(cfg, m, k, rng)
        self._attach_tracer(assigner)
        updater = UpdateStage(cfg.device, cfg.dtype, dmr=cfg.dmr_update)
        # the assignment pass feeds the update sums (the fast engine per
        # chunk inside its loop, functional kernels once per pass)
        acc = StreamedAccumulator(cfg.n_clusters, k)
        acc.bind_weights(w)
        clock = SimClock()
        counters = PerfCounters()
        monitor = ConvergenceMonitor(cfg.tol)
        labels = np.zeros(m, dtype=np.int64)

        n_iter = 0
        try:
            # hoist fit-invariants (sample norms, output buffers, chunk
            # and injector block plans) once; every iteration reuses them
            assigner.begin_fit(x, cfg.n_clusters)
            for n_iter in range(1, cfg.max_iter + 1):
                with tr.span("iteration", iteration=int(n_iter)):
                    acc.reset()
                    res: AssignmentResult = assigner.assign(x, y,
                                                            accumulator=acc)
                    labels = res.labels
                    counters.merge(res.counters)
                    for label, t in res.timings:
                        clock.charge(label, t)

                    upd = updater.update(
                        x, labels, res.min_sqdist, y, counters,
                        acc.packed(), acc.checksums(), sample_weight=w)
                    for label, t in upd.timings:
                        clock.charge(label, t)
                    y = upd.centroids
                    # hand the per-centroid movement to the pruning
                    # bounds; identity-keyed to this y, so it applies
                    # exactly to the next iteration's assignment pass
                    # (bits unchanged — the bounds would self-compute
                    # the same vector)
                    assigner.feed_centroid_shifts(upd.shifts, y)

                    best64 = res.min_sqdist.astype(np.float64)
                    inertia = float(np.sum(best64 * w) if w is not None
                                    else np.sum(best64))
                    if monitor.update(inertia, upd.shift):
                        break
        finally:
            # even on interrupt/error: a (partially) fitted model must
            # not pin the training array or scratch, and predict/score
            # must recompute norms fresh
            assigner.end_fit()
        self.cluster_centers_ = y
        self.cluster_counts_ = upd.counts.copy()
        # the fast path hands out the engine's reusable buffer; detach it
        # so later predict() passes cannot overwrite fitted state
        self.labels_ = labels.copy()
        self.inertia_ = monitor.history[-1]
        self.inertia_history_ = list(monitor.history)
        self.n_iter_ = n_iter
        self.sim_time_s_ = clock.elapsed_s
        self.assignment_time_s_ = clock.total("distance")
        self.timing_log_ = list(clock.log)
        self.counters_ = counters
        self._assigner = assigner
        return self

    # -- sharded multi-worker fit --------------------------------------
    def _fit_dist(self, x: np.ndarray, w: np.ndarray | None) -> "FTKMeans":
        """Full-batch fit sharded across ``n_workers`` (repro.dist).

        The coordinator runs map-reduce Lloyd rounds with a
        sequential-continuation merge, so the result is bit-identical
        to the single-worker fast path; worker loss is absorbed by
        checkpoint/restart.
        """
        # imported lazily: dist sits above core in the layering
        from repro.dist import CheckpointStore, Coordinator

        cfg = self.config
        m, k = x.shape
        rng = np.random.default_rng(cfg.seed)
        if self._init_centroids is not None:
            y0 = validate_centroids(self._init_centroids, cfg.n_clusters, k,
                                    cfg.dtype)
        else:
            y0 = self._run_init(x, rng)

        coord = Coordinator(
            cfg, checkpoint=CheckpointStore(self._checkpoint_dir),
            worker_faults=self._worker_faults,
            spawn_hook=self._spawn_hook,
            event_bus=self._event_bus,
            tracer=self._tracer)
        res = coord.fit(x, y0, sample_weight=w)

        self.cluster_centers_ = res.centroids
        self.cluster_counts_ = res.counts
        self.labels_ = res.labels
        self.inertia_ = res.inertia
        self.inertia_history_ = res.inertia_history
        self.n_iter_ = res.n_iter
        self.sim_time_s_ = res.clock.elapsed_s
        self.assignment_time_s_ = res.clock.total("distance")
        self.timing_log_ = list(res.clock.log)
        self.counters_ = res.counters
        self.n_workers_ = res.plan.n_workers
        self.dist_recoveries_ = res.recoveries
        self.dist_stall_recoveries_ = res.stall_recoveries
        self.dist_shrinks_ = res.shrinks
        self.dist_promotions_ = res.promotions
        self.dist_expands_ = res.expands
        self.dist_heartbeat_failures_ = res.heartbeat_failures
        self.dist_trace_ = res.trace
        self.dist_checkpoint_save_s_ = res.checkpoint_save_s
        self.dist_reduce_busy_s_ = res.reduce_busy_s
        self.dist_broadcast_bytes_ = res.broadcast_bytes
        self.dist_gather_bytes_ = res.gather_bytes
        self.dist_boot_stats_ = res.boot_stats
        self.dist_blas_threads_ = res.blas_threads
        # predict/score run single-pass through an ordinary assigner
        self._assigner = build_assignment(cfg, m, k, rng)
        return self

    # -- streaming / mini-batch ----------------------------------------
    def partial_fit(self, x, sample_weight=None) -> "FTKMeans":
        """One online mini-batch update (sklearn ``partial_fit`` style).

        The first call initialises the centroids (from
        ``init_centroids``, a previously fitted model, or the configured
        ``init`` on the batch itself) and builds the per-stream state;
        every call then runs one assignment pass over the batch through
        the configured variant — fault injection and ABFT checks apply
        per batch exactly as in :meth:`fit` — followed by the mini-batch
        centroid update

        ``c_j ← c_j + (sum_j − n_j · c_j) / N_j``

        where ``n_j`` is the batch count (weight total, with
        ``sample_weight``) and ``N_j`` the running total: the
        per-cluster learning rate ``n_j / N_j`` decays as a cluster
        accumulates evidence.  Starved clusters are re-seeded per the
        configured ``reassignment_mode`` ('deterministic' worst-fit
        default; 'count_threshold' / 'random' à la sklearn's
        ``reassignment_ratio``).  Convergence is tracked on the EWA of
        per-sample batch inertia
        (:class:`repro.core.convergence.EwaInertiaMonitor`) and surfaced
        as ``converged_`` — advisory only; ``partial_fit`` never refuses
        a batch.  Per-batch fault activity (flips injected / detected /
        corrected) accumulates on ``fault_trace_``.

        Parameters
        ----------
        x : array-like of shape (batch_size, n_features)
            One mini-batch.  The first batch must contain at least
            ``n_clusters`` samples unless explicit starting centroids
            are available.
        sample_weight : array-like of shape (batch_size,), optional
            Non-negative per-sample weights for this batch.

        Returns
        -------
        FTKMeans
            ``self``; ``cluster_centers_``/``labels_``/``inertia_``
            reflect the state after this batch.
        """
        cfg = self.config
        if cfg.n_workers > 1:
            raise ValueError(
                "sharded execution (n_workers > 1) covers the full-batch "
                "fit only; partial_fit runs single-worker")
        x = validate_data(x, cfg.dtype)
        w = validate_weights(sample_weight, x.shape[0])
        if self._online is None:
            self._init_online(x)
        elif x.shape[1] != self._online["centers64"].shape[1]:
            raise ValueError(
                f"X has {x.shape[1]} features, model has "
                f"{self._online['centers64'].shape[1]}")
        self._minibatch_step(x, w)
        return self

    # ------------------------------------------------------------------
    @property
    def _online(self) -> dict | None:
        return getattr(self, "_online_state", None)

    def _reset_online_state(self) -> None:
        self._online_state = None
        # a fresh full-batch fit must not leave a dead stream's
        # attributes readable on the estimator
        for attr in ("converged_", "n_batches_seen_", "ewa_inertia_",
                     "fault_trace_"):
            self.__dict__.pop(attr, None)

    def _init_online(self, x: np.ndarray) -> None:
        """Build the per-stream state from the first mini-batch."""
        cfg = self.config
        m, k = x.shape
        rng = np.random.default_rng(cfg.seed)
        if self._init_centroids is not None:
            y = validate_centroids(self._init_centroids, cfg.n_clusters, k,
                                   cfg.dtype)
            counts = np.zeros(cfg.n_clusters, dtype=np.float64)
        elif hasattr(self, "cluster_centers_"):
            # warm start: continue a previously fitted model online
            if self.cluster_centers_.shape[1] != k:
                raise ValueError(
                    f"X has {k} features, model has "
                    f"{self.cluster_centers_.shape[1]}")
            y = self.cluster_centers_
            counts = getattr(
                self, "cluster_counts_",
                np.zeros(cfg.n_clusters)).astype(np.float64).copy()
        else:
            if cfg.n_clusters > m:
                raise ValueError(
                    f"first batch has {m} samples < n_clusters="
                    f"{cfg.n_clusters}; supply init_centroids or a "
                    f"larger first batch")
            y = self._run_init(x, rng)
            counts = np.zeros(cfg.n_clusters, dtype=np.float64)
        self._build_online_state(y, counts, m, k, rng)

    def _build_online_state(self, y: np.ndarray, counts: np.ndarray,
                            batch_m: int, n_features: int,
                            rng: np.random.Generator) -> None:
        """The shared per-stream state of partial_fit and batch_size fit."""
        cfg = self.config
        self._online_state = {
            "centers64": y.astype(np.float64),
            "counts": counts,
            "assigner": build_assignment(cfg, batch_m, n_features, rng),
            "updater": UpdateStage(cfg.device, cfg.dtype,
                                   dmr=cfg.dmr_update),
            # pooled across batches (reset per step), like fit()'s
            # per-iteration reuse
            "accumulator": StreamedAccumulator(cfg.n_clusters, n_features),
            "monitor": EwaInertiaMonitor(cfg.tol),
            "clock": SimClock(),
            "counters": PerfCounters(),
            "batch_inertias": [],
            "samples_assigned": 0,
            # the stream's RNG (random reassignment draws); shared with
            # the epoch shuffles of a batch_size fit, so a fixed seed
            # reproduces the whole stream
            "rng": rng,
            "fault_trace": [],
        }
        self._attach_tracer(self._online_state["assigner"])
        self._assigner = self._online_state["assigner"]
        self.n_batches_seen_ = 0
        self.converged_ = False
        self.fault_trace_ = self._online_state["fault_trace"]

    #: counter fields whose per-batch deltas form the fault trace
    _TRACE_FIELDS = ("errors_injected", "errors_detected",
                     "errors_corrected", "dmr_mismatches")

    def _minibatch_step(self, x: np.ndarray,
                        w: np.ndarray | None = None) -> None:
        """Assign one batch and apply the decayed online update."""
        cfg = self.config
        state = self._online_state
        m, k = x.shape
        centers64 = state["centers64"]
        y = centers64.astype(cfg.dtype)
        acc = state["accumulator"]
        acc.reset()
        acc.bind_weights(w)
        fault_snap = {f: getattr(state["counters"], f)
                      for f in self._TRACE_FIELDS}
        res: AssignmentResult = state["assigner"].assign(x, y,
                                                         accumulator=acc)
        state["counters"].merge(res.counters)
        for label, t in res.timings:
            state["clock"].charge(label, t)
        labels = res.labels
        best = res.min_sqdist

        updater: UpdateStage = state["updater"]
        sums = updater.accumulate_protected(
            x, labels, cfg.n_clusters, state["counters"], acc.packed(),
            acc.checksums(), sample_weight=w)
        bsums, bcounts = sums[:, :k], sums[:, k]
        counts = state["counts"]
        new_counts = counts + bcounts
        nz = bcounts > 0
        # per-cluster decayed step: lr_j = n_j / N_j (sklearn MiniBatch)
        centers64[nz] += ((bsums[nz] - bcounts[nz, None] * centers64[nz])
                          / new_counts[nz, None])
        state["counts"] = new_counts
        if w is not None:
            state["weighted"] = True

        self._reassign_starved(x, best, w, state)
        for label, t in updater.estimate(m, cfg.n_clusters, k):
            state["clock"].charge(label, t)
        state["counters"].kernels_launched += 2

        batch_index = self.n_batches_seen_
        delta = {f: getattr(state["counters"], f) - fault_snap[f]
                 for f in self._TRACE_FIELDS}
        if any(delta.values()):
            state["fault_trace"].append({"batch": batch_index,
                                         "injected": delta["errors_injected"],
                                         "detected": delta["errors_detected"],
                                         "corrected": delta["errors_corrected"],
                                         "dmr_mismatches":
                                             delta["dmr_mismatches"]})
        self.fault_trace_ = state["fault_trace"]

        best64 = best.astype(np.float64)
        inertia = float(np.sum(best64 * w) if w is not None
                        else np.sum(best64))
        # weighted streams normalise the EWA by the batch weight total,
        # so convergence tracks fit quality, not the weight scale.  An
        # all-zero-weight batch carries no evidence at all: it must not
        # touch the monitor (its weighted inertia of 0 would fake a
        # huge improvement), and converged_ keeps its last verdict.
        ewa_norm = m if w is None else float(w.sum())
        if ewa_norm > 0:
            self.converged_ = state["monitor"].update(inertia, ewa_norm)
        state["batch_inertias"].append(inertia)
        state["samples_assigned"] += m
        self.n_batches_seen_ += 1
        self.cluster_centers_ = centers64.astype(cfg.dtype)
        # weighted streams report the float64 running weight totals;
        # unweighted streams keep the integer sample counts
        self.cluster_counts_ = (state["counts"].copy()
                                if state.get("weighted")
                                else state["counts"].astype(np.int64))
        self.labels_ = labels.copy()
        self.inertia_ = inertia
        self.ewa_inertia_ = state["monitor"].ewa
        # absolute per-batch inertias: same units as inertia_ and as the
        # full-batch fit's history (the monitor's history is per-sample)
        self.inertia_history_ = list(state["batch_inertias"])
        self.sim_time_s_ = state["clock"].elapsed_s
        self.assignment_time_s_ = state["clock"].total("distance")
        self.timing_log_ = list(state["clock"].log)
        self.counters_ = state["counters"]

    def _reassign_starved(self, x: np.ndarray, best: np.ndarray,
                          w: np.ndarray | None, state: dict) -> None:
        """Re-seed starved clusters per the configured policy.

        * ``deterministic`` — clusters whose running weight is exactly
          zero take the batch's worst-fit samples in stable order (a
          fixed seed reproduces the stream bit-for-bit);
        * ``count_threshold`` — clusters below ``reassignment_ratio`` x
          the largest running count are also re-seeded, still from the
          deterministic worst-fit order;
        * ``random`` — the below-threshold clusters re-seed from random
          batch samples drawn with probability proportional to (weighted)
          squared distance, sklearn's ``reassignment_ratio`` behaviour;
          draws come from the stream's RNG, so a fixed seed still
          reproduces the stream.
        """
        cfg = self.config
        counts = state["counts"]
        centers64 = state["centers64"]
        m = x.shape[0]
        if cfg.reassignment_mode == "deterministic":
            starved = np.flatnonzero(counts == 0)
        else:
            threshold = cfg.reassignment_ratio * float(counts.max())
            starved = np.flatnonzero(counts < threshold)
            if starved.size == 0:
                starved = np.flatnonzero(counts == 0)
        if starved.size == 0:
            return
        if cfg.reassignment_mode == "random":
            p = best.astype(np.float64)
            if w is not None:
                p = p * w
            total = float(p.sum())
            size = min(starved.size, m)
            # replace=False needs at least `size` nonzero probabilities;
            # degenerate batches (most points on a centroid) fall back
            # to a uniform draw instead of crashing the stream
            if total <= 0 or np.count_nonzero(p) < size:
                probs = None
            else:
                probs = p / total
            donors = state["rng"].choice(m, size=size, replace=False,
                                         p=probs)
        else:
            order = np.argsort(best, kind="stable")[::-1]
            donors = order[: starved.size]
        reseed = starved[: donors.size]
        centers64[reseed] = x[donors].astype(np.float64)
        counts[reseed] = np.maximum(counts[reseed], 1.0)

    def _fit_minibatch(self, x: np.ndarray,
                       w: np.ndarray | None = None) -> "FTKMeans":
        """Mini-batch K-means over shuffled epochs (``batch_size`` set)."""
        cfg = self.config
        m, k = x.shape
        bs = min(cfg.batch_size, m)
        rng = np.random.default_rng(cfg.seed)
        # initialise from the full training set (first batch would do,
        # but the full set is available — use it like sklearn does)
        if self._init_centroids is not None:
            y = validate_centroids(self._init_centroids, cfg.n_clusters, k,
                                   cfg.dtype)
        else:
            y = self._run_init(x, rng)
        self._build_online_state(
            y, np.zeros(cfg.n_clusters, dtype=np.float64), bs, k, rng)

        epoch = 0
        for epoch in range(1, cfg.max_iter + 1):
            perm = rng.permutation(m)
            for lo in range(0, m, bs):
                batch_idx = perm[lo:lo + bs]
                self._minibatch_step(x[batch_idx],
                                     None if w is None else w[batch_idx])
                if self.converged_:
                    break
            if self.converged_:
                break
        self.n_iter_ = epoch

        # one full assignment pass for training labels / global inertia
        res = self._assigner.assign(x, self.cluster_centers_)
        self._online_state["counters"].merge(res.counters)
        self.labels_ = res.labels.copy()
        best64 = res.min_sqdist.astype(np.float64)
        self.inertia_ = float(np.sum(best64 * w) if w is not None
                              else np.sum(best64))
        self.counters_ = self._online_state["counters"]
        return self

    # ------------------------------------------------------------------
    def predict(self, x) -> np.ndarray:
        """Assign new samples to the fitted centroids.

        One single-pass assignment through the configured variant (the
        streaming engine in ``fast`` mode, memory-bounded regardless of
        ``x``'s size); input is validated like ``fit``'s.

        Parameters
        ----------
        x : array-like of shape (n_samples, n_features)

        Returns
        -------
        ndarray of shape (n_samples,)
            Index of the nearest fitted centroid per sample (int64).
        """
        self._check_fitted()
        x = self._validate_like_fit(x)
        res = self._assigner.assign(x, self.cluster_centers_)
        # the fit cache was released at the end of fit(), so this pass
        # ran on a transient cache whose buffers are uniquely ours
        return res.labels

    def fit_predict(self, x) -> np.ndarray:
        """``fit(X)`` then return the training labels.

        Parameters
        ----------
        x : array-like of shape (n_samples, n_features)

        Returns
        -------
        ndarray of shape (n_samples,)
        """
        return self.fit(x).labels_

    def score(self, x) -> float:
        """Negative inertia of ``x`` under the fitted centroids.

        Parameters
        ----------
        x : array-like of shape (n_samples, n_features)

        Returns
        -------
        float
            ``-sum(min squared distances)`` — higher is better, matching
            sklearn's convention.
        """
        self._check_fitted()
        x = self._validate_like_fit(x)
        res = self._assigner.assign(x, self.cluster_centers_)
        return -float(np.sum(res.min_sqdist.astype(np.float64)))

    def _validate_like_fit(self, x) -> np.ndarray:
        """Validate prediction input exactly like fit's, plus the
        feature-count check against the fitted centroids."""
        x = validate_data(x, self.config.dtype)
        if x.shape[1] != self.cluster_centers_.shape[1]:
            raise ValueError(
                f"X has {x.shape[1]} features, model has "
                f"{self.cluster_centers_.shape[1]}")
        return x

    # ------------------------------------------------------------------
    def distance_gflops_(self) -> float:
        """Simulated distance-stage GFLOPS over the fit (paper metric).

        Returns
        -------
        float
            Distance-stage floating-point throughput against the
            simulated clock; NaN when no assignment time was charged.
        """
        self._check_fitted()
        n, k = self.cluster_centers_.shape
        state = self._online
        if state is not None:
            # online model: distance flops are linear in samples, so the
            # stream's total is one flops count over all assigned rows
            # (matching what assignment_time_s_ actually covers)
            total = distance_flops(state["samples_assigned"], n, k)
        else:
            m = self.labels_.shape[0]
            total = self.n_iter_ * distance_flops(m, n, k)
        t = self.assignment_time_s_
        return total / t / 1e9 if t > 0 else float("nan")

    def _check_fitted(self) -> None:
        if not hasattr(self, "cluster_centers_"):
            raise RuntimeError("estimator is not fitted; call fit() first")
