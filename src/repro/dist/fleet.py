"""Self-healing fleet membership for the sharded coordinator.

The round loop in :mod:`repro.dist.coordinator` already detects worker
loss (round deadlines, broken pipes) and recovers bit-exactly from
checkpoints; what it lacked was *membership* management — the fit
either respawned the original set or shrank permanently onto the
survivors.  :class:`FleetManager` closes that loop with three
mechanisms, all built on the executor verbs documented in
:mod:`repro.dist.executors`:

**Heartbeats.**  Between rounds the manager pings every worker
(rate-limited by ``heartbeat_interval``).  A worker that answered its
round but then wedged is invisible to the round deadline until the
*next* round blows it — one full round budget later; the heartbeat
catches it in at most ``max(0.2, interval)`` seconds instead.
Heartbeat failures raise the same typed exceptions as round failures
(tagged ``detector="heartbeat"``), so every existing recovery path
applies unchanged.

**Hot spares + promotion.**  ``hot_spares`` pre-provisions replacement
capacity: real pre-booted children on the process backend (interpreter
up, imports done), promotion tokens in-process.  When a round loses
workers and enough spares are ready, the manager *promotes in place* —
only the dead ids are rebuilt, the shard plan never changes, and the
survivors keep running with their warm per-fit operand caches (safe:
workers are stateless between rounds, and SEU streams are keyed by
``(base_seed, worker_id, iteration)``, not history).

**Shrink → re-expand.**  When promotion is not possible (no spares
ready), the fit shrinks elastically onto the survivors to keep making
progress, and the manager re-expands back toward ``target_workers`` at
a later round boundary once spares boot: replacements reuse the
missing worker ids (lowest first), so a full re-expansion restores the
original plan exactly.  Because shard boundaries are GEMM-unit-aligned
and the merge is a sequential continuation
(:mod:`repro.dist.plan`), every membership history — shrink, regrow,
repeat — produces bit-identical centroids to an uninterrupted
``n_workers=1`` fit.

The optional ``spawn_hook`` gives the embedding environment (a cluster
scheduler, a test) a veto/budget on *booting new workers*: it is
called with the number of workers the manager wants to boot and
returns how many it may (None = all, 0 = none this round).  Promotion
of already-booted spares never consults it.
"""

from __future__ import annotations

import time

from repro.dist.plan import ShardPlan
from repro.obs.events import EventBus

__all__ = ["FleetManager"]


class FleetManager:
    """Membership policy: heartbeats, spare promotion, re-expansion.

    Parameters
    ----------
    target_workers : int, optional
        Fleet size the manager steers toward (promotion and
        re-expansion).  None leaves membership untouched — heartbeats
        can still run, and recovery semantics stay with the
        coordinator's ``elastic`` flag.
    hot_spares : int
        Replacement capacity kept provisioned ahead of any failure
        (pre-booted children on the process backend, promotion tokens
        in-process).  Re-provisioned after every promotion/expansion.
    heartbeat_interval : float, optional
        Minimum seconds between between-round heartbeat sweeps; None
        disables heartbeats.  The per-sweep timeout is
        ``max(0.2, interval)`` — detection latency is therefore bounded
        by roughly ``interval + timeout``, independent of (and in
        practice far below) the round deadline.
    spawn_hook : callable, optional
        ``spawn_hook(n_needed) -> int | None`` — budget on booting new
        workers (see module docstring).
    event_bus : :class:`repro.obs.events.EventBus`, optional
        Bus the manager publishes membership events onto (source
        ``"fleet"``): ``heartbeat`` sweeps (and ``heartbeat_failed``
        when a sweep detects a loss, published before the typed
        failure propagates), ``promote`` / ``shrink`` recovery
        decisions and ``expand`` regrowth.  A private bus is created
        when none is given, so :attr:`event_bus` is always
        subscribable.  Subscribers run
        synchronously in publish order on the fit thread.
    """

    #: floor of the per-sweep ping timeout: pings are pure IPC, but a
    #: loaded host needs some slack before "slow" means "wedged"
    MIN_PING_TIMEOUT = 0.2

    def __init__(self, target_workers: int | None = None,
                 hot_spares: int = 0,
                 heartbeat_interval: float | None = None,
                 spawn_hook=None, event_bus=None):
        if target_workers is not None and target_workers < 1:
            raise ValueError(
                f"target_workers must be >= 1, got {target_workers}")
        if hot_spares < 0:
            raise ValueError(f"hot_spares must be >= 0, got {hot_spares}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0, got "
                             f"{heartbeat_interval}")
        self.target_workers = target_workers
        self.hot_spares = int(hot_spares)
        self.heartbeat_interval = heartbeat_interval
        self.spawn_hook = spawn_hook
        self.event_bus = event_bus if event_bus is not None else EventBus()
        self.executor = None
        self._last_beat = 0.0
        #: counters the coordinator folds into its fit result
        self.promotions = 0
        self.expands = 0

    def _emit(self, event: str, **fields) -> None:
        """Publish one structured event (ordered, sync) on the bus."""
        self.event_bus.publish(event, source="fleet", **fields)

    # ------------------------------------------------------------------
    @property
    def manages_membership(self) -> bool:
        """True when recovery/expansion decisions route through the
        fleet (otherwise the coordinator's legacy elastic/restart
        policy applies unchanged)."""
        return self.target_workers is not None or self.hot_spares > 0

    def attach(self, executor, plan: ShardPlan) -> None:
        """Bind to the fit's executor and initial plan; clamps the
        target to the starting fleet (a fleet never grows past the
        size it started with — shards would have no rows to split) and
        provisions the first spares."""
        self.executor = executor
        # rate-limit from fit start: the first sweep fires one interval
        # into the fit, not at an arbitrary offset from process boot
        self._last_beat = time.monotonic()
        if self.target_workers is None and self.manages_membership:
            self.target_workers = plan.n_workers
        if self.target_workers is not None:
            self.target_workers = min(self.target_workers, plan.n_workers)
        if self.hot_spares:
            executor.prewarm_spares(self.hot_spares)

    # -- heartbeats ----------------------------------------------------
    def maybe_heartbeat(self, iteration: int) -> None:
        """Run one heartbeat sweep if the interval has elapsed.

        Must be called with no round in flight; raises the executor's
        typed failure (``detector="heartbeat"``) on a dead or wedged
        worker, caught by the coordinator's normal recovery path.
        """
        if self.heartbeat_interval is None or self.executor is None:
            return
        now = time.monotonic()
        if now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        timeout = max(self.MIN_PING_TIMEOUT, self.heartbeat_interval)
        try:
            self.executor.heartbeat(iteration, timeout)
        except Exception as exc:
            # log before the typed failure reaches the coordinator's
            # recovery path, so the event stream reads kill -> promote
            self._emit("heartbeat_failed", iteration=int(iteration),
                       failed_ids=sorted(getattr(exc, "failed_ids", ())))
            raise
        self._emit("heartbeat", iteration=int(iteration))

    # -- recovery ------------------------------------------------------
    def recover(self, plan: ShardPlan, make_factory, crash
                ) -> tuple[ShardPlan, str]:
        """Re-establish a working fleet after losing ``crash.failed_ids``.

        Returns ``(plan, action)`` where action is:

        * ``"promote"`` — enough spares were ready: the dead ids were
          rebuilt in place, the plan is unchanged, survivors kept
          running.  The cheapest path (no restart, no replan).
        * ``"shrink"`` — spares were not ready: re-sharded onto the
          survivors (same as the legacy elastic path) so the fit keeps
          making progress; :meth:`maybe_expand` regrows later.

        Readiness is checked *before* provisioning more spares, so the
        promote/shrink choice is deterministic for a given
        ``hot_spares`` setting; the pool is re-warmed afterwards either
        way.
        """
        lost = [wid for wid in crash.failed_ids if wid in plan.worker_ids]
        survivors = [wid for wid in plan.worker_ids if wid not in lost]
        if not survivors:
            raise ValueError("recover() needs at least one survivor")
        if lost and self.executor.spares_ready() >= len(lost):
            self.executor.replace_workers(make_factory(plan), lost)
            self.promotions += len(lost)
            action = "promote"
            self._emit("promote", lost=sorted(lost),
                       survivors=sorted(survivors))
        else:
            plan = plan.replan(survivors)
            self.executor.reconfigure(make_factory(plan), plan.worker_ids)
            action = "shrink"
            self._emit("shrink", lost=sorted(lost),
                       survivors=sorted(survivors))
        if self.hot_spares:
            self.executor.prewarm_spares(self.hot_spares)
        return plan, action

    # -- re-expansion --------------------------------------------------
    def maybe_expand(self, plan: ShardPlan, make_factory
                     ) -> ShardPlan | None:
        """Regrow a shrunken fleet toward ``target_workers`` at a round
        boundary; returns the grown plan, or None when already at
        target (or not managing).

        Replacements reuse the *missing* worker ids, lowest first, so
        regrowing to the full target restores the original plan (and
        therefore the original shard boundaries) exactly.  Only boots
        as many new workers as ready spares + the ``spawn_hook`` budget
        allow; a partial expansion regrows the rest at later
        boundaries.
        """
        if self.target_workers is None or self.executor is None:
            return None
        have = plan.n_workers
        if have >= self.target_workers:
            return None
        missing = sorted(set(range(self.target_workers))
                         - set(plan.worker_ids))
        grow = len(missing)
        ready = self.executor.spares_ready()
        to_boot = max(0, grow - ready)
        if to_boot and self.spawn_hook is not None:
            allowed = self.spawn_hook(to_boot)
            if allowed is not None:
                to_boot = min(to_boot, max(0, int(allowed)))
        grow = min(grow, ready + to_boot)
        if grow <= 0:
            return None
        member_ids = sorted(list(plan.worker_ids) + missing[:grow])
        new_plan = plan.replan(member_ids)
        self.executor.reconfigure(make_factory(new_plan),
                                  new_plan.worker_ids)
        self.expands += grow
        self._emit("expand", grown=missing[:grow],
                   members=list(new_plan.worker_ids))
        if self.hot_spares:
            self.executor.prewarm_spares(self.hot_spares)
        return new_plan
