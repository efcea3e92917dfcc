"""Worker-level fault injection: crash, stall, wedge.

The paper's ABFT/DMR protects against *silent* SEUs inside a device;
this module models the orthogonal failure class of a distributed fit —
a whole worker misbehaving — and extends the taxonomy of
:mod:`repro.gpusim.faults` up one level:

========================  ==========================================
kind                      models
========================  ==========================================
``crash``                 the worker process dies mid-round (the
                          process executor really ``_exit``\\ s; the
                          in-process executors raise
                          :class:`WorkerCrash`)
``stall``                 a straggler: the worker sleeps before
                          answering its round
``wedge``                 the worker answers its round normally, then
                          wedges *between* rounds: its next heartbeat
                          ``ping`` sleeps for ``wedge_s``.  Invisible
                          to the round deadline (the round was
                          answered); only the between-round heartbeat
                          of the fleet manager catches it
========================  ==========================================

Faults can be scheduled explicitly (tests, benchmarks:
:meth:`WorkerFaultInjector.crash_at` et al.) or drawn randomly per
(worker, iteration).  Either way every fault fires **at most once**:
after a crash the coordinator replays iterations from the last
checkpoint, and a re-firing fault would pin the fit in a crash loop.
Random draws are cached per (iteration, worker) so a replayed iteration
neither re-fires nor re-rolls its dice — recovery stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CRASH", "STALL", "WEDGE", "WORKER_FAULT_KINDS",
           "WorkerCrash", "WorkerStall", "WorkerFaultPlan",
           "WorkerFaultInjector"]

CRASH = "crash"
STALL = "stall"
WEDGE = "wedge"
WORKER_FAULT_KINDS = (CRASH, STALL, WEDGE)


class WorkerCrash(RuntimeError):
    """A worker died (injected or real) during a round.

    The coordinator catches this, restores the last checkpoint and
    restarts (or elastically re-shards) the executor; it propagates only
    when recovery is exhausted (``max_recoveries``).

    A round can lose more than one worker: executors collect *every*
    failure of the round before raising (a second dead or stalled worker
    must never turn recovery into a hang), so the exception carries the
    full classification — ``crashed_ids`` (workers observed dead) and
    ``stalled_ids`` (workers that blew the round deadline and were
    terminated).  ``worker_id`` stays the first failure for
    backward-compatible messages and traces.
    """

    def __init__(self, worker_id: int, iteration: int,
                 reason: str = "injected", *,
                 crashed_ids=None, stalled_ids=None):
        super().__init__(
            f"worker {worker_id} crashed at iteration {iteration} ({reason})")
        self.worker_id = worker_id
        self.iteration = iteration
        self.reason = reason
        self.crashed_ids = (tuple(crashed_ids) if crashed_ids is not None
                            else (worker_id,))
        self.stalled_ids = tuple(stalled_ids or ())

    @property
    def failed_ids(self) -> tuple:
        """Every worker lost this round (crashed then stalled)."""
        return self.crashed_ids + self.stalled_ids


class WorkerStall(WorkerCrash):
    """A worker blew the round deadline (stalled-but-alive).

    Raised by executors whose ``round_timeout`` expired while one or
    more workers had not answered.  A subclass of :class:`WorkerCrash`
    so every existing recovery path applies; the coordinator classifies
    it separately (``worker_stalls`` vs ``worker_crashes``) and, with
    ``elastic=True``, re-shards onto the survivors instead of
    respawning the stalled worker.
    """

    def __init__(self, worker_id: int, iteration: int,
                 reason: str = "stalled past round deadline", *,
                 stalled_ids=None):
        super().__init__(worker_id, iteration, reason, crashed_ids=(),
                         stalled_ids=(stalled_ids if stalled_ids is not None
                                      else (worker_id,)))


@dataclass(frozen=True)
class WorkerFaultPlan:
    """One scheduled worker-level fault."""

    kind: str
    worker_id: int
    iteration: int
    stall_s: float = 0.0
    wedge_s: float = 600.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(f"unknown worker fault kind {self.kind!r}; "
                             f"choose from {WORKER_FAULT_KINDS}")


class WorkerFaultInjector:
    """Plans worker-level faults for the coordinator's rounds.

    Parameters
    ----------
    plans : iterable of WorkerFaultPlan
        Explicitly scheduled faults (each fires once).
    rng : np.random.Generator or seed, optional
        Randomness source for the probabilistic mode.
    p_crash, p_stall : float
        Per-(worker, iteration) probabilities of drawing each fault
        kind (evaluated in that order; at most one fires per cell).
    stall_s : float
        Sleep duration of drawn stalls.
    max_faults : int, optional
        Global cap across all kinds (None = unlimited).
    """

    def __init__(self, plans=(), *, rng=None, p_crash: float = 0.0,
                 p_stall: float = 0.0, stall_s: float = 0.005,
                 max_faults: int | None = None):
        for name, p in (("p_crash", p_crash), ("p_stall", p_stall)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.plans: list[WorkerFaultPlan] = list(plans)
        self.rng = np.random.default_rng(rng)
        self.p_crash = float(p_crash)
        self.p_stall = float(p_stall)
        self.stall_s = float(stall_s)
        self.max_faults = max_faults
        self.fired: list[WorkerFaultPlan] = []
        self._fired_scheduled: set[int] = set()       # indices into plans
        self._drawn: dict[tuple[int, int], WorkerFaultPlan | None] = {}
        self._drawn_fired: set[tuple[int, int]] = set()

    # -- convenience constructors --------------------------------------
    @classmethod
    def crash_at(cls, worker_id: int, iteration: int) -> "WorkerFaultInjector":
        return cls([WorkerFaultPlan(CRASH, worker_id, iteration)])

    @classmethod
    def stall_at(cls, worker_id: int, iteration: int,
                 stall_s: float = 0.005) -> "WorkerFaultInjector":
        return cls([WorkerFaultPlan(STALL, worker_id, iteration,
                                    stall_s=stall_s)])

    @classmethod
    def wedge_at(cls, worker_id: int, iteration: int,
                 wedge_s: float = 600.0) -> "WorkerFaultInjector":
        """Worker answers ``iteration`` normally, then wedges: its next
        heartbeat ping hangs for ``wedge_s`` seconds.  Pick a small
        ``wedge_s`` on the serial backend, where the ping runs in the
        coordinator's own thread."""
        return cls([WorkerFaultPlan(WEDGE, worker_id, iteration,
                                    wedge_s=wedge_s)])

    # ------------------------------------------------------------------
    @property
    def _budget_left(self) -> bool:
        return self.max_faults is None or len(self.fired) < self.max_faults

    def _draw(self, iteration: int, worker_id: int) -> WorkerFaultPlan | None:
        """Roll the probabilistic fault for one (iteration, worker) cell,
        at most once ever (replayed iterations reuse the cached draw)."""
        key = (iteration, worker_id)
        if key in self._drawn:
            return self._drawn[key]
        plan = None
        if self.p_crash and self.rng.random() < self.p_crash:
            plan = WorkerFaultPlan(CRASH, worker_id, iteration)
        elif self.p_stall and self.rng.random() < self.p_stall:
            plan = WorkerFaultPlan(STALL, worker_id, iteration,
                                   stall_s=self.stall_s)
        self._drawn[key] = plan
        return plan

    def directives_for_round(self, iteration: int,
                             worker_ids) -> dict[int, dict]:
        """Per-worker fault directives for one round (one-shot each).

        Returns a dict ``worker_id -> directive`` where a directive is
        ``{"crash": True}``, ``{"stall_s": s}`` or ``{"wedge_s": s}``;
        workers absent from the dict run clean.  Every plan returned here is marked fired and will never be returned
        again — including when the iteration replays after recovery.
        """
        directives: dict[int, dict] = {}
        for wid in worker_ids:
            if not self._budget_left:
                break
            plan = None
            for idx, cand in enumerate(self.plans):
                if (idx not in self._fired_scheduled
                        and cand.worker_id == wid
                        and cand.iteration == iteration):
                    plan = cand
                    self._fired_scheduled.add(idx)
                    break
            if plan is None and (self.p_crash or self.p_stall):
                key = (iteration, wid)
                plan = self._draw(iteration, wid)
                if plan is not None and key in self._drawn_fired:
                    plan = None
                elif plan is not None:
                    self._drawn_fired.add(key)
            if plan is None:
                continue
            self.fired.append(plan)
            if plan.kind == CRASH:
                directives[wid] = {"crash": True}
            elif plan.kind == STALL:
                directives[wid] = {"stall_s": plan.stall_s}
            else:
                directives[wid] = {"wedge_s": plan.wedge_s}
        return directives
