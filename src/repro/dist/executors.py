"""Executor backends: how shard workers actually run.

Three interchangeable backends drive the same :class:`ShardWorker`
round protocol:

* :class:`SerialExecutor` — an in-process loop.  Zero concurrency, zero
  overhead; the correctness/debug baseline every other backend must
  match bit-for-bit.
* :class:`ThreadExecutor` — one thread per worker.  BLAS releases the
  GIL inside each worker's GEMMs, so shard assignment genuinely
  overlaps on multicore hosts (the same reasoning as the engine's
  chunk threads, one level up).
* :class:`ProcessExecutor` — one OS process per worker, talking over
  pipes.  The only backend where a worker can *really die*: an injected
  crash hard-exits the child, the coordinator observes the broken pipe
  and runs checkpoint recovery exactly as it would for a real worker
  loss.

Every backend streams a round's results through one collect loop,
``collect_round_stream``; the worker-order helpers are built on it, and
the coordinator's merge commits in shard order whatever the arrival
order — so every accumulated bit is executor-independent.  A crashed
worker surfaces as :class:`~repro.dist.faults.WorkerCrash` from the
collect, and the fleet manager (:mod:`repro.dist.fleet`) recovers
through the two membership verbs below.

**Failure detection.**  Every backend honours ``round_timeout`` (seconds
per round, None = wait forever): a worker that has not answered when the
deadline expires is classified *stalled* and surfaces as a typed
:class:`~repro.dist.faults.WorkerStall`.  How hard the detector can act
differs by backend:

* ``process`` — the real detector: ``Connection``\\ s are polled against
  the deadline and an expired worker is escalated (terminate, then
  kill), so a stalled-but-alive child can never hang the fit.  Child
  boot is excluded from the deadline by a spawn-time ready handshake;
* ``thread`` — futures time out at the deadline; the stalled thread
  cannot be killed, so recovery *abandons* it (thread + worker are
  dropped, reclaimed when the stall runs dry) rather than joining —
  the fit's wall time stays bounded, at the cost of a leaked thread
  for the stall's duration;
* ``serial`` — no preemption is possible in-process; the stall is
  detected *retroactively* from the worker's wall time (useful for
  deterministic recovery tests).

A round collects **every** failure before raising — after the first
dead pipe the remaining connections are drained under per-connection
deadlines, so a second crashed or stalled worker in the same round can
never turn recovery into a hang.

**Split-phase rounds.**  A round is a ``send_round`` followed by a
collect.  The thread and process backends start the workers at the
send; the serial backend computes inside the collect itself, so its
send simply stashes the arguments.  The process backend bounds the
send and the answers on separate deadlines, so a wedged send can never
eat the other workers' compute budget.

**Streaming collect.**  ``collect_round_stream()`` — each backend's
one collect loop, owner of the deadline, drain and escalation logic —
yields ``(worker_id, result)`` pairs in *arrival* order: the
coordinator's stream merge commits each shard's merge work as soon as
(in-shard-order) results allow, hiding merge time under the slowest
worker.  Every failure of the round is collected and one typed
exception raised *after* the stream ends, so a consumer that buffered
early arrivals discards them through the same recovery path.
``collect_round()`` drains the stream and returns the results in
worker order; ``run_round()`` is ``send_round`` plus ``collect_round``.

**Membership management.**  The fleet manager drives four further
verbs on top of the round protocol:

* ``heartbeat(iteration, timeout)`` — a cheap between-rounds liveness
  probe.  A worker that answered its round but *then* wedged is
  invisible to the round deadline until the next round blows it; the
  heartbeat catches it between rounds instead.  Failures surface
  through the same typed exceptions as round failures, tagged with
  ``exc.detector = "heartbeat"``.
* ``prewarm_spares(n)`` / ``spares_ready()`` — hot spares.  On the
  process backend these are genuinely pre-booted (interpreter up,
  imports done) but *unconfigured* children, so promoting one onto a
  dead worker's shard skips the child's cold-start entirely; on the
  in-process backends a spare is just a promotion token (there is no
  boot cost to hide).
* ``replace_workers(factory, worker_ids)`` — rebuild the named workers
  in place, leaving the survivors untouched (workers are stateless
  between rounds, so survivors keep their warm operand caches).
* ``reconfigure(factory, worker_ids)`` — adopt a new (factory, worker
  set), re-targeting warm children where the backend has them.

Both verbs discard a round that was sent but not collected, and neither
keeps a worker that still runs one: such a worker — a drain-abandoned
child, an answer never read, a thread whose cancelled pass has not
returned — is rebuilt for its id (process children are reaped, thread
workers dropped un-closed), so a stale answer can never be read as a
later round's result or a boot handshake.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from multiprocessing.connection import wait as conn_wait

from repro.core.blas import thread_budget
from repro.dist.faults import WorkerCrash, WorkerStall
from repro.dist.shm import detach_all as _shm_detach_all
from repro.dist.worker import RoundResult

__all__ = ["BaseExecutor", "SerialExecutor", "ThreadExecutor",
           "ProcessExecutor", "make_executor"]


def _pickled_nbytes(obj) -> int:
    """Exact pickled size of a (small) pipe payload."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _result_nbytes(res: RoundResult) -> int:
    """Pipe-payload size estimate of a round result.

    Analytic (array nbytes + a small framing constant) rather than a
    second ``pickle.dumps`` of arrays the pipe already serialised once
    — the estimate is for the transport counters, not for billing.
    """
    return 256 + res.labels.nbytes + res.best.nbytes


def _round_failure(iteration: int, crashed: list[int], stalled: list[int],
                   crash_reason: str = "worker died") -> WorkerCrash:
    """One typed exception for everything a round lost.

    Crash outranks stall (any dead worker makes it a
    :class:`WorkerCrash`, stalled ids riding along); a stall-only round
    raises the :class:`WorkerStall` subtype so the coordinator can
    classify and count the two failure kinds separately.
    """
    if crashed:
        return WorkerCrash(crashed[0], iteration, reason=crash_reason,
                           crashed_ids=tuple(crashed),
                           stalled_ids=tuple(stalled))
    return WorkerStall(stalled[0], iteration, stalled_ids=tuple(stalled))


class BaseExecutor(ABC):
    """Round-based execution of a worker set.

    ``round_timeout`` — seconds each round may take before unanswered
    workers are classified stalled (None = no deadline); the coordinator
    sets it from the fit configuration (and re-arms it per round under
    the adaptive deadline).

    ``blas_threads`` — the per-worker BLAS thread budget
    (:func:`repro.core.blas.fleet_budget`) of the current fit; the
    coordinator sets it on ``concurrent`` backends and leaves it None
    (count untouched) otherwise.
    """

    #: workers run their rounds at the same time, so they share the
    #: host's cores (and need a BLAS thread budget)
    concurrent = False

    def __init__(self) -> None:
        self._factory = None
        self._worker_ids: tuple[int, ...] = ()
        self._workers: dict = {}
        self.round_timeout: float | None = None
        self.blas_threads: int | None = None
        self._stashed_round: tuple | None = None
        self._spare_tokens = 0
        #: optional :class:`repro.obs.events.EventBus` — the coordinator
        #: wires its fit bus in so the pool's ``executor_start`` (source
        #: ``"executor"``) appears in the same ordered event stream as
        #: the fleet and checkpoint events
        self.event_bus = None
        #: per-fit transport counters: round-payload bytes moved over
        #: the executor's worker pipes.  In-process backends move no
        #: bytes and stay 0.
        self.broadcast_bytes = 0
        self.gather_bytes = 0
        #: worker boot/attach walls of the current fit (process
        #: backend): {"kind": 'cold_spawn'|'spare_promote'|'reconfigure',
        #: "worker_id", "wall_s"} per ready handshake
        self.boot_events: list[dict] = []

    def reset_transport_stats(self) -> None:
        """Zero the per-fit transport counters and boot-event log."""
        self.broadcast_bytes = 0
        self.gather_bytes = 0
        self.boot_events = []

    def _publish(self, kind: str, **fields) -> None:
        bus = getattr(self, "event_bus", None)
        if bus is not None:
            bus.publish(kind, source="executor", **fields)

    def start(self, factory, worker_ids) -> None:
        """Build one worker per id via ``factory(worker_id)``."""
        self._factory = factory
        self._worker_ids = tuple(worker_ids)
        self._spawn()
        self._publish("executor_start", backend=getattr(self, "name", "?"),
                      worker_ids=list(self._worker_ids))

    def shutdown(self) -> None:
        self._teardown()

    def _spawn(self) -> None:
        self._workers = {wid: self._factory(wid) for wid in self._worker_ids}

    def _teardown(self) -> None:
        busy = self._abandon_round()
        for wid, w in self._workers.items():
            self._release(w, wid in busy)
        self._workers = {}

    def _abandon_round(self) -> set[int]:
        """Discard the round sent but not collected; returns the ids
        whose worker is still running one (none in the base, which
        computes inside the collect)."""
        self._stashed_round = None
        return set()

    @staticmethod
    def _release(worker, busy: bool) -> None:
        """Close a dropped in-process worker — unless a thread still
        runs it: then it is left un-closed (the thread owns it; GC
        reclaims it once the pass returns) and cancelled, so the
        abandoned pass stops at its next chunk boundary."""
        if not busy:
            worker.close()
        elif hasattr(worker, "cancel"):
            worker.cancel()

    def send_round(self, y, iteration: int,
                   directives: dict[int, dict]) -> None:
        """Broadcast one round; its results come from the next collect.
        The base implementation stashes the arguments and runs the
        whole round synchronously at collect time."""
        self._stashed_round = (y, iteration, directives)

    @abstractmethod
    def collect_round_stream(self):
        """Yield ``(worker_id, result)`` of the round last sent with
        :meth:`send_round`, in arrival order.

        Raises :class:`WorkerCrash` (or its :class:`WorkerStall`
        subtype) *after* every healthy result has been yielded when any
        worker died or missed the deadline; the surviving results of
        that round are discarded by the coordinator's recovery path.
        """

    def collect_round(self) -> list[RoundResult]:
        """Drain :meth:`collect_round_stream`; results in worker order.
        Raises whatever the stream raises."""
        results = dict(self.collect_round_stream())
        return [results[wid] for wid in self._worker_ids]

    def run_round(self, y, iteration: int,
                  directives: dict[int, dict]) -> list[RoundResult]:
        """One Lloyd round on every worker; results in worker order."""
        self.send_round(y, iteration, directives)
        return self.collect_round()

    # -- membership management (driven by repro.dist.fleet) ------------
    def heartbeat(self, iteration: int, timeout: float) -> None:
        """Probe every worker for liveness between rounds.

        Raises the same typed exceptions as a round failure —
        :class:`WorkerCrash` / :class:`WorkerStall` with the full
        failed-worker classification — additionally tagged with
        ``exc.detector = "heartbeat"`` so traces can tell the two
        detectors apart.  Must not be called with a round in flight.
        The base implementation is a no-op (no probe channel).
        """

    def prewarm_spares(self, n: int) -> None:
        """Provision ``n`` replacement slots ahead of any failure.

        In-process backends have no boot cost to hide, so a spare is
        just a promotion token; the process backend overrides this with
        genuinely pre-booted (unconfigured) children.
        """
        self._spare_tokens = int(n)

    def spares_ready(self) -> int:
        """Number of spares promotable right now (never blocks)."""
        return self._spare_tokens

    def replace_workers(self, factory, worker_ids) -> None:
        """Rebuild ``worker_ids`` in place from ``factory``; every other
        worker is left running untouched (the shard plan did not change,
        so survivors keep their warm per-fit operand caches).

        The uncollected round is discarded, and a survivor still running
        it is rebuilt too.  Each named id spends one spare token, if any.
        """
        self._factory = factory
        worker_ids = tuple(worker_ids)
        busy = self._abandon_round()
        for wid in worker_ids + tuple(sorted(busy - set(worker_ids))):
            old = self._workers.pop(wid, None)
            if old is not None:
                self._release(old, wid in busy)
            self._workers[wid] = factory(wid)
        self._spare_tokens = max(0, self._spare_tokens - len(worker_ids))

    def reconfigure(self, factory, worker_ids) -> None:
        """Adopt a new (factory, worker set): every worker is dropped
        and rebuilt, since its shard changed.  The process backend
        overrides this to re-target its warm children instead."""
        self._factory = factory
        self._worker_ids = tuple(worker_ids)
        self._teardown()
        self._spawn()


class SerialExecutor(BaseExecutor):
    """In-process sequential backend (the bit-reference)."""

    name = "serial"

    def collect_round_stream(self):
        """Yield each worker's result as soon as it is computed.

        Sequential, so "arrival order" is worker order — but yielding
        per worker (instead of after the full loop) lets the streaming
        merge interleave with the remaining workers' compute, which is
        what the stream-merge tests exercise on this backend.  A worker
        classified retroactively stalled is not yielded (its result is
        doomed to the recovery discard anyway); failures raise after
        the loop.
        """
        if self._stashed_round is None:
            raise RuntimeError("collect_round without a sent round")
        y, iteration, directives = self._stashed_round
        self._stashed_round = None
        crashed, stalled = [], []
        for wid in self._worker_ids:
            t0 = time.monotonic()
            try:
                res = self._workers[wid].run_round(y, iteration,
                                                   directives.get(wid))
            except WorkerCrash:
                # keep going: the round collects every failure (a crash
                # must not drop stalls already detected, or still to
                # come, from the classification)
                crashed.append(wid)
                continue
            # in-process, sequential: preemption is impossible, so the
            # deadline is enforced retroactively on the worker's wall
            # time (the round's results are discarded by recovery)
            if (self.round_timeout is not None
                    and time.monotonic() - t0 > self.round_timeout):
                stalled.append(wid)
                continue
            yield wid, res
        if crashed or stalled:
            raise _round_failure(iteration, crashed, stalled,
                                 crash_reason="injected")

    def heartbeat(self, iteration: int, timeout: float) -> None:
        """Sequential ping of every worker, classified retroactively
        (like the serial round deadline: no in-process preemption, so a
        wedged ping blocks for its full wedge — keep injected wedges
        short on this backend)."""
        stalled = []
        for wid in self._worker_ids:
            t0 = time.monotonic()
            self._workers[wid].ping()
            if time.monotonic() - t0 > timeout:
                stalled.append(wid)
        if stalled:
            exc = _round_failure(iteration, [], stalled)
            exc.detector = "heartbeat"
            raise exc


class _RoundTask:
    """One worker's round on a daemon thread (a poor man's future).

    Daemon on purpose: ``ThreadPoolExecutor`` threads are non-daemon
    and joined by an atexit hook, so an *unbounded* stall abandoned in
    a pool would block interpreter exit — the hang this layer exists to
    prevent, resurfacing one layer down.  A daemon thread just dies
    with the process.
    """

    def __init__(self, fn, args):
        self.result = None
        self.exc: BaseException | None = None
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, args=(fn, args),
                                       daemon=True)
        self.thread.start()

    def _run(self, fn, args):
        try:
            self.result = fn(*args)
        except BaseException as exc:
            self.exc = exc
        finally:
            self.done.set()


class ThreadExecutor(BaseExecutor):
    """One daemon thread per worker per round; rounds join before
    returning."""

    name = "thread"
    concurrent = True

    def __init__(self) -> None:
        super().__init__()
        self._inflight: dict[int, _RoundTask] = {}
        self._round_it: int | None = None
        #: workers whose heartbeat ping was abandoned mid-wedge: a
        #: daemon thread still owns them, like a stalled round's worker
        self._zombies: set[int] = set()

    def _abandon_round(self) -> set[int]:
        """A stalled thread cannot be killed, and joining it would block
        recovery for the whole stall — so its worker (and a heartbeat
        zombie's) is reported busy, to be dropped un-closed and
        cancelled; the daemon thread never blocks process exit."""
        busy = {wid for wid, task in self._inflight.items()
                if not task.done.is_set()} | self._zombies
        self._inflight, self._round_it, self._zombies = {}, None, set()
        return busy

    def send_round(self, y, iteration, directives) -> None:
        self._round_it = iteration
        self._inflight = {wid: _RoundTask(self._workers[wid].run_round,
                                          (y, iteration,
                                           directives.get(wid)))
                          for wid in self._worker_ids}

    def collect_round_stream(self):
        """Yield results in true arrival order (done-event polling).

        All workers run concurrently, so one absolute deadline doubles
        as the per-task deadline: a task still pending at it is marked
        stalled, cancelled and abandoned; every failure raises in one
        typed exception after the stream ends.
        """
        if self._round_it is None:
            raise RuntimeError("collect_round without a sent round")
        iteration, self._round_it = self._round_it, None
        deadline = (None if self.round_timeout is None
                    else time.monotonic() + self.round_timeout)
        pending = dict(self._inflight)
        crashed, stalled = [], []
        while pending:
            fired = [wid for wid, task in pending.items()
                     if task.done.is_set()]
            if not fired:
                if (deadline is not None
                        and time.monotonic() >= deadline):
                    # a thread cannot be killed: mark it stalled;
                    # teardown abandons it (thread + worker reclaimed
                    # when the stall runs dry) so recovery never waits
                    # the stall out.  The cancel token bounds how long
                    # "dry" takes: a pass still chunking stops at its
                    # next chunk boundary.
                    for wid in list(pending):
                        stalled.append(wid)
                        w = self._workers.get(wid)
                        if w is not None and hasattr(w, "cancel"):
                            w.cancel()
                    pending.clear()
                    break
                # wait on an arbitrary pending task with a short slice,
                # so any *other* task finishing first is picked up
                # within one slice (there is no wait-any for Events)
                slice_s = 0.005
                if deadline is not None:
                    slice_s = min(slice_s,
                                  max(0.0, deadline - time.monotonic()))
                next(iter(pending.values())).done.wait(slice_s)
                continue
            for wid in fired:
                task = pending.pop(wid)
                if isinstance(task.exc, WorkerCrash):
                    crashed.append(wid)
                elif task.exc is not None:
                    raise task.exc
                else:
                    yield wid, task.result
        if crashed or stalled:
            raise _round_failure(iteration, crashed, stalled,
                                 crash_reason="injected")

    def heartbeat(self, iteration: int, timeout: float) -> None:
        """Concurrent ping of every worker under one shared deadline.

        A worker whose ping misses the deadline is classified stalled
        and becomes a *zombie*: its sleeping daemon thread still owns
        it, so it is excluded from teardown/replacement closes and
        reclaimed by GC when the wedge runs dry.
        """
        tasks = {wid: _RoundTask(self._workers[wid].ping, ())
                 for wid in self._worker_ids}
        deadline = time.monotonic() + timeout
        stalled = []
        for wid, task in tasks.items():
            if not task.done.wait(max(0.0, deadline - time.monotonic())):
                stalled.append(wid)
                self._zombies.add(wid)
                w = self._workers.get(wid)
                if w is not None and hasattr(w, "cancel"):
                    w.cancel()
            elif task.exc is not None:
                raise task.exc
        if stalled:
            exc = _round_failure(iteration, [], stalled)
            exc.detector = "heartbeat"
            raise exc


#: spawn handshake sentinel: the child sends it once its worker is
#: built, so boot cost (interpreter + shard unpickling under 'spawn')
#: never counts against a round deadline
_READY = "__worker_ready__"

#: pre-boot handshake of an *unconfigured* hot spare: interpreter and
#: imports are up, no worker exists yet — a 'configure' message turns
#: it into a worker (which answers with ``_READY``)
_SPARE_READY = "__spare_ready__"

#: heartbeat reply sentinel
_PONG = "__pong__"

def _child_main(conn, factory, worker_id: int, stale_conns=(),
                blas_threads: int | None = None) -> None:
    """Process-executor child loop: build the worker, answer messages.

    ``stale_conns`` are parent-side pipe ends a *forked* child inherited
    (other workers' conns, spare conns, and this pipe's own parent end);
    they are closed first thing so that coordinator death reaches every
    worker as pipe EOF instead of deadlocking the fleet on fd copies.

    ``blas_threads`` is the fit's per-worker BLAS budget, set for the
    child's whole life — a spare and a re-targeted child keep it.  A
    forked child inherits an already-loaded OpenBLAS, so an environment
    variable set at spawn would come too late.

    Messages are tagged tuples — ``("round", y, iteration, directive)``,
    ``("ping",)``, ``("configure", factory, worker_id)`` — or ``None``
    (shut down).  A round is answered with the full
    :class:`RoundResult` over the pipe.  With ``factory=None`` the
    child boots as an *unconfigured hot spare*: interpreter and
    imports are paid for up front, the worker itself is built by a
    later configure message.

    An injected crash hard-exits the process (no exception channel, no
    cleanup) so the parent sees exactly what a real worker death looks
    like: a broken pipe.
    """
    for stale in stale_conns:
        stale.close()
    with thread_budget(blas_threads):
        _serve(conn, factory, worker_id)


def _serve(conn, factory, worker_id: int) -> None:
    """The child's message loop (see :func:`_child_main`)."""
    worker = None
    if factory is not None:
        worker = factory(worker_id)
        conn.send(_READY)
    else:
        conn.send(_SPARE_READY)
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            tag = msg[0]
            if tag == "configure":
                _, factory, worker_id = msg
                if worker is not None:
                    worker.close()
                worker = factory(worker_id)
                conn.send(_READY)
            elif tag == "ping":
                if worker is not None:
                    worker.ping()
                conn.send(_PONG)
            else:                              # "round"
                _, y, iteration, directive = msg
                try:
                    result = worker.run_round(y, iteration, directive)
                except WorkerCrash:
                    os._exit(17)
                conn.send(result)
    finally:
        if worker is not None:
            worker.close()
        _shm_detach_all()
        conn.close()


class ProcessExecutor(BaseExecutor):
    """One OS process per worker (pipes; fork start method by default).

    The worker factory must be picklable under the 'spawn' method
    (:func:`repro.dist.worker.build_worker` partials are); under 'fork'
    it is inherited.
    """

    name = "process"
    concurrent = True

    #: recv bound (seconds) for the *remaining* connections once a round
    #: has already lost a worker and no round deadline is configured: a
    #: second stalled worker must never turn a crash into a hang.  On
    #: expiry the pending children are abandoned, not killed — without a
    #: configured deadline nothing licenses classifying them stalled —
    #: and the recovery's membership verb reaps them and boots a fresh
    #: child for each id (membership and shard unchanged).
    DRAIN_TIMEOUT = 5.0

    #: seconds teardown waits for a child to exit after the shutdown
    #: message before escalating to terminate (abandoned or stalled
    #: children ignore the message and eat the whole wait)
    JOIN_TIMEOUT = 5.0

    #: seconds each child gets to finish booting and send its ready
    #: handshake at (re)spawn.  Keeping boot out of the round protocol
    #: means a round deadline measures compute + IPC only — a slow
    #: cold start (interpreter boot, numpy import, shard unpickling
    #: under 'spawn') can never be misread as a stall.
    SPAWN_TIMEOUT = 120.0

    #: per-send floor (seconds) under an expired round deadline.  Send
    #: is pure IPC — a healthy child drains its pipe in microseconds —
    #: so after one wedged worker eats the whole round budget, later
    #: sends still get this grace instead of being condemned unsent.
    SEND_GRACE = 0.25

    def __init__(self, start_method: str | None = None):
        super().__init__()
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self._round_state: tuple | None = None
        self._procs: dict[int, mp.Process] = {}
        self._conns: dict[int, object] = {}
        #: pre-booted unconfigured children: [proc, conn, ready] — ready
        #: flips True once the _SPARE_READY handshake has been consumed
        self._spares: list[list] = []
        #: boots awaiting their ready handshake: wid -> (kind, t0)
        self._boot_pending: dict[int, tuple[str, float]] = {}
        #: children sent a round whose answer was never read (still
        #: computing, or answered into a pipe nobody drains)
        self._unanswered: set[int] = set()

    # -- boot-wall accounting ------------------------------------------
    def _note_boot(self, wid: int, kind: str) -> None:
        self._boot_pending[wid] = (kind, time.monotonic())

    def _finish_boot(self, wid: int) -> None:
        note = self._boot_pending.pop(wid, None)
        if note is not None:
            kind, t0 = note
            self.boot_events.append(
                {"kind": kind, "worker_id": int(wid),
                 "wall_s": time.monotonic() - t0})

    def _boot_child(self, factory, wid: int):
        """Fork/spawn one child process; returns (proc, parent_conn)."""
        parent, child = self._ctx.Pipe()
        stale = ()
        if self._ctx.get_start_method() == "fork":
            # a forked child inherits every parent-side pipe fd open at
            # fork time — including its *own* pipe's parent end.  Those
            # copies keep the pipe peers alive after a coordinator
            # SIGKILL, so EOF — the workers' only signal that the
            # coordinator died — would never fire and the fleet (and
            # with it the resource tracker holding the shm segments)
            # would outlive the fit forever.  Hand the stale Connection
            # objects to the child to close at boot; under 'spawn'
            # nothing is inherited and pickling them would *duplicate*
            # the handles instead.
            stale = (tuple(self._conns.values())
                     + tuple(entry[1] for entry in self._spares)
                     + (parent,))
        proc = self._ctx.Process(target=_child_main,
                                 args=(child, factory, wid, stale,
                                       self.blas_threads),
                                 daemon=True)
        proc.start()
        child.close()
        return proc, parent

    def _spawn(self) -> None:
        for wid in self._worker_ids:
            self._note_boot(wid, "cold_spawn")
            proc, parent = self._boot_child(self._factory, wid)
            self._procs[wid] = proc
            self._conns[wid] = parent
        # collect every child's ready handshake before the first round:
        # a worker that cannot even boot is not recoverable by respawn,
        # so this raises (after cleaning up the brood) instead of
        # letting run_round misclassify the boot as a stall
        for wid in self._worker_ids:
            conn = self._conns[wid]
            msg = None
            try:
                if conn.poll(self.SPAWN_TIMEOUT):
                    msg = conn.recv()
            except (EOFError, OSError):
                msg = None
            if msg != _READY:
                self._teardown()
                raise WorkerCrash(wid, 0,
                                  reason="worker failed to start")
            self._finish_boot(wid)

    def _abandon_round(self) -> set[int]:
        busy = self._unanswered & set(self._procs)
        self._round_state, self._unanswered = None, set()
        return busy

    def _teardown(self) -> None:
        # a child still owing an answer reads the shutdown message only
        # after its round, eating the join grace: kill it outright
        for wid in self._abandon_round():
            self._kill_worker(wid)
        spare_conns = [entry[1] for entry in self._spares]
        spare_procs = [entry[0] for entry in self._spares]
        for conn in list(self._conns.values()) + spare_conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in list(self._procs.values()) + spare_procs:
            proc.join(timeout=self.JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = {}
        self._conns = {}
        self._spares = []

    def _kill_worker(self, wid: int) -> None:
        """Escalated removal of a stalled child: terminate, then kill.

        The worker is dropped from the live maps so teardown and the
        membership verbs never touch the corpse again.
        """
        proc = self._procs.pop(wid, None)
        conn = self._conns.pop(wid, None)
        self._unanswered.discard(wid)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _send_bounded(self, wid: int, payload, deadline: float) -> str:
        """Broadcast to one worker under the round deadline.

        A healthy child sits in ``recv()`` between rounds, draining its
        pipe — but a wedged one leaves the buffer full, and a payload
        larger than the OS pipe buffer then blocks ``send()`` *before*
        the recv deadline ever starts.  Shipping from a helper thread
        bounds it: on expiry the child is killed, which breaks the pipe
        and unblocks the writer.  Returns 'ok' / 'crashed' / 'stalled'.
        """
        conn = self._conns[wid]
        outcome: list = []

        def ship():
            try:
                conn.send(payload)
                outcome.append("ok")
            except (BrokenPipeError, OSError):
                outcome.append("crashed")
            except BaseException as exc:     # e.g. a pickling TypeError
                outcome.append(exc)

        t = threading.Thread(target=ship, daemon=True)
        t.start()
        t.join(max(self.SEND_GRACE, deadline - time.monotonic()))
        if t.is_alive():
            # deadline hit mid-send: the child is not draining its pipe
            self._kill_worker(wid)       # EPIPE unblocks the writer
            t.join(timeout=5.0)
            return "stalled"
        got = outcome[0] if outcome else "crashed"
        if isinstance(got, BaseException):
            # a non-IPC failure (bad payload) is the caller's bug, not a
            # worker fault: surface it instead of spinning recovery
            raise got
        return got

    def send_round(self, y, iteration, directives) -> None:
        crashed, stalled = [], []
        deadline = (None if self.round_timeout is None
                    else time.monotonic() + self.round_timeout)
        for wid in self._worker_ids:
            payload = ("round", y, iteration, directives.get(wid))
            self.broadcast_bytes += _pickled_nbytes(payload)
            self._unanswered.add(wid)
            if deadline is None:
                try:
                    self._conns[wid].send(payload)
                except (BrokenPipeError, OSError):
                    self._kill_worker(wid)   # reap the corpse now
                    crashed.append(wid)
            else:
                sent = self._send_bounded(wid, payload, deadline)
                if sent == "crashed":
                    self._kill_worker(wid)
                    crashed.append(wid)
                elif sent == "stalled":
                    stalled.append(wid)
        self._round_state = (iteration, crashed, stalled)

    def collect_round_stream(self):
        """Yield results as their pipes become readable (arrival order).

        Failures raise in one typed exception after the stream ends, so
        a consumer that already committed early arrivals discards them
        through the normal recovery path.
        """
        if self._round_state is None:
            raise RuntimeError("collect_round without a sent round")
        iteration, crashed, stalled = self._round_state
        self._round_state = None
        # per-phase budget: the broadcast was bounded on its own
        # deadline, so the answer deadline starts only now — a wedged
        # send (killed at send time) can never condemn the other
        # workers' compute time.  A worst-case faulty round is
        # therefore bounded by ~2x round_timeout, never unbounded.
        deadline = (None if self.round_timeout is None
                    else time.monotonic() + self.round_timeout)
        # workers killed at send time are already out of _conns
        pending = {self._conns[wid]: wid for wid in self._worker_ids
                   if wid not in crashed and wid in self._conns}
        while pending:
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            elif crashed or stalled:
                # the round already lost a worker: bound the remaining
                # recv()s so a second stalled worker cannot hang recovery
                timeout = self.DRAIN_TIMEOUT
            else:
                timeout = None       # wait forever (no deadline set)
            ready = conn_wait(list(pending), timeout)
            if not ready:
                if deadline is not None:
                    # the configured deadline expired with answers still
                    # missing: every pending child is stalled-but-alive
                    # — escalate
                    for conn, wid in list(pending.items()):
                        self._kill_worker(wid)
                        stalled.append(wid)
                # else: drain bound hit with *no* deadline configured —
                # the user never opted into stall detection, so pending
                # children may just be slow: abandon their answers (the
                # round is discarded by recovery anyway) without killing
                # them; they stay unanswered, so recovery reaps them
                pending.clear()
                break
            for conn in ready:
                wid = pending.pop(conn)
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    # the child is gone: real (or injected-hard-exit)
                    # death.  Reap the corpse immediately — an in-place
                    # promotion (see replace_workers) must find only
                    # live children in the maps
                    self._kill_worker(wid)
                    crashed.append(wid)
                    continue
                self._unanswered.discard(wid)
                if isinstance(result, RoundResult):
                    self.gather_bytes += _result_nbytes(result)
                yield wid, result
        if crashed or stalled:
            raise _round_failure(iteration, crashed, stalled,
                                 crash_reason="worker process died")

    def heartbeat(self, iteration: int, timeout: float) -> None:
        """Ping every child and poll the replies against one deadline.

        This is the real detector: a child that does not answer in time
        is escalated (terminate, then kill) exactly like a round-
        deadline stall, so even a multi-minute wedge costs at most
        ``timeout`` wall seconds.  A broken pipe at either phase is a
        death.
        """
        if self._round_state is not None:
            raise RuntimeError("heartbeat with a round in flight")
        crashed, stalled = [], []
        pending = {}
        for wid in self._worker_ids:
            conn = self._conns.get(wid)
            if conn is None:
                crashed.append(wid)
                continue
            try:
                conn.send(("ping",))
            except (BrokenPipeError, OSError):
                self._kill_worker(wid)
                crashed.append(wid)
                continue
            pending[conn] = wid
        deadline = time.monotonic() + timeout
        while pending:
            ready = conn_wait(list(pending),
                              max(0.0, deadline - time.monotonic()))
            if not ready:
                for conn, wid in list(pending.items()):
                    self._kill_worker(wid)
                    stalled.append(wid)
                pending.clear()
                break
            for conn in ready:
                wid = pending.pop(conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._kill_worker(wid)
                    crashed.append(wid)
                    continue
                if msg != _PONG:
                    # protocol desync — treat like a death
                    self._kill_worker(wid)
                    crashed.append(wid)
        if crashed or stalled:
            exc = _round_failure(iteration, crashed, stalled,
                                 crash_reason="worker process died")
            exc.detector = "heartbeat"
            raise exc

    # -- hot spares / membership ---------------------------------------
    def prewarm_spares(self, n: int) -> None:
        """Top the spare pool up to ``n`` pre-booted children.

        Boot is asynchronous: this returns immediately, the spares
        announce themselves via the ``_SPARE_READY`` handshake which
        :meth:`spares_ready` consumes without blocking.  A spare costs
        one idle interpreter; it holds no shard until configured.
        """
        while len(self._spares) < int(n):
            proc, conn = self._boot_child(None, -1)
            self._spares.append([proc, conn, False])

    def spares_ready(self) -> int:
        """Count booted spares, consuming pending handshakes (never
        blocks); dead spares are reaped from the pool."""
        live, ready = [], 0
        for entry in self._spares:
            proc, conn, is_ready = entry
            if not is_ready:
                try:
                    if conn.poll(0):
                        entry[2] = conn.recv() == _SPARE_READY
                except (EOFError, OSError):
                    self._reap(proc, conn)
                    continue
            if entry[2]:
                ready += 1
            live.append(entry)
        self._spares = live
        return ready

    @staticmethod
    def _reap(proc, conn) -> None:
        try:
            conn.close()
        except OSError:
            pass
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)

    def _take_ready_spare(self):
        """Pop one booted spare as (proc, conn), or None."""
        self.spares_ready()
        for entry in self._spares:
            if entry[2]:
                self._spares.remove(entry)
                return entry[0], entry[1]
        return None

    def _collect_ready(self, wids, reason: str) -> None:
        """Second phase of a two-phase (re)configure: every named child
        must answer ``_READY`` within the spawn budget."""
        for wid in wids:
            conn = self._conns.get(wid)
            msg = None
            try:
                if conn is not None and conn.poll(self.SPAWN_TIMEOUT):
                    msg = conn.recv()
            except (EOFError, OSError):
                msg = None
            if msg != _READY:
                self._kill_worker(wid)
                raise WorkerCrash(wid, 0, reason=reason)
            self._finish_boot(wid)

    def replace_workers(self, factory, worker_ids) -> None:
        """Rebuild exactly ``worker_ids`` in place: promote ready spares,
        cold-spawn once the pool runs dry.

        Survivors are left running — they keep their warm engine caches
        and never re-handshake — except a child still owing an answer
        of the discarded round, which is reaped and rebuilt for its id
        after the named ones.  Two-phase: all configures are sent before
        any ready handshake is awaited, so the replacements boot
        concurrently.
        """
        self._factory = factory
        worker_ids = tuple(worker_ids)
        busy = self._abandon_round()
        rebuild = worker_ids + tuple(sorted(busy - set(worker_ids)))
        for wid in rebuild:
            self._kill_worker(wid)           # sweep any corpse remains
            spare = self._take_ready_spare()
            if spare is not None:
                proc, conn = spare
                self._note_boot(wid, "spare_promote")
                conn.send(("configure", factory, wid))
            else:
                self._note_boot(wid, "cold_spawn")
                proc, conn = self._boot_child(factory, wid)
            self._procs[wid] = proc
            self._conns[wid] = conn
        self._collect_ready(rebuild, "replacement worker failed to start")

    def reconfigure(self, factory, worker_ids) -> None:
        """Adopt a new (factory, worker set), reusing warm children.

        Every live child that owes no answer (and every ready spare) is
        re-targeted with a configure message — it closes its old worker
        and builds the new shard in the warm interpreter; children
        still owing one are reaped.  Surplus warm children demote back
        into the spare pool; missing slots cold-spawn.
        """
        self._factory = factory
        self._worker_ids = tuple(worker_ids)
        for wid in self._abandon_round():
            self._kill_worker(wid)
        pool = [(self._procs[wid], self._conns[wid])
                for wid in list(self._procs)]
        self._procs, self._conns = {}, {}
        while True:
            spare = self._take_ready_spare()
            if spare is None:
                break
            pool.append(spare)
        for wid in self._worker_ids:
            proc = conn = None
            while pool:
                proc, conn = pool.pop(0)
                try:
                    self._note_boot(wid, "reconfigure")
                    conn.send(("configure", self._factory, wid))
                    break
                except (BrokenPipeError, OSError):
                    self._reap(proc, conn)    # died warm — try the next
                    proc = conn = None
            if proc is None:
                self._note_boot(wid, "cold_spawn")
                proc, conn = self._boot_child(self._factory, wid)
            self._procs[wid] = proc
            self._conns[wid] = conn
        # surplus warm children become ready spares: still configured
        # with their old shard, but a future configure re-targets them
        for proc, conn in pool:
            self._spares.append([proc, conn, True])
        self._collect_ready(self._worker_ids,
                            "worker failed to start")


def make_executor(name: str) -> BaseExecutor:
    """Build an executor backend by config name."""
    try:
        cls = {"serial": SerialExecutor, "thread": ThreadExecutor,
               "process": ProcessExecutor}[name]
    except KeyError:
        raise ValueError(f"unknown executor {name!r}; choose from "
                         f"('serial', 'thread', 'process')")
    return cls()
