"""Checkpoint/restart state store for the sharded coordinator.

Snapshots are pickled blobs of the coordinator's whole per-iteration
state — centroids, iteration index, convergence monitor, simulated
clock, counters — taken every ``checkpoint_every`` iterations.  After a
worker loss the coordinator restores the newest snapshot and replays
from there; because the Lloyd step is deterministic given ``(x, y)``
(and the worker SEU streams are keyed by iteration, not history), the
replayed trajectory is bit-identical to an uninterrupted run.

Two storage modes behind one API:

* **in-memory** (default): snapshots live as pickled bytes inside the
  store object.  Pickling is kept even here so a restore always yields
  fresh objects — the live fit state can never alias a snapshot.
* **directory-backed** (``directory=...``): snapshots persist as
  ``ckpt_<iteration>.pkl`` files written atomically — a uniquely-named
  tmp file is written, fsynced, then ``os.replace``\\ d into place — so
  a crash mid-write never corrupts the newest restorable state.  A
  crash *between* write and replace can still strand the tmp file, so
  stray ``*.tmp`` files are swept on construction and by :meth:`clear`.
  The sweep spares tmp files younger than ``TMP_SWEEP_AGE_S`` — unique
  names stop writers colliding with *each other*, but only the age
  guard stops a glob-based sweep from unlinking a concurrent writer's
  live tmp (a healthy save holds its tmp for milliseconds).  Only the
  ``keep`` newest files are retained.

**Asynchronous writes.**  Directory-backed stores default to a
background writer (``sync=False``): :meth:`save` pickles the state in
the calling thread — the snapshot is consistent at call time, and the
caller may keep mutating the live objects — then hands the blob to a
daemon writer over a bounded queue, moving the write+fsync cost off the
coordinator's round loop.  The durability contract is preserved by a
**flush barrier**: every read (:attr:`iterations`, :meth:`load_latest`)
and :meth:`clear` drain the queue first, so a recovery restore can
never observe a snapshot that was saved but not yet durable, and the
coordinator flushes once more when the fit ends.  Each write still uses
the same tmp+fsync+replace protocol, so a crash at any point — of the
writer thread or the whole process — leaves only complete, restorable
checkpoint files behind (an interrupted write strands at most a tmp
file the sweep collects later).  A failed background write is re-raised
at the next ``save``/``flush``.  ``sync=True`` keeps every write on the
calling thread (the legacy behaviour, and the default for in-memory
stores, where there is no I/O to hide).

Snapshots are the only state a fit persists.  Workers keep nothing on
disk: a replacement rebuilds its shard's per-fit invariants (the norm
vector, one O(shard) pass) at boot, exactly as a first boot does.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

__all__ = ["CheckpointStore"]


class _DaemonWriter:
    """Bounded queue of write thunks drained by one self-respawning daemon.

    :class:`CheckpointStore`'s asynchronous write path: :meth:`submit`
    enqueues a zero-argument callable (blocking once ``QUEUE_MAX``
    thunks are outstanding, so a producer that outruns the disk
    throttles instead of buffering unbounded blobs) and
    :meth:`flush` is the barrier — it returns only when every accepted
    thunk has run.  A thunk that raises poisons the writer: the queue
    is dropped and the exception re-raises at the next submit/flush.

    The drain thread exits when idle and is respawned by the next
    submit.  Liveness is a lock-guarded flag cleared in the same
    critical section as the exit decision — ``Thread.is_alive()`` could
    report a dying-but-alive thread and let a submit skip the respawn,
    orphaning its freshly queued thunk.
    """

    #: thread name of the drain daemon
    NAME = "checkpoint-writer"
    #: bounded write queue: a saver that outruns the disk blocks here
    #: instead of buffering unbounded snapshot blobs
    QUEUE_MAX = 4

    def __init__(self):
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._thread: threading.Thread | None = None
        self._live = False
        self._busy = False
        self._error: BaseException | None = None

    def submit(self, fn) -> None:
        with self._cond:
            if self._error is not None:
                err, self._error = self._error, None
                raise err
            while len(self._pending) >= self.QUEUE_MAX:
                self._cond.wait()
            self._pending.append(fn)
            if not self._live:
                self._live = True
                self._thread = threading.Thread(
                    target=self._drain, name=self.NAME, daemon=True)
                self._thread.start()
            self._cond.notify_all()

    def flush(self) -> None:
        with self._cond:
            while self._pending or self._busy:
                self._cond.wait()
            if self._error is not None:
                err, self._error = self._error, None
                raise err

    def _drain(self) -> None:
        while True:
            with self._cond:
                if not self._pending:
                    # exit decision and liveness clear are atomic under
                    # the lock: any submit() arriving after this sees a
                    # dead writer and spawns a fresh one
                    self._live = False
                    self._busy = False
                    self._cond.notify_all()
                    return
                fn = self._pending.popleft()
                self._busy = True
                self._cond.notify_all()
            try:
                fn()
            except BaseException as exc:
                with self._cond:
                    self._error = exc
                    self._pending.clear()
                    self._live = False
                    self._busy = False
                    self._cond.notify_all()
                return


class CheckpointStore:
    """Iteration-keyed snapshot store (in-memory or directory-backed).

    Parameters
    ----------
    directory : path-like, optional
        Back the store with atomic per-iteration files; None (default)
        keeps snapshots in memory.
    keep : int
        Newest snapshots retained; older ones are pruned.
    sync : bool, optional
        True writes every snapshot on the calling thread; False hands
        the pickled blob to a background writer (bounded queue, flush
        barrier on reads).  None (default) resolves to synchronous for
        in-memory stores and asynchronous for directory-backed ones.
    event_bus : :class:`repro.obs.events.EventBus`, optional
        Bus the store publishes ``checkpoint_save`` (one per accepted
        snapshot, from the saving thread) and ``checkpoint_flush`` (one
        per completed barrier) events onto, source ``"checkpoint"``.
        The coordinator wires its fit bus in here automatically when
        the store was not pre-wired to one of its own.  Events mark
        *acceptance*, not durability — an async save's write may still
        be in flight until the next flush event.
    """

    #: tmp files younger than this are presumed to be a concurrent
    #: writer's live tmp and spared by the sweep; stranded files age
    #: past it and get collected by the next construction / clear()
    TMP_SWEEP_AGE_S = 60.0

    def __init__(self, directory: str | os.PathLike | None = None, *,
                 keep: int = 2, sync: bool | None = None, event_bus=None):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.keep = int(keep)
        self.event_bus = event_bus
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sweep_tmp()
        self.sync = (self.directory is None) if sync is None else bool(sync)
        self._mem: dict[int, bytes] = {}
        # background writer (directory-backed async stores only)
        self._writer = _DaemonWriter()

    # ------------------------------------------------------------------
    def _publish(self, kind: str, **fields) -> None:
        if self.event_bus is not None:
            self.event_bus.publish(kind, source="checkpoint", **fields)

    def _path(self, iteration: int) -> Path:
        return self.directory / f"ckpt_{iteration:08d}.pkl"

    def _sweep_tmp(self) -> None:
        """Remove tmp files stranded by a crash between write and
        replace (they are unreachable by any restore path, but neither
        pruning nor the iteration glob would ever touch them).  Recent
        tmp files are spared — they may belong to a concurrent writer
        mid-save on a shared directory."""
        cutoff = time.time() - self.TMP_SWEEP_AGE_S
        for p in self.directory.glob("*.tmp"):
            try:
                if p.stat().st_mtime <= cutoff:
                    p.unlink(missing_ok=True)
            except OSError:
                continue

    def save(self, iteration: int, state: dict) -> None:
        """Snapshot ``state`` under ``iteration`` (atomic on disk).

        The state is pickled before ``save`` returns, so the snapshot
        is consistent at call time even when the write itself happens
        on the background writer; a previously failed background write
        is re-raised here.
        """
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        if self.directory is None:
            self._mem[iteration] = blob
            for it in sorted(self._mem)[:-self.keep]:
                del self._mem[it]
            self._publish("checkpoint_save", iteration=int(iteration),
                          nbytes=len(blob), mode="memory")
            return
        if self.sync:
            self._write_blob(iteration, blob)
            self._prune()
            self._publish("checkpoint_save", iteration=int(iteration),
                          nbytes=len(blob), mode="sync")
            return
        self._writer.submit(lambda: self._write_and_prune(iteration, blob))
        # published outside the writer hand-off: subscribers run on the
        # saving thread and must never block the drain loop
        self._publish("checkpoint_save", iteration=int(iteration),
                      nbytes=len(blob), mode="async")

    def flush(self) -> None:
        """Barrier: return only when every queued snapshot is durably
        written (and re-raise a background write failure).  No-op for
        synchronous and in-memory stores."""
        if self.directory is None or self.sync:
            return
        self._writer.flush()
        self._publish("checkpoint_flush")

    def _write_and_prune(self, iteration: int, blob: bytes) -> None:
        self._write_blob(iteration, blob)
        self._prune()

    def _write_blob(self, iteration: int, blob: bytes) -> None:
        # unique tmp name (two writers on one directory can never step
        # on each other's half-written blob) + fsync before the rename,
        # so the renamed file is durably the full snapshot
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=f"ckpt_{iteration:08d}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self._path(iteration))
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def _prune(self) -> None:
        for it in self._list_iterations()[:-self.keep]:
            self._path(it).unlink(missing_ok=True)

    def _list_iterations(self) -> list[int]:
        if self.directory is None:
            return sorted(self._mem)
        its = []
        for p in self.directory.glob("ckpt_*.pkl"):
            try:
                its.append(int(p.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(its)

    @property
    def iterations(self) -> list[int]:
        """Checkpointed iterations, oldest first (flushes the writer
        first, so the listing reflects every completed ``save``)."""
        self.flush()
        return self._list_iterations()

    def load_latest(self) -> tuple[int, dict] | None:
        """Newest ``(iteration, state)`` snapshot, or None when empty.

        Flushes the background writer first — a restore never races a
        write — and the returned state is freshly unpickled: mutating it
        never touches the stored snapshot.
        """
        its = self.iterations
        if not its:
            return None
        it = its[-1]
        blob = (self._mem[it] if self.directory is None
                else self._path(it).read_bytes())
        return it, pickle.loads(blob)

    def clear(self) -> None:
        self._mem.clear()
        if self.directory is not None:
            try:
                self.flush()
            except Exception:
                # a failed pending write is moot: everything it could
                # have produced is being deleted anyway
                pass
            for it in self._list_iterations():
                self._path(it).unlink(missing_ok=True)
            self._sweep_tmp()
