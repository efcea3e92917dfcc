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

:class:`WorkerCacheStore` is the second, orthogonal store in this
module: shard-keyed checkpoints of the *workers'* engine operand caches
(norms + the hoisted transposed operand), so a replacement worker booting onto
a shard skips recomputing per-fit invariants the dead worker already
paid for.  Unlike coordinator snapshots these never affect the fit's
bits — a missing or compacted entry only costs boot time.  Both stores
share one :class:`_DaemonWriter` implementation for their asynchronous
write paths; the cache store additionally exposes :meth:`refresh` so
long fits can periodically re-assert entries that compaction evicted,
paying only an existence check while the entry is still warm.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

__all__ = ["CheckpointStore", "WorkerCacheStore"]


class _DaemonWriter:
    """Bounded queue of write thunks drained by one self-respawning daemon.

    The shared engine behind both stores' asynchronous write paths:
    :meth:`submit` enqueues a zero-argument callable (blocking once
    ``queue_max`` thunks are outstanding, so a producer that outruns
    the disk throttles instead of buffering unbounded blobs) and
    :meth:`flush` is the barrier — it returns only when every accepted
    thunk has run.  A thunk that raises poisons the writer: the queue
    is dropped and the exception re-raises at the next submit/flush.

    The drain thread exits when idle and is respawned by the next
    submit.  Liveness is a lock-guarded flag cleared in the same
    critical section as the exit decision — ``Thread.is_alive()`` could
    report a dying-but-alive thread and let a submit skip the respawn,
    orphaning its freshly queued thunk.
    """

    def __init__(self, name: str = "daemon-writer", *, queue_max: int = 4):
        self.name = name
        self.queue_max = int(queue_max)
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
            while len(self._pending) >= self.queue_max:
                self._cond.wait()
            self._pending.append(fn)
            if not self._live:
                self._live = True
                self._thread = threading.Thread(
                    target=self._drain, name=self.name, daemon=True)
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

    #: bounded write queue: a saver that outruns the disk blocks here
    #: instead of buffering unbounded snapshot blobs
    QUEUE_MAX = 4

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
        self._writer = _DaemonWriter("checkpoint-writer",
                                     queue_max=self.QUEUE_MAX)

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


class WorkerCacheStore:
    """Shard-keyed checkpoints of worker engine operand caches.

    A worker booting onto a shard spends its start-up on per-fit
    invariants such as the x-norm pass.  Those are pure functions of
    the shard rows — identical for the original worker, a respawn, and
    a promoted spare — so the first worker to build them checkpoints
    the result here and every later boot onto the same rows preloads
    it (the engine re-validates shape/dtype on adoption; a stale or
    partial entry costs boot time, never bits).  A
    :class:`~repro.dist.worker.ShardWorker` saves only the light part:
    its transpose is always a borrowed view of the coordinator's, which
    storing would copy — or write out — again, while a replacement
    re-slices the view for free.  The heavy part serves any other
    caller of
    :meth:`~repro.core.engine.FastPathEngine.export_operands`.

    Keys are shard row ranges (``"shard_{lo}_{hi}"``), not worker ids:
    after an elastic replan the same rows may belong to a different id.

    **Compaction.**  Entries are split into a *light* part (the norm
    vector — one float per row) that is always kept, and a *heavy* part
    (the transposed sample copy — as large as the shard itself) kept
    only while the pool fits ``budget_bytes``; when a save would
    overflow, the oldest heavy payloads are evicted first and the
    new one is skipped if it alone cannot fit.  Large ``K·N`` fits thus
    degrade to norm-only preloads instead of mirroring the dataset.

    Two modes: **directory-backed** (one ``.npz`` pair per key, written
    tmp-then-:func:`os.replace` so readers never see a torn entry;
    shareable across processes — the writer state is dropped on pickle,
    so the store still pickles freely into process-executor children,
    each of which lazily spawns its own writer) or **in-memory**
    (``directory=None``; effective on the serial/thread backends only,
    since a forked child's copy dies with it).

    ``save`` skips keys that already have a light entry — first writer
    wins, and replayed boots stay write-free.  :meth:`refresh` is the
    long-fit companion: a first-writer-wins re-save that builds its
    payload lazily, so keeping an entry warm past compaction costs
    nothing while the entry still exists.

    **Asynchronous writes.**  Directory-backed stores default to the
    same :class:`_DaemonWriter` the coordinator's snapshot store uses
    (``sync=None`` resolves exactly like :class:`CheckpointStore`):
    ``save`` runs the existence check and heavy-budget eviction inline,
    then hands the npz writes to the background writer, keeping worker
    boot and refresh cadence off the write+fsync cost.  Reads and
    :meth:`clear` flush first, so a same-process load never races a
    write.  Unlike coordinator snapshots a failed cache write is
    *swallowed* — counted in ``write_errors``, never raised — because a
    missing entry only costs a later boot time, and failing a healthy
    fit over a best-effort cache would invert the store's purpose.
    Operand payloads are per-fit-static, so deferring the write never
    snapshots a torn value.
    """

    #: always-kept operand names (small: O(rows) scalars)
    LIGHT_KEYS = ("x_norms",)
    #: budget-gated operand names (each O(shard) bytes)
    HEAVY_KEYS = ("x_t",)

    def __init__(self, directory: str | os.PathLike | None = None, *,
                 budget_bytes: int = 256 << 20, sync: bool | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.budget_bytes = int(budget_bytes)
        self.sync = (self.directory is None) if sync is None else bool(sync)
        self._light: dict[str, dict] = {}
        self._heavy: dict[str, dict] = {}
        #: keys whose write is queued but possibly not yet on disk —
        #: keeps save/refresh first-writer-wins within this process
        #: during the async in-flight window
        self._queued: set[str] = set()
        self._writer: _DaemonWriter | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0

    def __getstate__(self):
        # threads and locks never cross a process boundary: a pickled
        # copy (process-executor child) starts with a fresh lazy writer
        # and an empty in-flight set — at worst it re-queues a write the
        # parent already has in flight, and tmp+replace makes that safe
        state = self.__dict__.copy()
        state["_writer"] = None
        state["_queued"] = set()
        return state

    def _writer_handle(self) -> _DaemonWriter:
        if self._writer is None:
            self._writer = _DaemonWriter("workercache-writer")
        return self._writer

    def flush(self) -> None:
        """Barrier: wait out queued cache writes (failures are counted
        in ``write_errors``, not raised — entries are best-effort)."""
        if self._writer is None:
            return
        try:
            self._writer.flush()
        except Exception:
            self.write_errors += 1

    # ------------------------------------------------------------------
    def _light_path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _heavy_path(self, key: str) -> Path:
        return self.directory / f"{key}.heavy.npz"

    def _write_npz(self, path: Path, arrays: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=path.stem + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, **arrays)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def _heavy_usage(self) -> list[tuple[float, Path | str, int]]:
        """Heavy entries as (age_rank, handle, nbytes), oldest first."""
        if self.directory is None:
            return [(i, key, sum(a.nbytes for a in arrs.values()))
                    for i, (key, arrs) in enumerate(self._heavy.items())]
        out = []
        for p in self.directory.glob("*.heavy.npz"):
            try:
                st = p.stat()
            except OSError:
                continue
            out.append((st.st_mtime, p, st.st_size))
        out.sort(key=lambda t: t[0])
        return out

    def _evict_for(self, nbytes: int) -> bool:
        """Evict oldest heavy payloads until ``nbytes`` more fit;
        False when the new payload alone exceeds the budget."""
        if nbytes > self.budget_bytes:
            return False
        # the budget decision reads on-disk usage, so queued writes
        # must land first — heavy admission is the one save path that
        # synchronizes; light-only saves and refresh no-ops never wait
        self.flush()
        usage = self._heavy_usage()
        used = sum(n for _, _, n in usage)
        for _, handle, n in usage:
            if used + nbytes <= self.budget_bytes:
                break
            if self.directory is None:
                self._heavy.pop(handle, None)
            else:
                Path(handle).unlink(missing_ok=True)
            self.evictions += 1
            used -= n
        return used + nbytes <= self.budget_bytes

    # ------------------------------------------------------------------
    def save(self, key: str, operands: dict) -> bool:
        """Checkpoint one shard's exported operands (first writer wins).

        Returns True when a new entry was written, False when the key
        already existed or ``operands`` had nothing to keep.
        """
        if not operands:
            return False
        light = {k: operands[k] for k in self.LIGHT_KEYS if k in operands}
        heavy = {k: operands[k] for k in self.HEAVY_KEYS if k in operands}
        if not light:
            return False
        if self._has_entry(key):
            return False
        heavy_bytes = sum(a.nbytes for a in heavy.values())
        keep_heavy = heavy and self._evict_for(heavy_bytes)
        if self.directory is None:
            self._light[key] = {k: np.array(v) for k, v in light.items()}
            if keep_heavy:
                self._heavy[key] = {k: np.array(v)
                                    for k, v in heavy.items()}
            return True

        def write():
            # light last: its presence is the entry-exists marker, so a
            # reader that sees it knows the heavy write already landed
            # (or was compacted) — same order the sync path always used
            if keep_heavy:
                self._write_npz(self._heavy_path(key), heavy)
            self._write_npz(self._light_path(key), light)

        if self.sync:
            write()
            return True
        self._queued.add(key)
        try:
            self._writer_handle().submit(write)
        except Exception:
            self.write_errors += 1
        return True

    def _has_entry(self, key: str) -> bool:
        if self.directory is None:
            return key in self._light
        return key in self._queued or self._light_path(key).exists()

    def refresh(self, key: str, payload_fn) -> bool:
        """First-writer-wins re-save with a lazily built payload.

        While the key's light entry exists (or its write is still in
        flight) this is a pure existence check — ``payload_fn`` is
        never called.  Once compaction (or an operator wiping the
        directory) dropped the entry, ``payload_fn()`` supplies fresh
        operands and the entry is re-saved through :meth:`save`.
        Returns True when a re-save was written/queued.
        """
        if self._has_entry(key):
            return False
        return self.save(key, payload_fn())

    def load(self, key: str) -> dict | None:
        """The shard's preload dict, or None (counted as hit/miss).

        Heavy payloads ride along when still resident; a compacted
        entry degrades to its light part.
        """
        if self.directory is None:
            light = self._light.get(key)
            if light is None:
                self.misses += 1
                return None
            self.hits += 1
            out = dict(light)
            out.update(self._heavy.get(key, {}))
            return out
        self.flush()          # a same-process load never races a write
        try:
            with np.load(self._light_path(key)) as z:
                out = {k: z[k] for k in z.files}
        except (OSError, ValueError):
            self.misses += 1
            return None
        try:
            with np.load(self._heavy_path(key)) as z:
                out.update({k: z[k] for k in z.files})
        except (OSError, ValueError):
            pass                      # compacted (or torn) — light only
        self.hits += 1
        return out

    def clear(self) -> None:
        """Drop every entry (call between fits — operands are per-x)."""
        self._light.clear()
        self._heavy.clear()
        self._queued.clear()
        if self.directory is not None:
            self.flush()      # no in-flight write survives to recreate
            for pattern in ("*.npz", "*.tmp"):
                for p in self.directory.glob(pattern):
                    p.unlink(missing_ok=True)
