"""Checkpoint/restart state store for the sharded coordinator.

Snapshots are pickled blobs of the coordinator's whole per-iteration
state — centroids, iteration index, convergence monitor, simulated
clock, counters.  The coordinator saves the initial state as iteration
0 and then every ``checkpoint_every`` iterations.  After a worker loss
it restores the newest snapshot and replays from there; because the
Lloyd step is deterministic given ``(x, y)`` (and the worker SEU
streams are keyed by iteration, not history), the replayed trajectory
is bit-identical to an uninterrupted run.

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

**Durability.**  Every write runs on the calling thread: when
:meth:`save` returns, the snapshot is pickled, fsynced and renamed into
place, so any later read — a recovery restore included — sees it.  A
crash at any point, of the saving thread or the whole process, leaves
only complete, restorable checkpoint files behind (an interrupted write
strands at most a tmp file the sweep collects later).  A snapshot is a
K×N centroid block plus a few small objects, so a write costs
milliseconds against a round of tens to hundreds.

Snapshots are the only state a fit persists.  Workers keep nothing on
disk: a replacement rebuilds its shard's per-fit invariants (the norm
vector, one O(shard) pass) at boot, exactly as a first boot does.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from pathlib import Path

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Iteration-keyed snapshot store (in-memory or directory-backed).

    Parameters
    ----------
    directory : path-like, optional
        Back the store with atomic per-iteration files; None (default)
        keeps snapshots in memory.
    keep : int
        Newest snapshots retained; older ones are pruned.
    event_bus : :class:`repro.obs.events.EventBus`, optional
        Bus the store publishes one ``checkpoint_save`` event per
        durable snapshot onto, source ``"checkpoint"``.  The
        coordinator wires its fit bus in here automatically when the
        store was not pre-wired to one of its own.
    """

    #: tmp files younger than this are presumed to be a concurrent
    #: writer's live tmp and spared by the sweep; stranded files age
    #: past it and get collected by the next construction / clear()
    TMP_SWEEP_AGE_S = 60.0

    def __init__(self, directory: str | os.PathLike | None = None, *,
                 keep: int = 2, event_bus=None):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.keep = int(keep)
        self.event_bus = event_bus
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sweep_tmp()
        self._mem: dict[int, bytes] = {}

    # ------------------------------------------------------------------
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
        """Snapshot ``state`` under ``iteration``; durable (atomic on
        disk) when this returns."""
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        if self.directory is None:
            self._mem[iteration] = blob
            mode = "memory"
        else:
            self._write_blob(iteration, blob)
            mode = "disk"
        for it in self.iterations[:-self.keep]:
            self._drop(it)
        if self.event_bus is not None:
            self.event_bus.publish("checkpoint_save", source="checkpoint",
                                   iteration=int(iteration),
                                   nbytes=len(blob), mode=mode)

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

    def _drop(self, iteration: int) -> None:
        if self.directory is None:
            del self._mem[iteration]
        else:
            self._path(iteration).unlink(missing_ok=True)

    @property
    def iterations(self) -> list[int]:
        """Checkpointed iterations, oldest first."""
        if self.directory is None:
            return sorted(self._mem)
        its = []
        for p in self.directory.glob("ckpt_*.pkl"):
            try:
                its.append(int(p.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(its)

    def load_latest(self) -> tuple[int, dict] | None:
        """Newest ``(iteration, state)`` snapshot, or None when empty.

        The returned state is freshly unpickled: mutating it never
        touches the stored snapshot.
        """
        its = self.iterations
        if not its:
            return None
        it = its[-1]
        blob = (self._mem[it] if self.directory is None
                else self._path(it).read_bytes())
        return it, pickle.loads(blob)

    def clear(self) -> None:
        for it in self.iterations:
            self._drop(it)
        if self.directory is not None:
            self._sweep_tmp()
