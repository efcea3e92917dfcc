"""Zero-copy shared-memory data plane for the process executor.

The pipe transport pays a serialization tax on every hop of a sharded
fit: the dataset is pickled into each child at boot (and again for
every hot-spare promotion and re-expand), the centroids are pickled
``W`` times per round, and the ``(K, N+1)`` partials come back the
same way.  This module moves the bulk payloads into
:mod:`multiprocessing.shared_memory` segments and demotes the pipes to
small control/ack tokens:

* **Dataset segment** — ``x`` (and ``sample_weight``) are placed once
  in a shared segment; every worker maps its GEMM-unit-aligned shard
  as a *view* of the same physical pages.  Worker factories then
  pickle only a tiny :class:`ArrayRef`, so a cold spawn, a spare
  promotion and an elastic re-expand all attach in O(1) instead of
  re-shipping the shard.
* **Broadcast buffer** — the per-round centroids are written once into
  a generation-stamped buffer (seqlock style: ``gen_begin`` is written
  before the payload, ``gen_end`` after; a reader copies the payload
  and then validates both stamps against the generation its round
  token named, raising :class:`StaleGenerationError` on any mismatch)
  instead of being pickled into ``W`` pipes.
* **Result slots** — each worker owns one slot segment per shard plan;
  a round's labels / min-distances / fused partial are written there
  and the pipe carries back a stripped, token-sized ack.  The
  coordinator *copies* arrays out of the slot at collect time, so an
  overlapped next round can never scribble over partials the ABFT
  check still wants — and corrupt-partial injection lands in the slot
  itself, so the checksum path exercises the real shared data plane.

Synchronisation is by the round protocol, not by the stamps: the
coordinator publishes a generation strictly after every reply of the
previous one was collected, and a worker reads the buffer exactly once
per round token before answering.  The stamps are validation
(defence in depth), catching a torn or stale read as a hard error
instead of a silent wrong-centroid round.

**Cleanup.**  Segments are created by the coordinator process only,
so they are registered with the interpreter's ``resource_tracker`` —
if the coordinator dies without unlinking (even ``SIGKILL``), the
tracker process outlives it and unlinks every registered segment, so a
kill anywhere leaves no stranded ``/dev/shm`` entries.  Attach-side
opens in the children re-register the same names, but the children
*share the parent's tracker* (its fd is inherited under both fork and
spawn), so the registration set is one idempotent pool — the creator's
unlink unregisters exactly once and no child can race a second unlink.
:meth:`ShmSession.close` unlinks everything eagerly on the normal
path; Linux keeps existing mappings valid after an unlink, so a
straggler child can never fault on a replaced slot epoch.

Bit-identity: every array crosses the plane as raw bytes of the exact
dtype the pipe transport would have pickled — the shm fit is
bit-identical to the pipe fit (asserted by the hypothesis suite in
``tests/distributed/test_shm_transport.py`` and re-proved by the
``runner --smoke`` transport gate).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SEGMENT_PREFIX", "ArrayRef", "BroadcastRef", "SlotRef",
           "ShmSession", "StaleGenerationError", "attach_array",
           "read_broadcast", "write_slot", "detach_all"]

#: every segment name starts with this marker, so tests (and humans)
#: can audit ``/dev/shm`` for strays left by a killed fit
SEGMENT_PREFIX = "reproshm"

#: int64 header words of the broadcast buffer and the result slots:
#: [gen_begin, gen_end, iteration]
_HEADER_WORDS = 3
_HEADER_BYTES = _HEADER_WORDS * 8


class StaleGenerationError(RuntimeError):
    """A generation-stamped read did not match the expected generation.

    Raised when a reader's copy of a broadcast buffer or result slot
    carries stamps other than the generation its control token named —
    a torn write or a protocol desync.  The round protocol makes this
    unreachable on healthy paths; reaching it is a hard error, never a
    retry.
    """


@dataclass(frozen=True)
class ArrayRef:
    """Picklable handle to one shared ndarray (name + layout)."""

    name: str
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class BroadcastRef:
    """Picklable handle to the generation-stamped centroid buffer."""

    name: str
    shape: tuple          # (K, N)
    dtype: str


@dataclass(frozen=True)
class SlotRef:
    """Picklable handle to one worker's per-round result slot."""

    name: str
    rows: int             # shard rows (labels / best length)
    n_clusters: int
    n_features: int
    dtype: str            # kernel dtype of ``best``


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _slot_layout(ref: SlotRef) -> tuple[dict, int]:
    """Field name -> (offset, shape, dtype) map of a slot, plus size.

    Regions are laid out back to back, each 8-byte aligned so every
    ndarray view lands on a natural boundary for its dtype.
    """
    dtype = np.dtype(ref.dtype)
    fields = {}
    off = 0

    def region(name, shape, dt):
        nonlocal off
        fields[name] = (off, shape, np.dtype(dt))
        off = _align8(off + int(np.prod(shape)) * np.dtype(dt).itemsize)

    region("header", (_HEADER_WORDS,), np.int64)
    region("labels", (ref.rows,), np.int64)
    region("best", (ref.rows,), dtype)
    region("partial", (ref.n_clusters, ref.n_features + 1), np.float64)
    return fields, off


def _views(buf, ref: SlotRef) -> dict:
    fields, _ = _slot_layout(ref)
    return {name: np.ndarray(shape, dtype=dt, buffer=buf, offset=off)
            for name, (off, shape, dt) in fields.items()}


# -- attach-side cache (worker processes) ------------------------------

#: per-process cache of attached segments: a worker touches the same
#: dataset / broadcast / slot names every round, so each attaches once
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    seg = _ATTACHED.get(name)
    if seg is None:
        # the attach re-registers the name with the resource tracker the
        # child shares with the creator — an idempotent set-add, undone
        # exactly once by the creator's unlink (module docstring)
        seg = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = seg
    return seg


def detach_all() -> None:
    """Close every cached attachment (worker shutdown path)."""
    for seg in _ATTACHED.values():
        try:
            seg.close()
        except OSError:  # pragma: no cover - defensive
            pass
    _ATTACHED.clear()


def attach_array(ref: ArrayRef) -> np.ndarray:
    """Map a shared ndarray by reference (zero-copy view)."""
    seg = _attach(ref.name)
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)


def read_broadcast(ref: BroadcastRef, expected_generation: int) -> np.ndarray:
    """Copy the broadcast centroids out, validating the seqlock stamps.

    The copy happens *before* the validation (classic seqlock order):
    a torn read can never be returned, because the stamps it copied
    under cannot both equal the expected generation.
    """
    seg = _attach(ref.name)
    header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=seg.buf)
    payload = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                         buffer=seg.buf, offset=_HEADER_BYTES)
    y = payload.copy()
    gen_begin, gen_end = int(header[0]), int(header[1])
    if not (gen_begin == gen_end == int(expected_generation)):
        raise StaleGenerationError(
            f"broadcast read expected generation {expected_generation}, "
            f"buffer is stamped [{gen_begin}, {gen_end}]")
    return y


def write_slot(ref: SlotRef, result, generation: int) -> None:
    """Write one round's arrays into the worker's slot (child side).

    ``gen_begin`` goes first and ``gen_end`` last, so a reader that
    validates both against its expected generation can never adopt a
    torn write.
    """
    seg = _attach(ref.name)
    v = _views(seg.buf, ref)
    header = v["header"]
    header[0] = int(generation)
    v["labels"][:] = result.labels
    v["best"][:] = result.best
    v["partial"][:] = result.partial
    header[2] = int(result.iteration)
    header[1] = int(generation)


# -- coordinator-side session ------------------------------------------

class ShmSession:
    """Owns every shared segment of one sharded fit (creator side).

    Created by the coordinator when the resolved transport is
    ``'shm'``: the dataset (and weights) are copied into shared
    segments once, the broadcast buffer is created lazily at the first
    publish, and the per-worker result slots are (re)built whenever
    the shard plan changes geometry.  :meth:`close` unlinks everything
    and is idempotent; a process killed before it runs is covered by
    the resource tracker (see the module docstring).
    """

    def __init__(self, x: np.ndarray, sample_weight: np.ndarray | None = None):
        self._prefix = (f"{SEGMENT_PREFIX}-{os.getpid()}-"
                        f"{secrets.token_hex(4)}")
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        self._generation = 0
        self._broadcast_ref: BroadcastRef | None = None
        self._slots: dict[int, SlotRef] = {}
        self._slot_epoch = 0
        self.data_ref = self._create_array("x", x)
        self.weight_ref = (None if sample_weight is None
                           else self._create_array("w", sample_weight))

    # -- segment bookkeeping -------------------------------------------
    def _create(self, tag: str, size: int) -> shared_memory.SharedMemory:
        name = f"{self._prefix}-{tag}"
        seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments[name] = seg
        return seg

    def _unlink(self, name: str) -> None:
        seg = self._segments.pop(name, None)
        if seg is None:
            return
        try:
            seg.close()
            seg.unlink()
        except OSError:  # pragma: no cover - already gone
            pass

    def _create_array(self, tag: str, arr: np.ndarray) -> ArrayRef:
        arr = np.ascontiguousarray(arr)
        seg = self._create(tag, max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[:] = arr
        return ArrayRef(name=seg.name, shape=tuple(arr.shape),
                        dtype=arr.dtype.str)

    # -- broadcast ------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def publish(self, y: np.ndarray, iteration: int) -> tuple[BroadcastRef,
                                                              int]:
        """Write the round's centroids; returns (ref, generation).

        One write per round regardless of the fleet width — the pipes
        then carry only the generation-stamped control tokens.
        """
        if self._broadcast_ref is None:
            seg = self._create("bcast", _HEADER_BYTES + max(1, y.nbytes))
            self._broadcast_ref = BroadcastRef(
                name=seg.name, shape=tuple(y.shape), dtype=y.dtype.str)
        ref = self._broadcast_ref
        if tuple(y.shape) != ref.shape or y.dtype.str != ref.dtype:
            raise ValueError(
                f"broadcast shape changed mid-fit: buffer is "
                f"{ref.shape}/{ref.dtype}, got {y.shape}/{y.dtype.str}")
        seg = self._segments[ref.name]
        header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=seg.buf)
        payload = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                             buffer=seg.buf, offset=_HEADER_BYTES)
        self._generation += 1
        gen = self._generation
        header[0] = gen
        payload[:] = y
        header[2] = int(iteration)
        header[1] = gen
        return ref, gen

    # -- result slots ---------------------------------------------------
    def make_slots(self, plan, n_clusters: int, n_features: int,
                   dtype) -> None:
        """(Re)build one result slot per worker of ``plan``.

        A no-op when the plan's shard geometry matches the current
        slots (promotion in place reuses them); otherwise a new slot
        epoch is created and the previous epoch's segments unlinked —
        existing mappings in straggler children stay valid (Linux
        semantics), they are simply no longer read.
        """
        dtype = np.dtype(dtype)
        want = {int(s.worker_id): (int(s.hi - s.lo)) for s in plan.shards}
        have = {wid: ref.rows for wid, ref in self._slots.items()}
        if want == have:
            return
        for wid in list(self._slots):
            self._unlink(self._slots.pop(wid).name)
        self._slot_epoch += 1
        for shard in plan.shards:
            ref = SlotRef(name="", rows=int(shard.hi - shard.lo),
                          n_clusters=int(n_clusters),
                          n_features=int(n_features), dtype=dtype.str)
            _, size = _slot_layout(ref)
            seg = self._create(
                f"slot{self._slot_epoch}w{shard.worker_id}", size)
            self._slots[int(shard.worker_id)] = replace(ref, name=seg.name)

    def slot_ref(self, worker_id: int) -> SlotRef:
        return self._slots[int(worker_id)]

    def read_slot(self, worker_id: int, expected_generation: int) -> dict:
        """Copy one worker's round arrays out of its slot (creator side).

        Arrays are **copies**: the coordinator may overlap the next
        round's broadcast before the previous round's ABFT check reads
        these partials, and a fast worker must never scribble over
        them.  Stamps are validated after the copy, seqlock order.
        """
        ref = self._slots[int(worker_id)]
        seg = self._segments[ref.name]
        v = _views(seg.buf, ref)
        out = {"labels": v["labels"].copy(), "best": v["best"].copy(),
               "partial": v["partial"].copy()}
        header = v["header"]
        gen_begin, gen_end = int(header[0]), int(header[1])
        if not (gen_begin == gen_end == int(expected_generation)):
            raise StaleGenerationError(
                f"slot read (worker {worker_id}) expected generation "
                f"{expected_generation}, slot is stamped "
                f"[{gen_begin}, {gen_end}]")
        out["iteration"] = int(header[2])
        return out

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment of this session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._segments):
            self._unlink(name)
        self._slots = {}
        self._broadcast_ref = None

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
