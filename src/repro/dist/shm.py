"""The dataset segment: the process executor's shared copy of ``x``.

Every process-executor worker needs its GEMM-unit-aligned shard of the
dataset, and the pipes would otherwise pickle it into the child at
boot — and again for every hot-spare promotion and elastic re-expand.
Instead the coordinator places ``x`` once in a
:mod:`multiprocessing.shared_memory` segment; every worker maps its
shard as a *view* of the same physical pages.  Worker factories then
pickle only a tiny :class:`ArrayRef`, so a cold spawn, a spare
promotion and a re-expand all attach in O(1).  The dataset is the only
segment: workers sum nothing, so they need neither the sample weights
nor a transposed operand — both stay with the coordinator's merge.

Per-round payloads (centroids out; labels and distances back) stay on
the executor's pipes: a round moves a few bytes per shard row, which
no compute-bound shape can notice.

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
straggler child never faults.

Bit-identity: the shard view holds the exact bytes the factory would
otherwise have pickled, so a segment-backed fit is bit-identical to
the row-carrying fallback and to ``n_workers=1`` (asserted in
``tests/distributed/test_process_transport.py``).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SEGMENT_PREFIX", "ArrayRef", "ShmSession", "attach_array",
           "detach_all"]

#: every segment name starts with this marker, so tests (and humans)
#: can audit ``/dev/shm`` for strays left by a killed fit
SEGMENT_PREFIX = "reproshm"


@dataclass(frozen=True)
class ArrayRef:
    """Picklable handle to one shared ndarray (name + layout)."""

    name: str
    shape: tuple
    dtype: str


# -- attach-side cache (worker processes) ------------------------------

#: per-process cache of attached segments: a reconfigured child maps
#: the same dataset segment again, so each name attaches once
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


# -- coordinator-side session ------------------------------------------

class ShmSession:
    """Owns the dataset segment of one sharded fit.

    Created by the coordinator for every process-executor fit: the
    dataset is copied into a shared segment once.  :meth:`close`
    unlinks it and is idempotent; a process killed before it runs is
    covered by the resource tracker (see the module docstring).
    """

    def __init__(self, x: np.ndarray):
        self._prefix = (f"{SEGMENT_PREFIX}-{os.getpid()}-"
                        f"{secrets.token_hex(4)}")
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        self.data_ref = self._create_array("x", x)

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

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment of this session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._segments):
            self._unlink(name)

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
