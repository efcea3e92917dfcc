"""Blocked streaming fast-path engine.

The production hot loop of the reproduction: assignment executed in
sample-chunks sized to a configurable memory budget instead of one
M x N distance-matrix shot.  Three properties make it the engine the
estimator and every variant's ``fast`` mode run through:

* **Bounded memory.**  Each chunk's GEMM accumulator is at most
  ``chunk_bytes`` (auto-derived from the device's L2 when unset), the
  row-argmin is fused into the chunk loop, and the accumulator is
  transformed into distances *in place* — no full distance matrix ever
  exists.  Flash-KMeans applies the same blocked exact-assignment idea
  to scale K-means beyond fast-memory capacity.

* **Hoisted fit-invariants.**  A :class:`FitCache` created once per fit
  holds the per-sample squared norms, the reusable label/distance
  output buffers, the chunk plan, and the injector block-coordinate map
  (:class:`BlockMap`), so none of them is recomputed or reallocated
  across Lloyd iterations.  Chunk scratch buffers are pooled across
  iterations for the same reason.

* **Exact fault semantics.**  SEU replay lands on the same logical tile
  coordinates whether or not the data was chunked: fault plans are
  drawn once per launch in threadblock-id order (preserving the
  injector's RNG stream and the functional simulator's block visit
  order) and applied through the explicit :class:`BlockMap` rather than
  through the accumulator layout.

Bitwise stability across chunk sizes: BLAS GEMM results are *not*
row-chunking-invariant, so the engine always issues GEMMs in a fixed
inner unit of :data:`GEMM_UNIT_ROWS` rows (rounded to a multiple of the
tile's TB_M).  Any two *engine* runs with the same tile therefore
execute the identical sequence of GEMM calls regardless of
``chunk_bytes``, making their labels/inertia bit-identical — the
property the equivalence tests pin down.  The
claim is engine-vs-engine: the legacy :func:`unchunked_assign`
baseline below uses one full-M GEMM and a different epilogue
association, so it agrees on labels but not necessarily on bits.

Fault-free fast lane: when no fault plan targets a chunk's blocks the
engine dispatches that chunk's whole unit grid as **one** stacked
``np.matmul`` over a ``(units, unit_rows, K)`` view — numpy's gufunc
loop then issues the identical sequence of per-unit BLAS GEMMs the
explicit Python walk would have issued, so the result is bit-identical
by construction (a *flat* chunk-sized GEMM would not be: BLAS results
are not row-batching-invariant in general).  The unit grid is only
walked in Python when fault plans actually intersect the chunk, keeping
the fault lane's replay semantics byte-for-byte untouched.  TF32 chunks
take the same lane through a cache-blocked rounder: the chunk is
rounded :data:`ROUND_BLOCK_BYTES` (~1024 rows, a unit multiple) at a
time into one small pooled buffer by :func:`round_tf32`'s in-place
chain, and each block's units go out as one stacked matmul.  Rounding
is elementwise, so the bits are the walk's, and no rounded copy of the
samples outlives a block.

Row-granular bound pruning: with live bounds (:mod:`repro.core.bounds`)
a fault-free chunk computes only its active rows.  They are gathered a
block at a time into the same pooled buffer's gather stage and packed
into fresh fixed-shape unit GEMMs, the last padded by repeating an
active row; the epilogue, argmin and bounds refresh run on the real
rows only and scatter back by global index.  At the unit shape BLAS
computes each output row from that row alone, so a packed row keeps
its unpruned bits — a kernel property :func:`gemm_rows_independent`
probes once per geometry, widening the lane back to whole units should
it ever fail.  The global tail (a partial unit ending the samples)
runs whole when any of its rows is active, as unpruned.

One fit-lifetime **operand cache** (charged to the allocation tracker)
hoists per-iteration work out of the loop: a transposed copy of the
samples for the fused update accumulator.  The per-feed ``x_chunk.T``
staging copy dominates the accumulation wall (strided gather); the
accumulator reads contiguous feature rows from the bound transpose
instead (:meth:`StreamedAccumulator.bind_source_t`), feeding bincount
the identical float64 values.  Holding the copy is a memory decision,
not a scratch one: every ``begin_fit`` cache hoists it unless ``x`` is
larger than :func:`host_operand_budget` (a quarter of the memory the
process may use, so ``x`` and its copy fit in half of it), and
``chunk_bytes`` bounds assignment scratch only.  Passes
over foreign data (predict/score) and declined fits keep the per-feed
staging path, with the same bits.

Fused centroid-update accumulation: ``assign`` optionally takes a
:class:`repro.core.accumulate.StreamedAccumulator` and feeds it each
chunk's (rows, labels) right after the chunk's argmin — the update
stage's sum/count pass rides the assignment loop instead of re-reading
all of ``x``.  Chunks are fed in chunk order, and thanks to the
accumulator's sequential-continuation design the accumulated bits never
depend on ``chunk_bytes``: they equal the seed one-shot ``np.add.at``
pass exactly.
"""

from __future__ import annotations

import functools
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.abft.schemes import NONE, AbftScheme
from repro.abft.thresholds import ThresholdPolicy
from repro.core.bounds import PRUNE_MODES, BoundsState
from repro.gemm.tiling import TileConfig
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.mma import round_tf32
from repro.obs.trace import NULL_TRACER, active_tracer
from repro.utils.arrays import ceil_div
from repro.utils.bits import flip_bit

__all__ = [
    "GEMM_UNIT_ROWS",
    "DEFAULT_CHUNK_BYTES",
    "ROUND_BLOCK_BYTES",
    "unit_rows_for_tile",
    "gemm_rows_independent",
    "transpose_blocked",
    "host_operand_budget",
    "release_tile_reserve",
    "BlockMap",
    "FitCache",
    "EngineStats",
    "EngineCancelled",
    "FastPathEngine",
    "unchunked_assign",
]


class EngineCancelled(RuntimeError):
    """Raised from inside an assignment pass when the engine's
    cooperative ``cancel_token`` is set: the chunk loop checks the token
    between chunks, so an abandoned worker stops within a bounded number
    of chunks instead of running its pass to completion."""

#: base row count of one inner GEMM call; the effective unit is the
#: smallest multiple of the tile's TB_M that is >= TB_M and close to this
GEMM_UNIT_ROWS = 256

#: memory budget when neither ``chunk_bytes`` nor a device is given
DEFAULT_CHUNK_BYTES = 8 << 20

#: target size of one TF32 rounding block (~1024 rows at 64 f32
#: features): small enough that a block stays cache-resident from the
#: rounder through its stacked GEMM
ROUND_BLOCK_BYTES = 256 << 10


class _TileReserve:
    """At most one released chunk tile, shared by every engine in the
    process.

    A pass's chunk tile is ``chunk_bytes`` large (19.5 MB at 200k x 64
    rows and 64 clusters).  Allocated from the C heap and handed back
    after every ``predict`` and at every ``end_fit``, it left a hole that
    the long-lived arrays allocated next (fitted labels, predict outputs)
    split differently from one process to the next, so the next tile
    sometimes grew the heap instead of reusing the hole: the peak
    resident set of identical runs differed by up to ~35 MB.  Tiles
    therefore live in their own anonymous mappings, outside the heap, and
    a released one is parked here: the next pass of any engine takes it
    back when it is large enough (and pays no page faults), a larger
    released tile replaces it, and :func:`release_tile_reserve` unmaps
    it.  The process holds at most one parked tile.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._buf: np.ndarray | None = None

    def take(self, rows: int, n: int, dtype: np.dtype) -> np.ndarray:
        """A ``(rows, n)`` tile: a view of the parked one when it is
        large enough, else a fresh mapping (the parked one then stays)."""
        nbytes = rows * n * dtype.itemsize
        with self._lock:
            buf = self._buf
            if buf is not None and buf.nbytes >= nbytes:
                self._buf = None
            else:
                buf = None
        if buf is None:
            # private: a forked child must not write into this process's
            # tile (Python maps anonymous memory shared by default)
            mapping = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE)
            if hasattr(mmap, "MADV_HUGEPAGE"):
                # as numpy does for its own large buffers: the GEMM
                # epilogue and argmin sweep the whole tile.  Only a hint
                try:
                    mapping.madvise(mmap.MADV_HUGEPAGE)
                except OSError:
                    pass
            buf = np.frombuffer(mapping, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(rows, n)

    def give(self, tile: np.ndarray) -> None:
        """Park a released tile unless a larger one is already parked;
        a dropped tile's mapping is unmapped with its last view."""
        buf = tile.base
        with self._lock:
            if self._buf is None or buf.nbytes > self._buf.nbytes:
                self._buf = buf

    def clear(self) -> None:
        with self._lock:
            self._buf = None


_TILE_RESERVE = _TileReserve()
# a forked child starts with an empty reserve and a fresh lock
os.register_at_fork(after_in_child=_TILE_RESERVE.__init__)


def release_tile_reserve() -> None:
    """Unmap the parked chunk tile (see :class:`_TileReserve`).

    k-means++ seeding calls this first: its float64 copy of ``x`` is a
    fit's resident peak, which should not also carry a parked tile.
    """
    _TILE_RESERVE.clear()


#: cgroup (v2, then v1) files holding this process's memory limit
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max",
                  "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _usable_memory() -> int:
    """Bytes of memory this process may use: the host's physical
    memory, capped by a cgroup limit when one is set.  0 when the
    platform reports neither."""
    try:
        usable = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        usable = 0
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as f:
                limit = int(f.read().strip())
        except (OSError, ValueError):       # absent, or "max" (no limit)
            continue
        usable = min(usable, limit) if usable else limit
    return usable


@functools.cache
def host_operand_budget() -> int:
    """Largest ``x.nbytes`` whose fit may hoist a transposed copy.

    A quarter of :func:`_usable_memory`, read once per process: ``x``
    and its equally large copy together then take at most half of what
    this process may use, leaving the other half as headroom for
    scratch and everything else.  0 (never hoist) when the platform
    does not report its memory.
    """
    return _usable_memory() // 4


def transpose_blocked(x: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Contiguous transposed copy of ``x``, built row band by row band.

    A transpose is a pure copy, so blocking cannot move a bit — it only
    keeps the working set cache-sized: each band reads a contiguous
    ~4 MB slab of ``x`` and scatters it into the output's columns,
    instead of one full-matrix strided gather whose reads miss on every
    row once ``x`` outgrows the last-level cache.  Drop-in equal to
    ``np.ascontiguousarray(x.T)``; ``out`` (a ``(n, m)`` array of
    ``x``'s dtype, e.g. a shared-memory buffer) receives the copy
    instead of a fresh allocation.
    """
    m, n = x.shape
    if out is None:
        out = np.empty((n, m), dtype=x.dtype)
    step = max(1, (4 << 20) // max(1, n * x.itemsize))
    for lo in range(0, m, step):
        out[:, lo:lo + step] = x[lo:lo + step].T
    return out


def unit_rows_for_tile(tile: TileConfig | None) -> int:
    """Fixed inner-GEMM row unit for a tile geometry (see module doc).

    The single definition behind :attr:`FastPathEngine.unit_rows`.
    :mod:`repro.dist` aligns shard boundaries to this unit (read off a
    probe kernel's engine, which carries the variant's resolved tile):
    a sharded run then issues the exact GEMM call sequence of the
    single-worker engine, which is what keeps sharded labels/inertia
    bit-identical for any shard count.
    """
    if tile is None:
        return GEMM_UNIT_ROWS
    tb_m = tile.tb.m
    return tb_m * max(1, GEMM_UNIT_ROWS // tb_m)


@functools.cache
def gemm_rows_independent(dtype: str, tf32: bool, unit: int,
                          n_features: int, n_clusters: int) -> bool:
    """Whether a unit GEMM's output row bits depend on that row alone.

    The row-granular pruned lane packs the active rows of many units
    into fresh ``(unit, n_features) @ (n_features, n_clusters)`` GEMMs,
    at other positions and beside other rows, and pads the last one by
    repeating a row.  Its bits match the unpruned pass only if BLAS
    computes each output row from that row and the column operand
    alone at this shape.  That is a property of the BLAS kernel, not of
    the math, so it is probed once per geometry (cached per process):
    two units of seeded operands, laid out exactly as the engine lays
    them out (contiguous rows, the transposed centroid view, TF32
    rounding when on), are recomputed after a permutation across both
    units, a resample with repeats and a padded tail, and every row
    must keep its bits.  False makes the lane widen its active rows
    back to whole units, whose GEMMs are the unpruned pass's own.
    """
    dt = np.dtype(dtype)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((2 * unit, n_features)).astype(dt)
    y = rng.standard_normal((n_clusters, n_features)).astype(dt)
    if tf32:
        xs, y = round_tf32(xs), round_tf32(y)
    u = np.dtype(f"u{dt.itemsize}")

    def unit_gemm(rows: np.ndarray) -> np.ndarray:
        return np.matmul(rows.reshape(2, unit, n_features), y.T
                         ).reshape(2 * unit, n_clusters).view(u)

    ref = unit_gemm(xs)
    last = np.arange(2 * unit)
    last[unit + unit // 2:] = unit + unit // 2 - 1   # a padded tail
    for idx in (rng.permutation(2 * unit),
                rng.integers(0, 2 * unit, 2 * unit), last):
        if not np.array_equal(unit_gemm(xs[idx]), ref[idx]):
            return False
    return True


@dataclass(frozen=True)
class BlockMap:
    """Explicit mapping between injector threadblock ids and accumulator
    coordinates.

    The functional kernels visit threadblocks in row-major (bm, bn)
    order; the fast path must consume the injector's RNG stream in the
    same order and resolve each plan to the same logical tile element,
    independent of how the accumulator is chunked.  This record is the
    single source of truth for that geometry.
    """

    m: int
    n: int
    tb_m: int
    tb_n: int
    warp_m: int
    warp_n: int
    grid_m: int
    grid_n: int
    k_iters: int

    @classmethod
    def for_shape(cls, m: int, n: int, k: int, tile: TileConfig) -> "BlockMap":
        tb, w = tile.tb, tile.warp
        return cls(m=m, n=n, tb_m=tb.m, tb_n=tb.n, warp_m=w.m, warp_n=w.n,
                   grid_m=ceil_div(m, tb.m), grid_n=ceil_div(n, tb.n),
                   k_iters=ceil_div(k, tb.k))

    def block_id(self, bm: int, bn: int) -> int:
        """Row-major threadblock id (the functional launch order)."""
        return bm * self.grid_n + bn

    def block_extent(self, bm: int, bn: int) -> tuple[int, int]:
        """Valid (rows, cols) of block (bm, bn) against the problem edge."""
        return (min(self.tb_m, self.m - bm * self.tb_m),
                min(self.tb_n, self.n - bn * self.tb_n))

    def blocks_for_rows(self, lo: int, hi: int):
        """Block-row indices whose tiles fall inside sample rows [lo, hi).

        ``lo`` must be TB_M-aligned (chunk boundaries are), so every
        block belongs to exactly one chunk.
        """
        return range(lo // self.tb_m, ceil_div(hi, self.tb_m))


@dataclass
class FitCache:
    """Fit-invariants hoisted out of the Lloyd iteration loop."""

    x: np.ndarray                # samples, coerced to the kernel dtype
    source: np.ndarray           # the caller's original array (cache key)
    x_norms: np.ndarray          # (m,) per-sample squared norms, kernel dtype
    labels: np.ndarray           # (m,) int64 output buffer, reused per pass
    best: np.ndarray             # (m,) kernel-dtype output buffer
    n_clusters: int | None = None
    chunks: list[tuple[int, int]] | None = None
    block_map: BlockMap | None = None
    x_t: np.ndarray | None = None        # hoisted transposed update operand
    bounds: BoundsState | None = None    # cross-round pruning state


@dataclass
class EngineStats:
    """Observability counters for the engine itself (not the simulator)."""

    assigns: int = 0
    cache_hits: int = 0
    chunks_run: int = 0
    gemm_calls: int = 0          # inner (BLAS-level) unit GEMMs issued
    batched_chunks: int = 0      # chunks dispatched as stacked matmuls
    update_chunks_fed: int = 0   # chunks fed to a fused update accumulator
    scratch_bytes: int = 0       # scratch currently held (pooled)
    peak_scratch_bytes: int = 0
    rows_pruned: int = 0         # rows skipped by bounds pruning (all passes)
    pruned_passes: int = 0       # assigns in which at least one row pruned
    bounds_rebuilds: int = 0     # bounds healed after a fingerprint mismatch
    last_active_frac: float = 1.0  # computed-row fraction of the last assign


class FastPathEngine:
    """Chunked streaming assignment with fault/ABFT replay semantics.

    Parameters
    ----------
    device:
        :class:`DeviceSpec` (or None).  Used to auto-derive the chunk
        budget from the L2 capacity when ``chunk_bytes`` is not given.
    dtype:
        Kernel element type (float32/float64).
    tile:
        Tile geometry for the fault block map; None disables injection
        replay.
    tf32:
        Apply TF32 operand rounding (FP32 only).
    injector / scheme / safety:
        Fault injection source, ABFT scheme capabilities and detection
        threshold safety factor — identical semantics to the functional
        kernels.
    chunk_bytes:
        Memory budget for chunk scratch.  None auto-derives from the
        device L2 (or :data:`DEFAULT_CHUNK_BYTES` without a device).
    batch_chunks:
        Dispatch a fault-free chunk's unit grid as stacked matmuls
        (default): the whole chunk at once, or under TF32 one rounding
        block at a time.  False forces the per-unit Python walk on the
        unpruned lane — the reference path the fast lane is
        bit-compared against.  The pruned lane always packs its active
        rows into stacked matmuls (bounds only go live across passes,
        and its bits are compared against ``prune='off'``).
    prune:
        Cross-iteration bound pruning of the assignment GEMM
        (:mod:`repro.core.bounds`): 'auto' (default, the O(M) Hamerly
        bound) or 'off'.  Pruning only engages on ``begin_fit`` caches
        (transient predict/score passes have no cross-round history)
        and is proven bit-identical to the unpruned path — a row is
        skipped only when its assigned centroid's bits are frozen and
        an error-margined lower bound certifies every competitor.
    alloc_hook:
        Optional callable ``(name, nbytes)`` invoked for every scratch /
        buffer allocation the engine makes (allocation-tracking tests).

    Attributes
    ----------
    cancel_token:
        Optional object with ``is_set()`` (e.g. ``threading.Event``)
        checked between chunks; when set, the pass raises
        :class:`EngineCancelled` within a bounded number of chunks.
    """

    def __init__(self, device: DeviceSpec | None, dtype, *,
                 tile: TileConfig | None = None, tf32: bool = False,
                 injector=None, scheme: AbftScheme = NONE,
                 safety: float = 4.0, chunk_bytes: int | None = None,
                 batch_chunks: bool = True, prune="auto", alloc_hook=None,
                 tracer=None):
        self.device = device
        self.dtype = np.dtype(dtype)
        self.tile = tile
        self.tf32 = bool(tf32) and self.dtype == np.dtype(np.float32)
        self.injector = injector
        self.scheme = scheme
        self.safety = safety
        if chunk_bytes is None:
            chunk_bytes = (device.fastpath_chunk_bytes()
                           if isinstance(device, DeviceSpec)
                           else DEFAULT_CHUNK_BYTES)
        if int(chunk_bytes) < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.chunk_bytes = int(chunk_bytes)
        # the hoisted update operand is admitted while x fits this
        self.operand_budget = host_operand_budget()
        self.batch_chunks = bool(batch_chunks)
        if prune not in PRUNE_MODES:
            raise ValueError(
                f"unknown prune mode {prune!r}; choose from {PRUNE_MODES}")
        self._pruning = prune != "off"
        self.cancel_token = None
        self._fed_shifts: tuple | None = None
        self.alloc_hook = alloc_hook
        # span recorder for the assign-stage taxonomy (assign_chunk /
        # gemm / update_feed / bounds_refresh); resolved per pass via
        # active_tracer, so None (default) or a disabled recorder costs
        # nothing and is never called into
        self.tracer = tracer
        self.stats = EngineStats()
        self._cache: FitCache | None = None
        # pooled scratch, one buffer per role (chunk accumulator, TF32
        # rounding block)
        self._pool: dict[str, np.ndarray] = {}
        # guards the scratch pool: an abandoned shard worker may still be
        # mid-pass while its coordinator calls end_fit
        self._lock = threading.Lock()

    # -- geometry -------------------------------------------------------
    @property
    def unit_rows(self) -> int:
        """Fixed inner-GEMM row unit (multiple of TB_M; see module doc)."""
        return unit_rows_for_tile(self.tile)

    def _round_block_rows(self, k: int) -> int:
        """Rows of one TF32 rounding block for ``k`` features: the
        largest unit multiple within :data:`ROUND_BLOCK_BYTES` (one unit
        minimum), so every block is a whole number of GEMM units."""
        unit = self.unit_rows
        return unit * max(1, ROUND_BLOCK_BYTES
                          // (unit * k * self.dtype.itemsize))

    def _block_stages(self) -> int:
        """Block-sized row buffers one pass may hold: under TF32 the
        rounded block and the pruned lane's gather stage (the
        ``tf32_block`` role), otherwise the gather stage alone when
        pruning is on (``gather_block``), else none."""
        if self.tf32:
            return 2
        return int(self._pruning)

    def _plan_chunks(self, m: int, n: int, k: int) -> list[tuple[int, int]]:
        """Split [0, m) into unit-aligned chunks under the memory budget.

        The one in-flight chunk costs its accumulator (rows x n) plus the
        block buffer: :meth:`_block_stages` stages of ``min(block,
        rows)`` rows of k each (the TF32 rounded block, the pruned
        lane's gather stage).  Both are charged against
        ``chunk_bytes``, and ``rows`` is the largest unit multiple that
        fits.  One unit is the hard minimum: the budget cannot shrink an
        inner GEMM block.
        """
        unit = self.unit_rows
        itemsize = self.dtype.itemsize
        row_bytes = max(1, n * itemsize)
        rows = self.chunk_bytes // row_bytes // unit * unit
        stages = self._block_stages()
        if stages:
            block = self._round_block_rows(k)
            block_row_bytes = stages * k * itemsize
            rows = (max(0, self.chunk_bytes - block * block_row_bytes)
                    // row_bytes // unit * unit)
            if rows < block:
                # a chunk below one block: the buffer shrinks with it
                rows = (self.chunk_bytes // (row_bytes + block_row_bytes)
                        // unit * unit)
        rows = max(unit, rows)
        return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]

    # -- per-fit cache --------------------------------------------------
    def begin_fit(self, x: np.ndarray, n_clusters: int | None = None, *,
                  x_t: np.ndarray | None = None) -> FitCache:
        """Hoist fit-invariants for ``x``; reused by every assign() on it.

        ``x_t`` lends the fit a transposed update operand the caller
        already holds — in :mod:`repro.dist`, a worker's column view of
        the coordinator's whole-data transpose.  It is borrowed as-is:
        nothing is copied or charged, and the accumulator reads
        ``x_t[:, off:off+rows]`` exactly as from a hoisted copy, so the
        bits cannot move.  A shape/dtype mismatch is ignored.
        """
        self._cache = self._build_cache(x, n_clusters)
        m, k = self._cache.x.shape
        if (x_t is not None and x_t.shape == (k, m)
                and x_t.dtype == self.dtype):
            self._cache.x_t = x_t
        return self._cache

    def end_fit(self) -> None:
        """Drop the fit cache and pooled scratch.

        Called when the Lloyd loop finishes so a fitted estimator does
        not pin the training array (or budget-sized scratch) for its
        whole lifetime — and so later ``predict`` / ``score`` passes
        recompute norms instead of trusting an identity-keyed cache the
        caller may have mutated underneath.
        """
        self._cache = None
        with self._lock:
            # a buffer still held by a pass in flight stays counted
            # until that pass drops it (_put_scratch)
            self.stats.scratch_bytes -= sum(
                b.nbytes for b in self._pool.values())
            tile = self._pool.pop("chunk_scratch", None)
            self._pool.clear()
        if tile is not None:
            _TILE_RESERVE.give(tile)

    def _build_cache(self, x: np.ndarray,
                     n_clusters: int | None = None) -> FitCache:
        source = x
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        m, k = x.shape
        x_norms = np.sum(x * x, axis=1, dtype=self.dtype)
        labels = np.empty(m, dtype=np.int64)
        best = np.empty(m, dtype=self.dtype)
        self._record_alloc("x_norms", x_norms.nbytes)
        self._record_alloc("labels", labels.nbytes)
        self._record_alloc("best", best.nbytes)
        cache = FitCache(x=x, source=source, x_norms=x_norms, labels=labels,
                         best=best)
        if n_clusters is not None:
            self._resolve_geometry(cache, n_clusters, k)
        return cache

    def _resolve_geometry(self, cache: FitCache, n: int, k: int) -> None:
        cache.n_clusters = n
        cache.chunks = self._plan_chunks(cache.x.shape[0], n, k)
        cache.block_map = (BlockMap.for_shape(cache.x.shape[0], n, k, self.tile)
                           if self.tile is not None else None)

    # -- fit-lifetime operand cache -------------------------------------
    def export_operands(self) -> dict:
        """The x-derived operands the active fit cache holds, by name.

        The probe surface for held operand memory: the per-sample norms
        always, the transposed update operand when hoisted or borrowed.
        The arrays are the live cache objects, not copies; callers must
        not mutate them.
        """
        cache = self._cache
        if cache is None:
            return {}
        out = {"x_norms": cache.x_norms}
        if cache.x_t is not None:
            out["x_t"] = cache.x_t
        return out

    def _ensure_update_operand(self, cache: FitCache) -> np.ndarray | None:
        """Hoist the transposed update-feed operand (fit caches only).

        A contiguous ``(K_features, M)`` copy of the samples: the fused
        accumulator then reads contiguous feature rows instead of
        re-transposing every chunk every iteration.  The float64
        conversion happens at the same element granularity either way,
        so the accumulated bits never move.
        """
        if cache.x_t is None and cache.x.nbytes <= self.operand_budget:
            with active_tracer(self.tracer).span(
                    "operand_hoist", nbytes=int(cache.x.nbytes)):
                cache.x_t = transpose_blocked(cache.x)
            self._record_alloc("operand_cache_transpose", cache.x.nbytes)
        return cache.x_t

    # -- scratch pool ---------------------------------------------------
    def _record_alloc(self, name: str, nbytes: int) -> None:
        if self.alloc_hook is not None:
            self.alloc_hook(name, nbytes)

    def _take_scratch(self, rows: int, n: int,
                      role: str = "chunk_scratch") -> np.ndarray:
        """A ``(>= rows, n)`` scratch buffer for ``role``: the pooled one
        when it fits, else a fresh allocation charged to the stats and
        reported to ``alloc_hook`` under the role's name."""
        with self._lock:
            buf = self._pool.pop(role, None)
            if buf is not None:
                if (buf.shape[0] >= rows and buf.shape[1] == n
                        and buf.dtype == self.dtype):
                    return buf
                self.stats.scratch_bytes -= buf.nbytes  # misfit: drop
            self.stats.scratch_bytes += rows * n * self.dtype.itemsize
            self.stats.peak_scratch_bytes = max(self.stats.peak_scratch_bytes,
                                                self.stats.scratch_bytes)
        if role == "chunk_scratch":
            buf = _TILE_RESERVE.take(rows, n, self.dtype)
        else:
            buf = np.empty((rows, n), dtype=self.dtype)
        self._record_alloc(role, buf.nbytes)
        return buf

    def _put_scratch(self, buf: np.ndarray,
                     role: str = "chunk_scratch") -> None:
        with self._lock:
            if self._cache is not None and role not in self._pool:
                self._pool[role] = buf
            else:
                # transient pass (predict/score): nothing budget-sized
                # outlives the call in this engine; the tile is parked
                # for the process's next pass
                self.stats.scratch_bytes -= buf.nbytes
                if role == "chunk_scratch":
                    _TILE_RESERVE.give(buf)

    # -- fault replay ---------------------------------------------------
    def _draw_plans(self, bmap: BlockMap) -> dict:
        """Consume the injector RNG once per block, in block-id order."""
        plans = {}
        for bm in range(bmap.grid_m):
            for bn in range(bmap.grid_n):
                plan = self.injector.plan_for_block(bmap.block_id(bm, bn),
                                                    bmap.k_iters)
                if plan is not None:
                    plans[(bm, bn)] = plan
        return plans

    def _replay_fault(self, acc: np.ndarray, row0: int, bm: int, bn: int,
                      plan, bmap: BlockMap, policy: ThresholdPolicy,
                      counters: PerfCounters) -> None:
        """Apply one planned SEU to the chunk accumulator ``acc`` (whose
        row 0 is global sample row ``row0``), then let the configured
        scheme measure it against the same threshold policy the
        functional kernels use.  Sub-threshold flips survive."""
        counters.errors_injected += 1
        r, c = plan.locate(bmap.tb_m, bmap.tb_n)
        rows, cols = bmap.block_extent(bm, bn)
        if r >= rows or c >= cols:
            # the flip landed in tile padding: numerically inert
            return
        li = bm * bmap.tb_m + r - row0
        j = bn * bmap.tb_n + c
        old = acc[li, j]
        new = flip_bit(old, plan.bit)
        eps = float(new) - float(old)
        if not self.scheme.detects:
            acc[li, j] = new
            return
        counters.checksum_tests += 1
        # warp-tile checksum scale, matching measure_residuals()
        wm0 = (r // bmap.warp_m) * bmap.warp_m
        wn0 = (c // bmap.warp_n) * bmap.warp_n
        b0 = bm * bmap.tb_m - row0
        wtile = acc[b0 + wm0: b0 + min(wm0 + bmap.warp_m, rows),
                    bn * bmap.tb_n + wn0:
                    bn * bmap.tb_n + min(wn0 + bmap.warp_n, cols)]
        mx = float(np.max(np.abs(wtile.astype(np.float64)))) if wtile.size else 1.0
        scale = max(1.0, min(mx, 1e290) * float(np.sqrt(max(1, wtile.size))))
        residual = eps if np.isfinite(eps) else np.inf
        if policy.exceeds(residual, scale):
            counters.errors_detected += 1
            if self.scheme.corrects:
                counters.errors_corrected += 1  # acc left clean
            # detection-only schemes recompute: also clean
        else:
            acc[li, j] = new  # sub-threshold: escapes, as designed

    # -- the hot loop ---------------------------------------------------
    def assign(self, x: np.ndarray, y: np.ndarray,
               counters: PerfCounters, *,
               cache: FitCache | None = None,
               accumulator=None) -> tuple[np.ndarray, np.ndarray]:
        """One full assignment pass: (labels, min squared distances).

        Reuses the per-fit cache when ``x`` is the fitted array;
        otherwise (e.g. ``predict`` on new data) builds a transient one.
        The returned arrays are the cache's reusable buffers — callers
        that keep results across passes must copy.

        Parameters
        ----------
        x, y : ndarray
            Samples (M, N) and centroids (K, N).
        counters : PerfCounters
            Functional-execution statistics (injection/detection tallies
            merge here).
        cache : FitCache, optional
            Explicit fit cache override (tests); defaults to the active
            ``begin_fit`` cache.
        accumulator : StreamedAccumulator, optional
            When given, each chunk's sample rows and fresh labels are fed
            to it inside the chunk loop (fused assign+accumulate).  Fed
            strictly in chunk order, so the accumulated sums are
            bit-identical to a one-shot sequential pass.
        """
        if accumulator is not None:
            # fused pool reports through the engine's allocation tracker
            # (replays anything allocated before the attachment)
            accumulator.set_alloc_hook(self.alloc_hook)
        cache = cache if cache is not None else self._cache
        if cache is not None and (x is cache.x or x is cache.source):
            self.stats.cache_hits += 1
        else:
            cache = self._build_cache(x)
        if accumulator is not None:
            # the hoisted transpose only describes the *fit* array; any
            # other pass must feed (and unbind) the legacy staging path
            x_t = (self._ensure_update_operand(cache)
                   if cache is self._cache else None)
            accumulator.bind_source_t(x_t)
        x = cache.x
        y_in = y
        if y.dtype != self.dtype:
            y = y.astype(self.dtype)
        m, k = x.shape
        n = y.shape[0]
        if cache.chunks is None or cache.n_clusters != n:
            self._resolve_geometry(cache, n, k)
        self.stats.assigns += 1
        # resolved once per pass: the real recorder when tracing is on,
        # the shared no-op otherwise (a disabled recorder is never
        # called into — the neutrality tests booby-trap one to prove it)
        tr = active_tracer(self.tracer)

        # per-launch (centroids change every iteration; samples do not)
        yr_t = (round_tf32(y) if self.tf32 else y).T
        yy = np.sum(y * y, axis=1, dtype=self.dtype)

        plans: dict = {}
        policy = None
        if (self.injector is not None and getattr(self.injector, "enabled", False)
                and cache.block_map is not None):
            policy = ThresholdPolicy(self.dtype, tf32=self.tf32,
                                     safety=self.safety)
            plans = self._draw_plans(cache.block_map)

        chunks = cache.chunks
        if not chunks:  # m == 0: nothing to assign
            return cache.labels, cache.best
        self.stats.chunks_run += len(chunks)

        # cross-round bound pruning: fit caches only (a transient
        # predict/score pass has no history to trust), resolved to an
        # active-row mask for this round.  The state stays lazy — no
        # refresh, error vector or fingerprint — until a round finds a
        # bit-frozen centroid; only live rounds hand ``bounds`` to the
        # chunk loop.  Which rows land in the active set can never move
        # an output bit — pruning retains values the bounds proved
        # bit-identical to a recompute — so lazy rounds, fed vs
        # self-computed shifts, shard-local bounds and heals all compose
        # freely with the engine's bit-identity contracts.
        state = bounds = active = None
        fed = self._fed_shifts
        self._fed_shifts = None
        if self._pruning and cache is self._cache:
            state = cache.bounds
            if state is None:
                state = cache.bounds = BoundsState(
                    x, n, tf32=self.tf32, alloc_hook=self.alloc_hook)
            if state.wake(y):
                # the fed shift vector is one-shot and identity-keyed to
                # the centroid array it described; anything stale
                # self-recomputes
                shifts = (fed[0] if fed is not None and fed[1] is y_in
                          else None)
                heals = state.rebuilds
                with tr.span("bounds_refresh", phase="begin_round"):
                    active = state.begin_round(y, cache.labels, cache.best,
                                               shifts=shifts)
                self.stats.bounds_rebuilds += state.rebuilds - heals
                bounds = state

        computed = 0
        rows0 = min(chunks[0][1] - chunks[0][0], m)
        scratch = self._take_scratch(rows0, n)
        # one small pooled block buffer (see _block_stages): the TF32
        # stacked lane's rounded block, and the pruned lane's gather
        # stage.  The block is a unit multiple unless it spans the one
        # chunk whole
        block = min(self._round_block_rows(k), rows0)
        blk = blk_role = None
        if self.tf32 and (self.batch_chunks or active is not None):
            blk_role = "tf32_block"
        elif active is not None:
            blk_role = "gather_block"
        if blk_role is not None:
            blk = self._take_scratch(self._block_stages() * block, k,
                                     blk_role)
        try:
            for lo, hi in chunks:
                self._check_cancelled()
                with tr.span("assign_chunk", lo=int(lo), hi=int(hi)):
                    calls, batched, rows_run = self._run_chunk(
                        lo, hi, x, yr_t, yy, cache, plans, policy,
                        counters, scratch, blk, block, active, bounds, tr=tr)
                computed += rows_run
                self.stats.gemm_calls += calls
                self.stats.batched_chunks += batched
                if accumulator is not None:
                    # fused update accumulation: the chunk's rows are
                    # still cache-hot from the GEMM/argmin above
                    with tr.span("update_feed", lo=int(lo), hi=int(hi)):
                        accumulator.feed(x[lo:hi], cache.labels[lo:hi])
                    self.stats.update_chunks_fed += 1
        finally:
            self._put_scratch(scratch)
            if blk is not None:
                self._put_scratch(blk, blk_role)
        if state is not None:
            with tr.span("bounds_refresh", phase="end_round"):
                state.end_round(y, cache.labels, cache.best)
        self.stats.last_active_frac = computed / m
        if computed < m:
            self.stats.rows_pruned += m - computed
            self.stats.pruned_passes += 1
        return cache.labels, cache.best

    def _chunk_plans(self, lo: int, hi: int, cache: FitCache,
                     plans: dict) -> list:
        """The drawn fault plans whose blocks fall inside rows [lo, hi)."""
        if not plans:
            return []
        bmap = cache.block_map
        hits = []
        for bm in bmap.blocks_for_rows(lo, hi):
            for bn in range(bmap.grid_n):
                plan = plans.get((bm, bn))
                if plan is not None:
                    hits.append((bm, bn, plan))
        return hits

    def _stacked_gemm(self, xs: np.ndarray, yr_t, out: np.ndarray) -> int:
        """Per-unit GEMMs of the rows ``xs`` (unit-aligned, contiguous)
        into ``out``: whole units as one stacked matmul over a
        ``(q, unit, K)`` view, a short tail as one more call.  Returns
        the inner GEMM count."""
        unit = self.unit_rows
        q, rem = divmod(xs.shape[0], unit)
        if q:
            np.matmul(xs[:q * unit].reshape(q, unit, -1), yr_t,
                      out=out[:q * unit].reshape(q, unit, -1))
        if rem:
            np.matmul(xs[q * unit:], yr_t, out=out[q * unit:])
        return q + (1 if rem else 0)

    def _rounded_gemm(self, x: np.ndarray, lo: int, hi: int, yr_t,
                      out: np.ndarray, blk: np.ndarray, block: int) -> int:
        """The TF32 stacked lane: rows [lo, hi) rounded ``block`` rows at
        a time into the pooled ``blk``, each block's units dispatched as
        one stacked matmul.  Rounding is elementwise and ``block`` is a
        unit multiple, so the per-unit GEMMs — and the bits — are the
        walk's."""
        calls = 0
        for b0 in range(lo, hi, block):
            b1 = min(b0 + block, hi)
            rounded = round_tf32(x[b0:b1], out=blk[:b1 - b0])
            calls += self._stacked_gemm(rounded, yr_t, out[b0 - lo:b1 - lo])
        return calls

    def _run_chunk(self, lo: int, hi: int, x, yr_t, yy, cache: FitCache,
                   plans: dict, policy, counters: PerfCounters,
                   scratch: np.ndarray, blk=None, block: int = 0,
                   active=None, bounds=None,
                   tr=NULL_TRACER) -> tuple[int, bool, int]:
        """One chunk's GEMM + fault replay + epilogue.

        Returns ``(inner_gemm_calls, batched, rows_computed)`` for the
        stats.  The fault-free fast lane dispatches the unit grid as
        stacked matmuls (same per-unit BLAS GEMM sequence, so the bits
        match the walk exactly): the whole chunk at once, or under TF32
        one rounding block at a time (:meth:`_rounded_gemm`).  Chunks a
        fault plan targets walk the units in Python, rounding each unit
        right before its GEMM.  With an ``active`` mask, fault-free
        chunks route through the pruned lane unless every row is active
        anyway; fault-planned chunks always compute in full (the replay
        coordinates assume chunk-row geometry) and their rows stop being
        trusted as pruning history.
        """
        rows = hi - lo
        chunk_plans = self._chunk_plans(lo, hi, cache, plans)
        if active is not None and not chunk_plans:
            res = self._run_chunk_pruned(lo, hi, x, yr_t, yy, cache,
                                         scratch, blk, block, active,
                                         bounds, tr=tr)
            if res is not None:
                return res
            # None: every row is active — fall through to the
            # full-chunk lane below (same bits, none of the
            # gather/scatter overhead)
        acc = scratch[:rows]
        # inner GEMMs on the fixed unit grid (globally aligned: lo is a
        # unit multiple), so the call sequence is chunking-invariant
        unit = self.unit_rows
        batched = (self.batch_chunks and not chunk_plans
                   and (self.tf32 or x.flags.c_contiguous))
        with tr.span("gemm", lo=int(lo), hi=int(hi), batched=batched):
            if batched and self.tf32:
                calls = self._rounded_gemm(x, lo, hi, yr_t, acc, blk, block)
            elif batched:
                calls = self._stacked_gemm(x[lo:hi], yr_t, acc)
            else:
                calls = 0
                for u0 in range(lo, hi, unit):
                    u1 = min(u0 + unit, hi)
                    xa = x[u0:u1]
                    if self.tf32:
                        xa = round_tf32(xa)
                    np.matmul(xa, yr_t, out=acc[u0 - lo:u1 - lo])
                    calls += 1
        bmap = cache.block_map
        for bm, bn, plan in chunk_plans:
            self._replay_fault(acc, lo, bm, bn, plan, bmap, policy,
                               counters)
        if chunk_plans:
            # an escaped exponent flip can leave inf/nan in the tile; the
            # argmin and the floor absorb it, so the epilogue stays quiet
            # (fault-free chunks pay no errstate switch)
            with np.errstate(over="ignore", invalid="ignore"):
                lbl = self._epilogue(acc, lo, hi, yy, cache)
        else:
            lbl = self._epilogue(acc, lo, hi, yy, cache)
        if bounds is not None:
            if chunk_plans:
                # an escaped sub-threshold flip may sit in this chunk's
                # cached values: exact *this* round by the replay
                # semantics, but not safe as pruning history
                bounds.invalidate_rows(slice(lo, hi))
            else:
                with tr.span("bounds_refresh", lo=int(lo), hi=int(hi)):
                    bounds.refresh(slice(lo, hi), acc, labels=lbl)
        return calls, batched, rows

    @staticmethod
    def _epilogue(acc: np.ndarray, lo: int, hi: int, yy: np.ndarray,
                  cache: FitCache) -> np.ndarray:
        """Turn the chunk's GEMM tile into distances in place, and store
        its labels and floored best distances; returns the labels."""
        # fuse the norm terms in place: acc becomes the distance tile
        acc *= -2.0
        acc += cache.x_norms[lo:hi, None]
        acc += yy[None, :]
        lbl = np.argmin(acc, axis=1)
        cache.labels[lo:hi] = lbl
        # take_along_axis instead of acc[arange(rows), lbl]: same
        # selection bits, without materialising a row-index array in
        # the hot loop
        best = np.take_along_axis(acc, lbl[:, None], axis=1)[:, 0]
        # the norm identity can cancel below zero on offset-heavy data;
        # squared distances are floored so inertia/score/worst-fit
        # ordering stay meaningful (labels keep the raw argmin)
        np.maximum(best, 0, out=best)
        cache.best[lo:hi] = best
        return lbl

    def _run_chunk_pruned(self, lo: int, hi: int, x, yr_t, yy,
                          cache: FitCache, scratch: np.ndarray, blk,
                          block: int, active, bounds, tr=NULL_TRACER
                          ) -> tuple[int, bool, int] | None:
        """Fault-free chunk under a bounds mask: compute only the active
        rows.  Pruned rows keep their cached labels/best, which the
        bounds proved bit-identical to a recompute.

        The active rows of the chunk's full units are gathered ``block``
        rows at a time into the pooled stage (TF32: rounded into the
        block's first half) and packed into fresh fixed-shape unit
        GEMMs, the last one padded to ``unit_rows`` by repeating its
        last active row; the epilogue, argmin and bounds refresh then
        run on the real rows only and scatter back by global index.  A
        packed row's bits equal its unpruned bits because, at the unit
        shape, BLAS computes each output row from that row alone — a
        kernel property :func:`gemm_rows_independent` probes once per
        geometry.  Should the probe fail, the active mask widens back
        to whole units, whose packed GEMMs are the unpruned pass's own.
        The global tail (a partial unit ending ``x``) runs as one whole
        GEMM when any of its rows is active, as in the unpruned pass.

        Returns None when every row is active: the caller's full-chunk
        lane computes the identical bits without the gather/scatter
        detour (the common case early in a fit, before any centroid has
        frozen)."""
        unit = self.unit_rows
        q, rem = divmod(hi - lo, unit)
        full = lo + q * unit
        act = active[lo:full]
        k, n = yr_t.shape
        if not gemm_rows_independent(self.dtype.str, self.tf32, unit, k, n):
            act = np.repeat(act.reshape(q, unit).any(axis=1), unit)
        gidx = np.flatnonzero(act)
        na = int(gidx.size)
        tail_active = bool(rem) and bool(active[full:hi].any())
        if na == q * unit and (tail_active or not rem):
            return None
        calls = 0
        if na:
            gidx += lo
            padded = ceil_div(na, unit) * unit
            flat = scratch[:padded]
            stage = blk[block:2 * block] if self.tf32 else blk
            with tr.span("gemm", lo=int(lo), hi=int(hi),
                         batched=True, pruned=True):
                for g0 in range(0, padded, block):
                    g = gidx[g0:g0 + block]
                    r, real = min(block, padded - g0), g.size
                    # mode="clip" writes straight into ``out`` (the
                    # default "raise" buffers it); every index is in
                    # range anyway
                    np.take(x, g, axis=0, out=stage[:real], mode="clip")
                    stage[real:r] = stage[real - 1]
                    xs = (round_tf32(stage[:r], out=blk[:r]) if self.tf32
                          else stage[:r])
                    calls += self._stacked_gemm(xs, yr_t, flat[g0:g0 + r])
            self._epilogue_rows(flat[:na], gidx, cache, yy, bounds)
        if tail_active:
            # the packed tile is consumed: its scratch takes the tail
            tail = scratch[:rem]
            with tr.span("gemm", lo=int(full), hi=int(hi),
                         batched=False, pruned=True):
                xa = x[full:hi]
                if self.tf32:
                    xa = round_tf32(xa, out=blk[:rem])
                np.matmul(xa, yr_t, out=tail)
            calls += 1
            self._epilogue_rows(tail, np.arange(full, hi), cache, yy,
                                bounds)
        return calls, na > 0, na + (rem if tail_active else 0)

    def _epilogue_rows(self, tile: np.ndarray, gidx: np.ndarray,
                       cache: FitCache, yy: np.ndarray, bounds) -> None:
        """Distance epilogue + argmin on a compacted row tile, scattered
        back to the cache buffers by global row index.  Every step is
        elementwise or per-row — identical bits to the full-chunk
        epilogue applied to the same rows."""
        tile *= -2.0
        tile += cache.x_norms[gidx, None]
        tile += yy[None, :]
        lbl = np.argmin(tile, axis=1)
        best = np.take_along_axis(tile, lbl[:, None], axis=1)[:, 0]
        np.maximum(best, 0, out=best)
        cache.labels[gidx] = lbl
        cache.best[gidx] = best
        if bounds is not None:
            bounds.refresh(gidx, tile, labels=lbl)

    def _check_cancelled(self) -> None:
        tok = self.cancel_token
        if tok is not None and tok.is_set():
            raise EngineCancelled("assignment pass cancelled")

    def feed_centroid_shifts(self, shifts, y) -> None:
        """Adopt the update stage's per-centroid movement for the *next*
        assignment pass on the fit cache.

        One-shot and identity-keyed: the feed applies only when the next
        pass's centroid argument is exactly ``y`` (the array ``shifts``
        describes the transition to); anything stale is dropped and the
        bounds self-compute the identical float64 vector from their
        stored anchor.  Either route yields the same pruning decisions —
        and pruning decisions can never move an output bit anyway."""
        self._fed_shifts = (np.asarray(shifts, dtype=np.float64), y)


def unchunked_assign(x: np.ndarray, y: np.ndarray, *, dtype,
                     tf32: bool) -> tuple[np.ndarray, np.ndarray]:
    """The seed one-shot fast path (O(M*N) accumulator), kept as the
    clean baseline the wall-clock benchmark and regression tests
    measure the streaming engine against.

    Fault replay lives only in :meth:`FastPathEngine._replay_fault`,
    and the epilogue math lives only in
    :func:`repro.gemm.reference.reference_assignment`, so neither can
    drift between copies.
    """
    from repro.gemm.reference import reference_assignment

    dt = np.dtype(dtype)
    if x.dtype != dt:
        x = x.astype(dt)
    if y.dtype != dt:
        y = y.astype(dt)
    return reference_assignment(x, y, tf32=tf32)
