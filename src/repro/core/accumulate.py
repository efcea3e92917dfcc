"""Streamed centroid-sum accumulation (the update stage's hot loop).

The seed update stage accumulates per-cluster sums with ``np.add.at`` —
one full-M scatter pass that became the wall-clock bottleneck once the
assignment stage went chunked (see ``BENCH_fastpath.json`` at M=200k).
:class:`StreamedAccumulator` replaces it with per-chunk, per-feature
``np.bincount`` segment sums that the streaming engine can feed *inside*
its chunk loop, right after each chunk's labels are computed, while the
chunk's sample rows are still hot in cache.

Bit-exactness — the property everything else leans on:

* ``np.bincount(labels, weights=w)`` and ``np.add.at(sums, labels, w)``
  both walk the input *sequentially in sample order*, so each bin's sum
  has the identical floating-point association.
* Chunking normally breaks that (per-chunk partials merge pairwise, not
  sequentially).  The accumulator avoids partials entirely with a
  *continuation* trick: each bincount call is prepended with one
  pseudo-sample per cluster carrying the running sum, so bin ``c``
  computes ``(((running_c + s_i) + s_j) + ...)`` — exactly the sequence
  the one-shot ``np.add.at`` would have produced, **no matter where the
  chunk boundaries fall**.

The result: streamed accumulation is bit-identical to the seed one-shot
path for any ``chunk_bytes`` / feed granularity, and ~2x faster at the
acceptance shape (M=200k, N=64, K=64) because bincount's tight C loop
beats the buffered ``ufunc.at`` machinery.

Accumulation runs in float64 scratch (matching the seed's
``x.astype(np.float64)``) with the transposed ``(features, clusters)``
layout so each per-feature column is contiguous for bincount.  All
scratch is pooled and bounded: the running sums are ``N x K`` float64
and the transpose/weights staging never exceeds ~:data:`STAGING_BYTES`
(oversized feeds are split internally — the continuation trick makes
the split invisible in the bits).  This staging is the update stage's
own budget, deliberately separate from the engine's ``chunk_bytes``
(which bounds assignment scratch); every allocation is reported through
``alloc_hook``.

Thread-safety: feeds must arrive in global sample order — the engine's
chunk loop feeds chunks in order; the accumulator itself is
single-writer by contract.

Sample weights: :meth:`StreamedAccumulator.bind_weights` attaches a
per-sample weight vector once; ``feed`` then consumes the slice matching
its in-order sample window (the running ``samples_seen`` offset).  The
weighted products ``w_i * x_ij`` are formed in float64 — value-identical
to the one-shot ``np.add.at(sums, labels, x64 * w[:, None])`` — and the
weighted *counts* ride the same continuation trick as the sums, so
weighted accumulation stays bit-identical to the sequential one-shot
pass for any feed granularity, shard boundary or worker count.

Hoisted transpose operand: the per-feed ``x_chunk.T`` staging copy is a
strided gather that dominates the accumulation wall at large M.
:meth:`StreamedAccumulator.bind_source_t` attaches a fit-lifetime
``(n_features, total_rows)`` transposed copy of the exact stream this
accumulator will be fed (the engine's operand cache, or the
coordinator's merge operand); ``feed`` then reads contiguous feature
rows at its running sample offset instead of transposing the chunk.
The float64 conversion — and, with weights, the float64 product —
happens per element exactly as before, so the accumulated bits are
identical with or without the binding.

In-pass checksums: alongside the sums, every feed accumulates the
Sec. IV encodings of the same staged float64 rows — per feature
``Σ_i w_i·x_ij`` (e1) and ``Σ_i (l_i+1)·w_i·x_ij`` (e2), plus the same
pair over the counts — as ``rows @ encᵀ`` with ``enc = [1, l+1]``, one
small GEMM per block of :data:`FEATURE_BLOCK` staged feature rows.  They
are computed off the input rows, not off the bincount results, so
:mod:`repro.abft.sumcheck` can verify the sums against them without a
second pass over the samples.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamedAccumulator", "accumulate_checked", "accumulate_oneshot",
           "accumulate_streamed"]

#: budget for the pooled float64 transpose staging; oversized feeds are
#: split so the staging never exceeds this (any split gives identical
#: bits thanks to the continuation trick).  Independent of the engine's
#: ``chunk_bytes``: the update stage owns its own bounded scratch.
STAGING_BYTES = 8 << 20

#: sub-feed row floor — below this the per-call bincount overhead
#: dominates, so very wide feature counts trade staging size for speed
MIN_FEED_ROWS = 1024

#: default sub-feed rows at 64 features (kept for tests/overrides)
FEED_ROWS = STAGING_BYTES // (8 * 64)

#: feature rows staged together: their checksums are one small GEMM
#: against the ``(2, rows)`` encoding instead of one pass per feature
#: (the encoding is read once per block), while the block stays
#: cache-sized (4 x 16k float64 rows ~ 0.5 MB)
FEATURE_BLOCK = 4


class StreamedAccumulator:
    """Per-cluster sum/count accumulation fed chunk-by-chunk.

    Parameters
    ----------
    n_clusters : int
        Number of bins (K).
    n_features : int
        Feature dimension of the samples (N in the paper's notation).
    alloc_hook : callable, optional
        ``(name, nbytes)`` callback fired for every scratch allocation
        (allocation-tracking tests; mirrors the engine's hook).

    Notes
    -----
    ``feed`` must be called in global sample order; the running sums then
    carry exactly the same bits as one sequential ``np.add.at`` pass over
    the concatenation of every fed chunk.  ``packed()`` returns the
    ``(K, N+1)`` layout (sums ‖ counts) that
    :meth:`repro.core.update.UpdateStage.update` takes, and
    ``checksums()`` the ``(N+1, 2)`` e1/e2 encodings of the same stream
    that verify them (:mod:`repro.abft.sumcheck`).
    """

    def __init__(self, n_clusters: int, n_features: int, *, alloc_hook=None):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        self.n_clusters = int(n_clusters)
        self.n_features = int(n_features)
        self.alloc_hook = alloc_hook
        # transposed (features, clusters) layout: each feature's running
        # sums are one contiguous bincount output row
        self._sums_t = np.zeros((self.n_features, self.n_clusters),
                                dtype=np.float64)
        self._counts = np.zeros(self.n_clusters, dtype=np.float64)
        # (N+1, 2): per feature (then the counts) Σ w·x and Σ (l+1)·w·x
        self._checks = np.zeros((self.n_features + 1, 2), dtype=np.float64)
        self._cluster_ids = np.arange(self.n_clusters, dtype=np.int64)
        self._blk: np.ndarray | None = None       # feature-block staging
        self._ext_l: np.ndarray | None = None     # labels staging
        self._enc: np.ndarray | None = None       # [1, l+1] encoding staging
        self._xt: np.ndarray | None = None        # float64 transpose staging
        self._weights: np.ndarray | None = None   # bound per-sample weights
        self._src_t: np.ndarray | None = None     # bound transposed stream
        #: rows per internal sub-feed: staging stays under STAGING_BYTES
        self.feed_rows = max(MIN_FEED_ROWS,
                             STAGING_BYTES // (8 * self.n_features))
        self.samples_seen = 0
        self._record_alloc("accumulator_sums", self._sums_t.nbytes
                           + self._counts.nbytes + self._checks.nbytes)

    def _record_alloc(self, name: str, nbytes: int) -> None:
        if self.alloc_hook is not None:
            self.alloc_hook(name, nbytes)

    def set_alloc_hook(self, hook) -> None:
        """Attach an allocation tracker, replaying allocations that
        predate the attachment (the engine wires its hook at the first
        fused ``assign``, after ``__init__`` already allocated the
        sums) so accounting never undercounts resident scratch."""
        if hook is None or self.alloc_hook is not None:
            return
        self.alloc_hook = hook
        self._record_alloc("accumulator_sums",
                           self._sums_t.nbytes + self._counts.nbytes
                           + self._checks.nbytes)
        if self._blk is not None:
            self._record_alloc("accumulator_staging",
                               self._blk.nbytes + self._ext_l.nbytes
                               + self._enc.nbytes)
        if self._xt is not None:
            self._record_alloc("accumulator_staging", self._xt.nbytes)

    # ------------------------------------------------------------------
    def bind_weights(self, sample_weight: np.ndarray | None) -> None:
        """Attach (or detach, with None) a per-sample weight vector.

        ``feed`` consumes ``sample_weight[samples_seen : samples_seen +
        rows]`` for each in-order chunk, so the binding covers the whole
        stream this accumulator will see before its next ``reset``.  The
        vector is converted to float64 once (value-exactly).
        """
        if sample_weight is None:
            self._weights = None
            return
        w = np.ascontiguousarray(sample_weight, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(
                f"sample_weight must be 1-D, got shape {w.shape}")
        self._weights = w

    def bind_source_t(self, source_t: np.ndarray | None) -> None:
        """Attach (or detach, with None) a transposed copy of the stream.

        ``source_t`` must be ``(n_features, total_rows)`` and hold, per
        feature, exactly the values of the chunks this accumulator will
        be fed in order — ``feed`` reads
        ``source_t[:, samples_seen : samples_seen + rows]`` for each
        in-order chunk instead of transposing the chunk itself (the
        caller still passes ``x_chunk`` for its row count and dtype
        contract).  Like a bound weight vector, the binding survives
        ``reset`` and covers the whole stream up to the next rebind.
        """
        if source_t is None:
            self._src_t = None
            return
        if source_t.ndim != 2 or source_t.shape[0] != self.n_features:
            raise ValueError(
                f"source_t must be (n_features={self.n_features}, rows), "
                f"got shape {source_t.shape}")
        self._src_t = source_t

    def reset(self) -> None:
        """Zero the running sums/counts/checksums (start of a Lloyd
        iteration).

        Bound weights survive a reset: the same fit re-feeds the same
        stream every iteration, restarting at offset 0.
        """
        self._sums_t[:] = 0.0
        self._counts[:] = 0.0
        self._checks[:] = 0.0
        self.samples_seen = 0

    def _staging(self, rows: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pooled staging for a ``rows``-row sub-feed: the float64
        feature-block rows (``n + rows`` slots each), the labels of the
        same slots, and the C-contiguous ``(2, rows)`` checksum
        encoding."""
        need = self.n_clusters + rows
        if self._blk is None or self._blk.shape[1] < need:
            self._blk = np.empty((min(FEATURE_BLOCK, self.n_features), need),
                                 dtype=np.float64)
            self._ext_l = np.empty(need, dtype=np.int64)
            self._ext_l[:self.n_clusters] = self._cluster_ids
            # flat, so any (2, rows) prefix view is C-contiguous
            self._enc = np.empty(2 * rows, dtype=np.float64)
            self._record_alloc("accumulator_staging",
                               self._blk.nbytes + self._ext_l.nbytes
                               + self._enc.nbytes)
        if (self._src_t is None
                and (self._xt is None or self._xt.shape[1] < rows)):
            # the float64 transpose staging only exists on the unbound
            # path: a bound source is read per feature row directly
            self._xt = np.empty((self.n_features, rows), dtype=np.float64)
            self._record_alloc("accumulator_staging", self._xt.nbytes)
        return self._blk, self._ext_l, self._enc[:2 * rows].reshape(2, rows)

    def feed(self, x_chunk: np.ndarray, labels_chunk: np.ndarray) -> None:
        """Accumulate one chunk of samples (must arrive in sample order).

        Oversized chunks are split internally into ``feed_rows``-row
        sub-feeds: the pooled float64 transpose staging then stays
        under :data:`STAGING_BYTES` and cache-sized (a budget-sized
        engine chunk fed whole would thrash it), and the continuation
        trick makes the split invisible in the bits.

        Parameters
        ----------
        x_chunk : ndarray of shape (rows, n_features)
            Sample rows in the kernel dtype (converted to float64
            internally, value-exactly — matching the seed's
            ``x.astype(np.float64)``).
        labels_chunk : ndarray of shape (rows,)
            The chunk's cluster assignments.
        """
        rows = x_chunk.shape[0]
        if rows == 0:
            return
        step = self.feed_rows
        if rows > step:
            for lo in range(0, rows, step):
                self._feed_one(x_chunk[lo:lo + step],
                               labels_chunk[lo:lo + step])
        else:
            self._feed_one(x_chunk, labels_chunk)

    def _feed_one(self, x_chunk: np.ndarray, labels_chunk: np.ndarray) -> None:
        rows = x_chunk.shape[0]
        n = self.n_clusters
        off = self.samples_seen
        blk, lbl, enc = self._staging(rows)
        lbl[n:n + rows] = labels_chunk
        ext_l = lbl[:n + rows]
        enc[0] = 1.0
        np.add(labels_chunk, 1, out=enc[1])
        checks = self._checks
        w_s = None
        if self._weights is not None:
            if off + rows > self._weights.shape[0]:
                raise ValueError(
                    f"feed past bound weights: offset {off} + {rows} rows "
                    f"> {self._weights.shape[0]} weights")
            w_s = self._weights[off: off + rows]
        if self._src_t is not None:
            if off + rows > self._src_t.shape[1]:
                raise ValueError(
                    f"feed past bound source: offset {off} + {rows} rows "
                    f"> {self._src_t.shape[1]} source columns")
            # contiguous feature rows off the bound transpose, without
            # the strided gather
            src = self._src_t[:, off: off + rows]
        else:
            # transposed float64 staging (pooled): one contiguous row
            # per feature
            src = self._xt[:, :rows]
            np.copyto(src, x_chunk.T)
        step = blk.shape[0]
        for j0 in range(0, self.n_features, step):
            j1 = min(j0 + step, self.n_features)
            # one block of feature rows behind n continuation slots each;
            # the float64 conversion is value-exact (the seed's
            # x.astype(np.float64)), and the weighted products match the
            # one-shot x64 * w[:, None] per element
            body = blk[:j1 - j0, n:n + rows]
            np.copyto(body, src[j0:j1])
            if w_s is not None:
                body *= w_s
            # the e1/e2 checksums of the staged rows, off the input
            # rather than the bincount results: an independent stream
            checks[j0:j1] += body @ enc.T
            for b, j in enumerate(range(j0, j1)):
                # continuation trick: the running sums ride along as one
                # pseudo-sample per cluster, so the per-bin association
                # stays exactly sequential across feed boundaries
                row = blk[b, :n + rows]
                row[:n] = self._sums_t[j]
                self._sums_t[j] = np.bincount(ext_l, weights=row,
                                              minlength=n)
        if w_s is None:
            # integer counts: any association is exact, skip the staging
            self._counts += np.bincount(labels_chunk, minlength=n)
            checks[-1, 0] += rows
            checks[-1, 1] += int(labels_chunk.sum()) + rows
        else:
            # weighted counts need the same continuation as the sums to
            # match the sequential np.add.at(sums[:, k], labels, w) bits
            row = blk[0, :n + rows]
            row[:n] = self._counts
            row[n:] = w_s
            checks[-1] += enc @ row[n:]
            self._counts[:] = np.bincount(ext_l, weights=row, minlength=n)
        self.samples_seen += rows

    # ------------------------------------------------------------------
    def packed(self) -> np.ndarray:
        """Sums and counts in the seed update stage's ``(K, N+1)`` layout."""
        out = np.empty((self.n_clusters, self.n_features + 1),
                       dtype=np.float64)
        out[:, :self.n_features] = self._sums_t.T
        out[:, self.n_features] = self._counts
        return out

    def checksums(self) -> np.ndarray:
        """The stream's ``(N+1, 2)`` float64 checksums, a copy.

        Row ``j < N`` holds ``[Σ_i w_i·x_ij, Σ_i (l_i+1)·w_i·x_ij]`` over
        every row fed since the last ``reset`` (``w_i = 1`` unweighted);
        row ``N`` the same pair over the counts — exact integers when
        unweighted.  They encode ``packed()`` as ``e1ᵀ S`` and ``e2ᵀ S``
        would (:mod:`repro.abft.sumcheck` compares the two).
        """
        return self._checks.copy()

    @property
    def counts(self) -> np.ndarray:
        """Per-cluster sample counts accumulated so far (float64 view)."""
        return self._counts

    @property
    def sums(self) -> np.ndarray:
        """Per-cluster feature sums accumulated so far, shape (K, N)."""
        return self._sums_t.T


def accumulate_oneshot(x: np.ndarray, labels: np.ndarray, n_clusters: int,
                       *, sample_weight: np.ndarray | None = None
                       ) -> np.ndarray:
    """The seed accumulation (``np.add.at``), kept as the test oracle
    the streamed path is bit-compared against and as the unchunked
    bench baseline.  With ``sample_weight`` the scatter adds
    ``w_i * x_i`` and the count column accumulates the weights
    themselves."""
    k = x.shape[1]
    sums = np.zeros((n_clusters, k + 1), dtype=np.float64)
    x64 = x.astype(np.float64)
    if sample_weight is None:
        np.add.at(sums[:, :k], labels, x64)
        np.add.at(sums[:, k], labels, 1.0)
    else:
        w = np.ascontiguousarray(sample_weight, dtype=np.float64)
        np.add.at(sums[:, :k], labels, x64 * w[:, None])
        np.add.at(sums[:, k], labels, w)
    return sums


def accumulate_checked(x: np.ndarray, labels: np.ndarray, n_clusters: int,
                       *, feed_rows: int = FEED_ROWS,
                       sample_weight: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One-call streamed accumulation over a whole array, with its
    checksums: ``(packed (K, N+1), checksums (N+1, 2))``.

    Feeds ``x`` through a fresh :class:`StreamedAccumulator` in
    ``feed_rows``-sized chunks; the sums are bit-identical to
    :func:`accumulate_oneshot` for every ``feed_rows`` (weighted or
    not).  The update guard's recompute after a checksum alarm.
    """
    acc = StreamedAccumulator(n_clusters, x.shape[1])
    acc.bind_weights(sample_weight)
    m = x.shape[0]
    for lo in range(0, m, feed_rows):
        hi = min(lo + feed_rows, m)
        acc.feed(x[lo:hi], labels[lo:hi])
    return acc.packed(), acc.checksums()


def accumulate_streamed(x: np.ndarray, labels: np.ndarray, n_clusters: int,
                        *, feed_rows: int = FEED_ROWS,
                        sample_weight: np.ndarray | None = None
                        ) -> np.ndarray:
    """:func:`accumulate_checked` without the checksums: the packed
    ``(K, N+1)`` sums, bit-identical to :func:`accumulate_oneshot`."""
    return accumulate_checked(x, labels, n_clusters, feed_rows=feed_rows,
                              sample_weight=sample_weight)[0]
