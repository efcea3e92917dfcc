"""Cross-iteration distance bounds for pruned **exact** assignment.

Hamerly-style pruning normally trades exactness guarantees that
hold in real arithmetic for float trouble at the margins.  This repo's
contract is stronger than "same clusters": every knob (chunking,
workers, sharding) must leave labels *and* min-distance bits untouched.
:class:`BoundsState` therefore prunes a row only when the skip is
provably **bit-identical** to recomputing it:

1. **Bit-frozen own centroid.**  A row may be skipped only when the
   centroid it is assigned to has exactly the same bits as in the round
   its cached label/distance were computed (``prev_y`` compare through
   unsigned views).  The engine computes each distance row through a
   fixed-shape GEMM unit and an elementwise epilogue, and at that shape
   the BLAS result of a row depends only on that row and the column
   operand — not on the row's position in the unit or on the rows
   beside it.  A frozen centroid therefore reproduces the cached
   ``best`` value bit-for-bit, floor included, and the engine may pack
   the active rows of many units into fresh units (row-granular
   pruning).  The row independence is a BLAS-kernel property, so the
   engine probes it once per geometry
   (:func:`repro.core.engine.gemm_rows_independent`) and, should it
   fail, widens the active set back to whole units, whose GEMMs are
   the unpruned pass's own.
2. **Margin-certified competitors.**  Every *other* centroid's freshly
   computed distance must provably exceed the cached own distance.  A
   per-sample float64 lower bound ``lb`` on the true distance to the
   nearest competitor is maintained across rounds (loosened by the
   centroid movement, the classic triangle-inequality step) and
   compared through a conservative float-error margin ``err``:
   ``max(0, lb)**2 - err > best`` implies each computed competitor
   value is strictly greater than the cached minimum, so the fresh
   argmin — first-index tie-breaking included — would land on the same
   centroid and produce the same floored distance.

Because a pruned row's outputs are bit-identical to a recompute, the
whole fit trajectory (labels, inertia, fused update sums, empty-cluster
reseeding, convergence) is bit-identical to the unpruned engine — and
the *choice* of active set can never change a bit, which is what keeps
shard-local bounds compatible with the distributed bit-identity
contract.  The loosening step is valid for **any** centroid transition
(it never assumes a forward Lloyd step), so checkpoint rewinds,
re-plans and interleaved passes on the fit cache are all safe.

**Lazy activation.**  Bounds pay only once some centroid stops
moving: until then no row can be pruned, so the refresh, the error
vector and the fingerprints would be pure cost.  The state therefore
starts *lazy* — it keeps only ``prev_y``, the previous round's K x N
centroids — and :meth:`BoundsState.wake` compares each round's
centroids against it.  The first round that finds a bit-frozen
centroid goes *live*: it allocates the bound arrays, computes the error
vector and runs fully active with refresh, and pruning starts the round
after.  A fit whose centroids never freeze (a short cold fit) never
pays for bounds beyond that K x N compare and copy.  Which rounds are
live only moves the active set, so it can never move a bit either.

**Error margin.**  The engine computes ``d = -2*x.y + |x|^2 + |y|^2``
in the kernel dtype (optionally TF32-rounded operands).  The deviation
of the computed value from the true squared distance is bounded by the
classic dot-product error model: ``err = C * (|x|^2 + ny_max +
2*sqrt(|x|^2 * ny_max))`` with ``C = ERR_SAFETY * (k*eps + tf32_eps)``
(``k`` features, ``eps`` the dtype epsilon, ``tf32_eps = 2**-10`` only
under TF32 rounding), evaluated in float64 from float64 norms.  The
constant is deliberately generous — an over-estimate only shrinks the
pruned set, never breaks exactness — and the hypothesis property
suites (:mod:`tests.core.test_pruned_assignment`) pound on it
empirically.

**Protection story (ABFT interaction).**  A pruned row has no fresh
GEMM for the ABFT checksums to cover: its protection is the cached
state itself.  Every array pruning trusts — the bounds, the stored
``prev_y``, and the engine's cached ``labels``/``best`` buffers — is
fingerprinted (XOR over exact bit patterns) at round end and verified
at round start.  Any mismatch (an SEU in the bounds arrays themselves,
a torn write, an aborted pass) invalidates the state and forces a
fully-active round, which recomputes every row without trusting any
history — detection + containment, the paper's ABFT philosophy applied
to the pruning metadata.  Rows of chunks intersected by injected fault
plans are additionally invalidated each round: a sub-threshold flip
that escaped the ABFT threshold is exact *that* round by definition of
the replay semantics, but must not be trusted as pruning history.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PRUNE_MODES", "BoundsState"]

#: values of the ``prune`` knob: ``'auto'`` keeps the O(M)-memory
#: Hamerly bound, ``'off'`` disables pruning
PRUNE_MODES = ("auto", "off")

#: safety factor on the analytic dot-product error bound; generous on
#: purpose (a loose margin only reduces pruning, never exactness)
ERR_SAFETY = 8.0

#: operand-rounding step of TF32 (10 explicit mantissa bits)
TF32_EPS = 2.0 ** -10


def _checksum(arr: np.ndarray) -> int:
    """XOR fingerprint of an array's exact bit pattern (order-free)."""
    if arr.size == 0:
        return 0
    view = arr.reshape(-1).view(np.dtype(f"u{arr.dtype.itemsize}"))
    return int(np.bitwise_xor.reduce(view))


class BoundsState:
    """Per-fit pruning state owned by the engine's :class:`FitCache`:
    one float64 lower bound per sample on the distance to the nearest
    *competitor* centroid.

    Parameters
    ----------
    x : ndarray
        The fit's sample matrix (kernel dtype); only its float64 row
        norms are kept.
    n_clusters : int
        Centroid count of the fit (re-resolved if a pass changes it).
    tf32 : bool
        Whether the engine rounds GEMM operands to TF32 (widens the
        error margin).
    alloc_hook : callable, optional
        ``(name, nbytes)``, called once with ``"bounds_state"`` when the
        bound arrays are allocated (the engine's allocation tracker).
    """

    def __init__(self, x: np.ndarray, n_clusters: int, *,
                 tf32: bool = False, alloc_hook=None):
        k = x.shape[1]
        self.n_clusters = int(n_clusters)
        self.tf32 = bool(tf32)
        self._x = x
        self._alloc_hook = alloc_hook
        eps = float(np.finfo(x.dtype).eps)
        self._coeff = ERR_SAFETY * (k * eps + (TF32_EPS if self.tf32 else 0.0))
        #: False until a round finds a bit-frozen centroid (see module doc)
        self.live = False
        self.nx: np.ndarray | None = None
        self.lb: np.ndarray | None = None
        self.prev_y: np.ndarray | None = None
        self._sums: tuple | None = None
        self._err: np.ndarray | None = None
        #: checksum-mismatch heals (invalidate-and-recompute events)
        self.rebuilds = 0

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the bound arrays (0 while lazy)."""
        return 0 if not self.live else self.lb.nbytes + self.nx.nbytes

    def invalidate(self) -> None:
        """Drop all cross-round trust: the next round is fully active."""
        if self.lb is not None:
            self.lb.fill(-np.inf)
        self.prev_y = None
        self._sums = None

    def invalidate_rows(self, idx) -> None:
        """Stop trusting specific rows (e.g. rows of a chunk an injected
        fault plan targeted: exact this round, unsafe as history)."""
        self.lb[idx] = -np.inf

    def _fingerprint(self, labels: np.ndarray, best: np.ndarray) -> tuple:
        return (_checksum(self.lb), _checksum(self.prev_y),
                _checksum(labels), _checksum(best))

    @staticmethod
    def _shifts_from(prev_y: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-centroid float64 movement; the *same expression* as
        :class:`repro.core.update.UpdateResult.shifts`, so a fed and a
        self-computed shift vector carry identical bits."""
        d = y.astype(np.float64) - prev_y.astype(np.float64)
        return np.sqrt(np.sum(d * d, axis=1))

    def _frozen_centroids(self, y: np.ndarray) -> np.ndarray:
        """(K,) mask of centroids whose bits are unchanged vs prev_y."""
        u = np.dtype(f"u{y.dtype.itemsize}")
        return (y.view(u) == self.prev_y.view(u)).all(axis=1)

    # ------------------------------------------------------------------
    def wake(self, y: np.ndarray) -> bool:
        """Whether the bounds are live for a round on centroids ``y``.

        While lazy, compares ``y`` against the stored ``prev_y`` and
        goes live on the first bit-frozen centroid: the float64 sample
        norms and the bound arrays are allocated then (all bounds
        untrusted, so that round runs fully active).  Once live, stays
        live for the fit.
        """
        if self.live:
            return True
        if (self.prev_y is None or self.prev_y.shape != y.shape
                or self.prev_y.dtype != y.dtype
                or not self._frozen_centroids(y).any()):
            return False
        x = self._x
        m, k = x.shape
        # float64 squared sample norms, computed band-by-band so the
        # float64 staging copy stays cache-sized
        self.nx = np.empty(m, dtype=np.float64)
        step = max(1, (4 << 20) // max(1, k * 8))
        for lo in range(0, m, step):
            band = x[lo:lo + step].astype(np.float64, copy=False)
            self.nx[lo:lo + step] = np.einsum("ij,ij->i", band, band)
        self.n_clusters = int(y.shape[0])
        self.lb = np.full(m, -np.inf, dtype=np.float64)
        self.live = True
        if self._alloc_hook is not None:
            self._alloc_hook("bounds_state", self.nbytes)
        return True

    def begin_round(self, y: np.ndarray, labels: np.ndarray,
                    best: np.ndarray, shifts=None):
        """Verify the state, loosen the bounds for the ``prev_y -> y``
        transition and return the active mask (live rounds only: call
        after :meth:`wake` returned True).

        Returns a boolean (M,) mask — True rows must be recomputed —
        or None when no row can be pruned this round (first live round,
        geometry change, or a fingerprint mismatch, which also counts a
        heal in :attr:`rebuilds`).  Always prepares this round's error
        margins so :meth:`refresh` can re-tighten computed rows either
        way.
        """
        n = int(y.shape[0])
        if n != self.n_clusters:
            self.n_clusters = n
            self.invalidate()
        y64 = y.astype(np.float64, copy=False)
        ny_max = float(np.max(np.einsum("ij,ij->i", y64, y64))) if n else 0.0
        self._err = self._coeff * (self.nx + ny_max
                                   + 2.0 * np.sqrt(self.nx * ny_max))
        if self.prev_y is None:
            return None
        if self.prev_y.shape != y.shape or self.prev_y.dtype != y.dtype:
            self.invalidate()
            return None
        if self._sums is None:
            # first live round (or the retry of an aborted one): no
            # bound has been fingerprinted yet, so nothing is trusted
            return None
        if self._fingerprint(labels, best) != self._sums:
            self.rebuilds += 1
            self.invalidate()
            return None
        if shifts is not None and np.shape(shifts) == (n,):
            shifts64 = np.asarray(shifts, dtype=np.float64)
        else:
            shifts64 = self._shifts_from(self.prev_y, y)
        frozen = self._frozen_centroids(y)
        self.lb -= float(shifts64.max(initial=0.0))
        lb_floor = np.maximum(self.lb, 0.0)
        margin = lb_floor * lb_floor - self._err
        # strict >: competitors must beat the cached minimum outright so
        # first-index argmin tie-breaking cannot be disturbed either
        pruned = frozen[labels] & (margin > best.astype(np.float64))
        return ~pruned

    def refresh(self, idx, tile: np.ndarray, labels: np.ndarray) -> None:
        """Re-tighten bounds for freshly computed rows.

        ``idx`` — the rows' global indices (slice or int array);
        ``tile`` — their raw computed squared-distance tile (rows, K),
        post-epilogue, pre-floor; ``labels`` — the rows' fresh argmins.
        The refresh scribbles on the tile: callers pass engine scratch
        that is fully consumed by then.
        """
        if self.n_clusters < 2:
            self.lb[idx] = np.inf
            return
        # second-smallest computed value = the nearest competitor's
        # computed distance (ties only make the bound conservative).
        # With the argmin in hand, masking the assigned column and
        # taking the row min gives the same value as a partition — the
        # label column either holds the strict minimum or ties the
        # second-smallest — in one cheap pass over the tile
        np.put_along_axis(tile, labels[:, None], np.inf, axis=1)
        second = tile.min(axis=1).astype(np.float64)
        self.lb[idx] = np.sqrt(np.maximum(second - self._err[idx], 0.0))

    def end_round(self, y: np.ndarray, labels: np.ndarray,
                  best: np.ndarray) -> None:
        """Store the transition anchor and, once live, fingerprint every
        array the next round's pruning will trust."""
        self.prev_y = y.copy()
        if self.live:
            self._sums = self._fingerprint(labels, best)
