"""Property suite: bound-pruned assignment is **label- and bit-exact**.

The contract of :mod:`repro.core.bounds`: pruning a row is legal only
when the skip is provably bit-identical to recomputing it (bit-frozen
own centroid + margin-certified competitors), so a pruned multi-round
trajectory — labels, best-distance bit patterns, fused update sums —
matches the unpruned engine exactly for any chunk budget, worker count,
dtype, warm start or SEU injection history, including flips landing in
active-set chunks and in the bounds arrays themselves (which the
fingerprint check must catch and heal).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abft.schemes import get_scheme
from repro.core.accumulate import StreamedAccumulator, accumulate_streamed
from repro.core.bounds import BoundsState
from repro.core.config import KMeansConfig
from repro.core.engine import EngineCancelled, FastPathEngine
from repro.core.update import UpdateStage
from repro.gpusim.counters import PerfCounters
from repro.gpusim.faults import FaultInjector
from repro.utils.bits import flip_bit

K, D = 8, 16


def _blobs(seed, m=2048, k=K, d=D, dtype=np.float32, noise=0.3,
           shuffle=False):
    """A converging workload: well-separated blobs, y0 near the truth."""
    rng = np.random.default_rng(seed)
    centers = (rng.normal(size=(k, d)) * 8.0).astype(dtype)
    x = np.concatenate([c + rng.normal(scale=noise,
                                       size=(m // k, d)).astype(dtype)
                        for c in centers])
    if shuffle:
        rng.shuffle(x)
    y0 = (centers + rng.normal(scale=0.05,
                               size=centers.shape).astype(dtype))
    return np.ascontiguousarray(x.astype(dtype)), y0.astype(dtype)


def _lloyd_step(x, labels, y):
    """Plain float64 mean update (empty clusters keep the old centroid)."""
    k, d = y.shape
    sums = np.zeros((k, d), dtype=np.float64)
    cnt = np.zeros(k)
    np.add.at(sums, labels, x.astype(np.float64))
    np.add.at(cnt, labels, 1)
    nz = cnt > 0
    y = y.copy()
    y[nz] = (sums[nz] / cnt[nz, None]).astype(y.dtype)
    return y


def _trajectory(x, y0, iters, *, prune, dtype=np.float32, tf32=True,
                chunk_bytes=None, inject_seed=None,
                mutate=None, fuse=False):
    """Run ``iters`` Lloyd rounds on one engine; return everything
    comparable (per-round labels + best bits + optional fused sums)
    plus the engine stats.  ``mutate(it, eng)`` runs before each round
    (SEU-in-metadata tests)."""
    inj = (FaultInjector(np.random.default_rng(inject_seed), 0.7, dtype)
           if inject_seed is not None else None)
    eng = FastPathEngine(None, dtype, tf32=tf32, chunk_bytes=chunk_bytes,
                         injector=inj,
                         scheme=get_scheme("ftkmeans") if inj else None,
                         prune=prune)
    u = np.dtype(dtype).str.replace("f", "u")
    acc = StreamedAccumulator(y0.shape[0], x.shape[1]) if fuse else None
    rounds = []
    try:
        eng.begin_fit(x, y0.shape[0])
        y = y0.copy()
        for it in range(iters):
            if mutate is not None:
                mutate(it, eng)
            if acc is not None:
                acc.reset()
            labels, best = eng.assign(x, y, PerfCounters(),
                                      accumulator=acc)
            rec = {"labels": labels.copy(),
                   "best_bits": best.view(u).copy(),
                   "active_frac": eng.stats.last_active_frac}
            if acc is not None:
                rec["sums_bits"] = acc.packed().view(np.uint64).copy()
            rounds.append(rec)
            y = _lloyd_step(x, labels, y)
        stats = eng.stats
        bounds = None if eng._cache is None else eng._cache.bounds
    finally:
        eng.end_fit()
    return rounds, stats, bounds


def assert_trajectories_equal(got, ref):
    assert len(got) == len(ref)
    for it, (a, b) in enumerate(zip(got, ref)):
        assert np.array_equal(a["labels"], b["labels"]), f"round {it}"
        assert np.array_equal(a["best_bits"], b["best_bits"]), f"round {it}"
        if "sums_bits" in b:
            assert np.array_equal(a["sums_bits"], b["sums_bits"]), \
                f"round {it}"


@pytest.fixture(scope="module")
def blob_data():
    return _blobs(0)


class TestPrunedBitExactness:
    """The acceptance property: pruned trajectory == unpruned, bitwise,
    with pruning demonstrably engaged."""

    def test_converging_fit_bit_exact_and_prunes(self, blob_data):
        x, y0 = blob_data
        got, stats, _ = _trajectory(x, y0, 8, prune="auto", fuse=True)
        ref, ref_stats, _ = _trajectory(x, y0, 8, prune="off", fuse=True)
        assert_trajectories_equal(got, ref)
        assert ref_stats.rows_pruned == 0
        assert stats.rows_pruned > 0 and stats.pruned_passes > 0
        assert stats.last_active_frac == 0.0   # fully frozen at the end

    def test_active_frac_trajectory_collapses(self, blob_data):
        x, y0 = blob_data
        rounds, _, _ = _trajectory(x, y0, 8, prune="auto")
        fracs = [r["active_frac"] for r in rounds]
        assert fracs[0] == 1.0                 # no history yet
        assert fracs[-1] == 0.0                # converged: all pruned
        assert min(fracs) == 0.0

    @pytest.mark.parametrize("prune", ["on", "bogus", None])
    def test_prune_accepts_only_auto_and_off(self, prune):
        with pytest.raises(ValueError, match="prune"):
            FastPathEngine(None, np.float32, prune=prune)
        with pytest.raises(ValueError, match="prune"):
            KMeansConfig(n_clusters=4, prune=prune)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16),
           chunk_kb=st.sampled_from([None, 16, 64]),
           dtype=st.sampled_from([np.float32, np.float64]),
           shuffle=st.booleans())
    def test_property_any_config_bit_exact(self, seed, chunk_kb, dtype,
                                           shuffle):
        x, y0 = _blobs(seed, m=1024, k=6, d=8, dtype=dtype,
                       shuffle=shuffle)
        kw = dict(dtype=dtype, tf32=dtype == np.float32,
                  chunk_bytes=None if chunk_kb is None else chunk_kb << 10)
        got, stats, _ = _trajectory(x, y0, 6, prune="auto", fuse=True, **kw)
        ref, _, _ = _trajectory(x, y0, 6, prune="off", fuse=True, **kw)
        assert_trajectories_equal(got, ref)
        if not shuffle:
            # contiguous blobs: full convergence empties whole GEMM
            # units, so pruning demonstrably engaged
            assert stats.rows_pruned > 0

    def test_warm_start_prunes_immediately(self, blob_data):
        # converge first, then restart from the converged centroids:
        # round 2 of the warm fit freezes and prunes everything
        x, y0 = blob_data
        y = y0.copy()
        for _ in range(6):
            ref, _, _ = _trajectory(x, y, 1, prune="off")
            y = _lloyd_step(x, ref[0]["labels"], y)
        got, stats, _ = _trajectory(x, y, 4, prune="auto")
        ref, _, _ = _trajectory(x, y, 4, prune="off")
        assert_trajectories_equal(got, ref)
        assert stats.rows_pruned >= 2 * len(x)   # rounds 2..4 all pruned

    def test_single_cluster_fit(self):
        # K=1: no competitors — a frozen centroid alone certifies rows
        x, _ = _blobs(5, m=512, k=4, d=8)
        y0 = x[:1].copy()
        got, stats, _ = _trajectory(x, y0, 5, prune="auto")
        ref, _, _ = _trajectory(x, y0, 5, prune="off")
        assert_trajectories_equal(got, ref)
        assert stats.rows_pruned > 0


class TestPrunedUnderInjection:
    """SEU interaction: the injector's plan streams are untouched by
    pruning (fault-planned chunks always compute in full), so injected
    runs stay bit-identical too — and flipped chunks stop being trusted
    as pruning history."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_injected_runs_bit_exact(self, seed):
        x, y0 = _blobs(seed, m=1024, k=6, d=8)
        kw = dict(chunk_bytes=16 << 10, inject_seed=seed)
        got, _, _ = _trajectory(x, y0, 6, prune="auto", fuse=True, **kw)
        ref, _, _ = _trajectory(x, y0, 6, prune="off", fuse=True, **kw)
        assert_trajectories_equal(got, ref)

    def test_fault_planned_rows_not_trusted(self, blob_data):
        # with injection on, some rounds carry plans: their chunks'
        # bounds rows are invalidated, yet clean chunks still prune
        x, y0 = blob_data
        got, stats, _ = _trajectory(x, y0, 8, prune="auto",
                                    chunk_bytes=32 << 10, inject_seed=3)
        ref, _, _ = _trajectory(x, y0, 8, prune="off",
                                chunk_bytes=32 << 10, inject_seed=3)
        assert_trajectories_equal(got, ref)


def _random_start(x, seed=0):
    """K distinct sample rows: most blobs freeze by round 3 while a few
    centroids keep moving, so a fit crosses its first-freeze round."""
    rng = np.random.default_rng(seed)
    return x[rng.choice(len(x), K, replace=False)].copy()


class TestLazyBounds:
    """Bounds stay lazy — no refresh, error vector or fingerprint —
    until a round finds a bit-frozen centroid; that round runs fully
    active with refresh and pruning starts the round after."""

    def test_no_freeze_opens_only_end_round_spans(self, blob_data):
        from repro.obs.trace import TraceRecorder

        x, y0 = blob_data
        rec = TraceRecorder()
        allocs = []
        eng = FastPathEngine(None, np.float32, tf32=True, prune="auto",
                             tracer=rec,
                             alloc_hook=lambda n, b: allocs.append(n))
        try:
            eng.begin_fit(x, K)
            for it in range(5):
                # every centroid moves every round: nothing ever freezes
                eng.assign(x, y0 + np.float32(0.01 * (it + 1)),
                           PerfCounters())
            bounds = eng._cache.bounds
            assert not bounds.live
            assert bounds.lb is None and bounds.nx is None
            assert bounds.nbytes == 0
        finally:
            eng.end_fit()
        phases = [s.meta.get("phase") for s in rec.spans
                  if s.name == "bounds_refresh"]
        assert phases == ["end_round"] * 5
        assert eng.stats.rows_pruned == 0 and eng.stats.pruned_passes == 0
        assert "bounds_state" not in allocs

    def test_first_freeze_round_goes_live_then_prunes(self, blob_data):
        x, _ = blob_data
        y0 = _random_start(x)
        got, stats, bounds = _trajectory(x, y0, 8, prune="auto", fuse=True)
        ref, _, _ = _trajectory(x, y0, 8, prune="off", fuse=True)
        assert_trajectories_equal(got, ref)
        fracs = [r["active_frac"] for r in got]
        # the unpruned trajectory's first repeated centroid row marks
        # the first-freeze round
        ys = [y0]
        for r in ref[:-1]:
            ys.append(_lloyd_step(x, r["labels"], ys[-1]))
        frozen = [it for it in range(1, len(ys))
                  if (ys[it].view(np.uint32)
                      == ys[it - 1].view(np.uint32)).all(axis=1).any()]
        first = frozen[0]
        assert 1 < first < len(fracs) - 1
        # lazy rounds and the first live round run fully active
        assert fracs[:first + 1] == [1.0] * (first + 1)
        assert min(fracs[first + 1:]) < 1.0
        assert bounds.live and stats.rows_pruned > 0
        assert stats.bounds_rebuilds == 0

    def test_live_bounds_charged_once(self, blob_data):
        x, _ = blob_data
        allocs = []
        eng = FastPathEngine(None, np.float32, tf32=True, prune="auto",
                             alloc_hook=lambda n, b: allocs.append((n, b)))
        try:
            eng.begin_fit(x, K)
            y = _random_start(x)
            for _ in range(6):
                labels, _ = eng.assign(x, y, PerfCounters())
                y = _lloyd_step(x, labels, y)
            bounds = eng._cache.bounds
        finally:
            eng.end_fit()
        charged = [b for n, b in allocs if n == "bounds_state"]
        assert charged == [bounds.nbytes] == [2 * len(x) * 8]


class TestRowGranularLane:
    """The pruned lane computes active *rows*, not active units: on
    shuffled rows (every GEMM unit mixes clusters) a frozen cluster's
    certified rows drop out even though no unit empties, and the packed
    unit GEMMs still reproduce the unpruned bits."""

    @staticmethod
    def _shuffled(m, seed=0):
        x, _ = _blobs(seed, m=m // K * K + K, shuffle=True)
        x = np.ascontiguousarray(x[:m])
        return x, _random_start(x, seed)

    @staticmethod
    def _park_moving_row_last(x, y0, iters):
        """Swap a row of a centroid that still moves in the last round
        into the last position, so a one-row tail stays active while
        the frozen clusters' rows are pruned."""
        ref, _, _ = _trajectory(x, y0, iters, prune="off")
        y = y0
        for r in ref[:-1]:
            y_prev, y = y, _lloyd_step(x, r["labels"], y)
        moving = np.flatnonzero((y.view(np.uint32)
                                 != y_prev.view(np.uint32)).any(axis=1))
        i = np.flatnonzero(np.isin(ref[-1]["labels"], moving))[0]
        x = x.copy()
        x[[i, -1]] = x[[-1, i]]
        return x

    def test_shuffled_fit_bit_exact_and_row_granular(self, bounds_log):
        x, y0 = self._shuffled(2048)
        got, stats, _ = _trajectory(x, y0, 8, prune="auto", fuse=True)
        ref, _, _ = _trajectory(x, y0, 8, prune="off", fuse=True)
        assert_trajectories_equal(got, ref)
        rows, units = bounds_log.prunable()
        # every inactive row was skipped, far more than whole units
        assert stats.rows_pruned == bounds_log.rows_pruned == rows
        assert rows > units

    @pytest.mark.parametrize("chunk_kb", [None, 16])
    @pytest.mark.parametrize("m", [2049, 2303])   # 1, 255 (mod 256)
    def test_ragged_tail_bit_exact(self, bounds_log, m, chunk_kb):
        x, y0 = self._shuffled(m)
        x = self._park_moving_row_last(x, y0, 8)
        kw = dict(chunk_bytes=None if chunk_kb is None else chunk_kb << 10)
        got, stats, _ = _trajectory(x, y0, 8, prune="auto", fuse=True,
                                    **kw)
        ref, _, _ = _trajectory(x, y0, 8, prune="off", fuse=True, **kw)
        assert_trajectories_equal(got, ref)
        rows, units = bounds_log.prunable()
        assert stats.rows_pruned == rows > units
        # the tail unit ran inside the pruned lane: active while other
        # rows were pruned (and, at 255 rows, itself only partly active)
        tails = [mask[m // 256 * 256:] for _, mask in bounds_log.masks
                 if mask is not None and not mask.all()]
        assert any(t.any() for t in tails)
        if m % 256 > 1:
            assert any(t.any() and not t.all() for t in tails)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residue", [1, 2, 7, 255])
    def test_padded_last_unit_bit_exact(self, monkeypatch, residue, dtype):
        """Any superset of the rows the bounds leave active is a valid
        active set.  Topping the mask up so the last packed unit holds
        ``residue`` real rows exercises its padding: a GEMM shorter
        than the unit takes other BLAS kernels, with other bits."""
        m, k = 4096, 64
        x, _ = _blobs(0, m=m, k=k, d=64, dtype=dtype, shuffle=True)
        y0 = x[np.random.default_rng(0).choice(m, k, replace=False)].copy()
        begin = BoundsState.begin_round

        def topped(self, *args, **kwargs):
            mask = begin(self, *args, **kwargs)
            if mask is not None:
                need = (residue - int(mask.sum())) % 256
                mask[np.flatnonzero(~mask)[:need]] = True
            return mask

        monkeypatch.setattr(BoundsState, "begin_round", topped)
        kw = dict(dtype=dtype, tf32=dtype == np.float32)
        got, _, _ = _trajectory(x, y0, 8, prune="auto", **kw)
        ref, _, _ = _trajectory(x, y0, 8, prune="off", **kw)
        assert_trajectories_equal(got, ref)
        computed = [round(r["active_frac"] * m) for r in got]
        assert any(c % 256 == residue for c in computed)

    def test_sample_weight_fit_bit_exact(self, bounds_log):
        from repro import FTKMeans

        x, y0 = self._shuffled(2048)
        w = np.random.default_rng(1).uniform(0.5, 2.0, len(x))

        def fit(prune):
            return FTKMeans(n_clusters=K, init_centroids=y0, max_iter=10,
                            tol=0, prune=prune).fit(x, sample_weight=w)

        on = fit("auto")
        rows, units = bounds_log.prunable()
        off = fit("off")
        assert np.array_equal(on.labels_, off.labels_)
        assert np.array_equal(on.cluster_centers_.view(np.uint32),
                              off.cluster_centers_.view(np.uint32))
        assert on.inertia_ == off.inertia_
        assert bounds_log.rows_pruned == rows > units


class TestBoundsProtection:
    """The bounds' own protection story: an SEU in the pruning metadata
    (bound arrays, stored anchor, cached labels/best) is caught by the
    fingerprint check, heals via a fully-active round, and never moves
    an output bit."""

    @pytest.mark.parametrize("target", ["lb", "prev_y", "labels", "best"])
    def test_metadata_flip_heals_bit_exact(self, blob_data, target):
        x, y0 = blob_data

        def mutate(it, eng):
            if it != 4:                     # deep in the pruned regime
                return
            b = eng._cache.bounds
            if target == "lb":
                b.lb.reshape(-1)[7] = flip_bit(b.lb.reshape(-1)[7], 51)
            elif target == "prev_y":
                b.prev_y[1, 2] = flip_bit(b.prev_y[1, 2], 30)
            elif target == "labels":
                eng._cache.labels[11] ^= 1
            else:
                eng._cache.best[11] = flip_bit(eng._cache.best[11], 23)

        got, stats, bounds = _trajectory(x, y0, 8, prune="auto",
                                         mutate=mutate)
        ref, _, _ = _trajectory(x, y0, 8, prune="off")
        assert_trajectories_equal(got, ref)
        assert stats.bounds_rebuilds == 1
        assert bounds.rebuilds == 1

    def test_clean_run_never_rebuilds(self, blob_data):
        x, y0 = blob_data
        _, stats, bounds = _trajectory(x, y0, 8, prune="auto")
        assert stats.bounds_rebuilds == 0
        assert bounds.rebuilds == 0


class TestTransientPasses:
    """predict/score-style passes run on transient caches: they never
    consult or corrupt the fit's bounds state."""

    def test_interleaved_predict_pass_is_inert(self, blob_data):
        x, y0 = blob_data
        x2, _ = _blobs(9, m=640, k=K, d=D)
        eng = FastPathEngine(None, np.float32, tf32=True, prune="auto")
        ref_eng = FastPathEngine(None, np.float32, tf32=True, prune="off")
        try:
            eng.begin_fit(x, K)
            ref_eng.begin_fit(x, K)
            y = y0.copy()
            for it in range(8):
                labels, best = eng.assign(x, y, PerfCounters())
                rl, rb = ref_eng.assign(x, y, PerfCounters())
                assert np.array_equal(labels, rl)
                assert np.array_equal(best.view(np.uint32),
                                      rb.view(np.uint32))
                if it == 4:
                    # an interleaved pass on foreign data, mid-fit
                    pl, pb = eng.assign(x2, y, PerfCounters())
                    ql, qb = ref_eng.assign(x2, y, PerfCounters())
                    assert np.array_equal(pl, ql)
                    assert np.array_equal(pb.view(np.uint32),
                                          qb.view(np.uint32))
                y = _lloyd_step(x, labels.copy(), y)
            assert eng.stats.rows_pruned > 0
        finally:
            eng.end_fit()
            ref_eng.end_fit()


class TestShiftsFeed:
    """The update stage's per-centroid shift vector is bit-identical to
    the bounds' self-computed one, and a stale feed is dropped."""

    def test_update_shifts_match_bounds_expression(self, blob_data):
        x, y0 = blob_data
        rng = np.random.default_rng(1)
        labels = rng.integers(0, K, size=len(x))
        stage = UpdateStage(KMeansConfig(n_clusters=K).device, np.float32,
                            dmr=False)
        upd = stage.update(x, labels, np.zeros(len(x), np.float32),
                           y0, PerfCounters(),
                           accumulate_streamed(x, labels, K))
        expect = BoundsState._shifts_from(y0, upd.centroids)
        assert upd.shifts.dtype == np.float64
        assert np.array_equal(upd.shifts.view(np.uint64),
                              expect.view(np.uint64))

    def test_fed_and_self_computed_prune_identically(self, blob_data):
        x, y0 = blob_data

        def run(feed):
            eng = FastPathEngine(None, np.float32, tf32=True,
                                 prune="auto")
            out = []
            try:
                eng.begin_fit(x, K)
                y = y0.copy()
                for _ in range(8):
                    labels, best = eng.assign(x, y, PerfCounters())
                    out.append((labels.copy(),
                                best.view(np.uint32).copy(),
                                eng.stats.last_active_frac))
                    prev, y = y, _lloyd_step(x, labels, y)
                    if feed:
                        eng.feed_centroid_shifts(
                            BoundsState._shifts_from(prev, y), y)
                return out, eng.stats.rows_pruned
            finally:
                eng.end_fit()

        fed, fed_pruned = run(True)
        self_c, self_pruned = run(False)
        for a, b in zip(fed, self_c):
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])
            assert a[2] == b[2]             # identical active sets
        assert fed_pruned == self_pruned > 0

    def test_stale_feed_is_dropped(self, blob_data):
        # a feed keyed to an array that never reaches assign() must not
        # poison the bounds: the next pass self-recomputes
        x, y0 = blob_data
        eng = FastPathEngine(None, np.float32, tf32=True, prune="auto")
        try:
            eng.begin_fit(x, K)
            y = y0.copy()
            ref, _, _ = _trajectory(x, y0, 6, prune="off")
            for it in range(6):
                # nonsense shifts keyed to a throwaway array
                eng.feed_centroid_shifts(np.zeros(K), np.empty_like(y))
                labels, best = eng.assign(x, y, PerfCounters())
                assert np.array_equal(labels, ref[it]["labels"])
                assert np.array_equal(best.view(np.uint32),
                                      ref[it]["best_bits"])
                y = _lloyd_step(x, labels.copy(), y)
        finally:
            eng.end_fit()


class _TripAfter:
    """Cancellation token that trips after ``n`` is_set() polls."""

    def __init__(self, n):
        self.n = n
        self.polls = 0

    def is_set(self):
        self.polls += 1
        return self.polls > self.n


class TestCancellation:
    """The engine checks its cancellation token at every chunk
    boundary: a cancelled pass stops within one chunk and the aborted
    round's half-written state heals on the next pass."""

    def test_cancel_stops_within_one_chunk(self, blob_data):
        x, y0 = blob_data
        eng = FastPathEngine(None, np.float32, tf32=True,
                             chunk_bytes=8 << 10)   # many chunks
        try:
            eng.begin_fit(x, K)
            n_chunks = len(eng._cache.chunks)
            assert n_chunks > 4
            token = _TripAfter(3)
            eng.cancel_token = token
            with pytest.raises(EngineCancelled):
                eng.assign(x, y0, PerfCounters())
            # polled once per chunk: tripped on the 4th poll, so at
            # most 3 chunks ran
            assert token.polls == 4
            assert eng.stats.gemm_calls <= 3 * max(
                1, (eng._cache.chunks[0][1] + eng.unit_rows - 1)
                // eng.unit_rows)
        finally:
            eng.end_fit()

    def test_aborted_pass_heals_and_stays_exact(self, blob_data):
        x, _ = blob_data
        # a random start keeps a few centroids moving after the rest
        # freeze, so bounds are live while rows are still active
        y0 = _random_start(x)
        eng = FastPathEngine(None, np.float32, tf32=True,
                             chunk_bytes=8 << 10, prune="auto")
        ref, _, _ = _trajectory(x, y0, 6, prune="off",
                                chunk_bytes=8 << 10)
        try:
            eng.begin_fit(x, K)
            y = y0.copy()
            for it in range(6):
                if it == 4:
                    # cancelled in a live round while rows are still
                    # active: the pass loosens the bounds and
                    # half-overwrites labels/best, so the stale
                    # fingerprint must force a fully-active heal
                    bounds = eng._cache.bounds
                    assert bounds.live and eng.stats.rows_pruned > 0
                    assert not np.array_equal(bounds.prev_y, y)
                    eng.cancel_token = _TripAfter(2)
                    with pytest.raises(EngineCancelled):
                        eng.assign(x, y, PerfCounters())
                    eng.cancel_token = None
                labels, best = eng.assign(x, y, PerfCounters())
                assert np.array_equal(labels, ref[it]["labels"])
                assert np.array_equal(best.view(np.uint32),
                                      ref[it]["best_bits"])
                y = _lloyd_step(x, labels.copy(), y)
            assert eng.stats.bounds_rebuilds >= 1
        finally:
            eng.end_fit()
