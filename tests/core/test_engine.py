"""Tests for the blocked streaming fast-path engine.

The contract under test: chunking is an implementation detail — for any
``chunk_bytes`` configuration the engine produces
bit-identical labels and inertia (including under fault injection with a
fixed seed), its scratch memory stays under the configured budget, and
the per-fit invariant cache is actually reused across iterations.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import FTKMeans
from repro.core.assignment import setup_gmem
from repro.core.config import KMeansConfig, VARIANT_NAMES
import repro.core.engine as engine_mod
from repro.core.engine import (
    BlockMap,
    FastPathEngine,
    GEMM_UNIT_ROWS,
    gemm_rows_independent,
    unchunked_assign,
)
from repro.core.tensorop import default_tensorop_tile
from repro.core.variants import build_assignment
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import A100_PCIE_40GB
from repro.gpusim.faults import FaultInjector
from repro.gpusim.mma import round_tf32

#: forces several chunks at the test shapes below (unit = 256 rows)
TINY_BUDGET = 256 * 10 * 4


def _converging(m, n_features, n_clusters, dt, *, seed=0, shuffle=True):
    """Blobs (rows shuffled unless ``shuffle`` is False) and a start of
    sample rows: most clusters freeze within a few rounds, some keep
    moving, so live pruning rounds leave part of the rows active."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, n_features)) * 8.0
    x = (centers[np.arange(m) * n_clusters // m]
         + rng.normal(scale=0.3, size=(m, n_features))).astype(dt)
    if shuffle:
        rng.shuffle(x)
    y0 = x[rng.choice(m, n_clusters, replace=False)].copy()
    return np.ascontiguousarray(x), y0


def _lloyd_passes(eng, x, y0, iters, between=None):
    """``iters`` assignment passes with a float64 mean update between
    them; returns each pass's (labels, best bits).  ``between(it)``
    wraps each pass (a context manager factory), when given."""
    import contextlib

    u = np.dtype(f"u{x.dtype.itemsize}")
    y, out = y0.copy(), []
    for it in range(iters):
        with (between(it) if between else contextlib.nullcontext()):
            labels, best = eng.assign(x, y, PerfCounters())
        out.append((labels.copy(), best.view(u).copy()))
        sums = np.zeros(y.shape)
        np.add.at(sums, labels, x.astype(np.float64))
        cnt = np.bincount(labels, minlength=len(y))
        nz = cnt > 0
        y = y.copy()
        y[nz] = (sums[nz] / cnt[nz, None]).astype(y.dtype)
    return out


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((700, 24)).astype(np.float32)
    y = rng.standard_normal((10, 24)).astype(np.float32)
    return x, y


def _build(variant, mode, m, k, *, chunk_bytes=None, p_inject=0.0, seed=0):
    cfg = KMeansConfig(n_clusters=10, variant=variant, mode=mode,
                       p_inject=p_inject, chunk_bytes=chunk_bytes)
    return build_assignment(cfg, m, k, np.random.default_rng(seed))


class TestChunkedEquivalence:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_chunked_bit_identical_to_unchunked(self, data, variant):
        """Same tile => same inner-GEMM sequence => identical bits, no
        matter how the accumulator is chunked."""
        x, y = data
        results = {}
        for label, budget in (("chunked", TINY_BUDGET), ("whole", 1 << 30)):
            kern = _build(variant, "fast", *x.shape, chunk_bytes=budget)
            res = kern.assign(x, y)
            results[label] = res
            if label == "chunked":
                assert kern.engine.stats.chunks_run > 1
        assert np.array_equal(results["chunked"].labels,
                              results["whole"].labels)
        assert np.array_equal(results["chunked"].min_sqdist,
                              results["whole"].min_sqdist)
        inertia = [float(np.sum(r.min_sqdist.astype(np.float64)))
                   for r in results.values()]
        assert inertia[0] == inertia[1]

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_chunked_matches_functional_labels(self, data, variant):
        x, y = data
        fast = _build(variant, "fast", *x.shape,
                      chunk_bytes=TINY_BUDGET).assign(x, y)
        func = _build(variant, "functional", *x.shape).assign(x, y)
        assert np.array_equal(fast.labels, func.labels)

    @pytest.mark.parametrize("variant", ["v1", "v2", "v3", "tensorop", "ft"])
    def test_chunked_injection_bit_identical(self, data, variant):
        """With a fixed injector seed the SEU replay lands on the same
        logical tile coordinates whether or not the data was chunked."""
        x, y = data
        results = {}
        for label, budget in (("chunked", TINY_BUDGET), ("whole", 1 << 30)):
            kern = _build(variant, "fast", *x.shape, chunk_bytes=budget,
                          p_inject=0.8, seed=42)
            results[label] = kern.assign(x, y)
        a, b = results["chunked"], results["whole"]
        assert a.counters.errors_injected == b.counters.errors_injected
        assert a.counters.errors_injected > 0
        assert a.counters.errors_detected == b.counters.errors_detected
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.min_sqdist, b.min_sqdist)

    @pytest.mark.parametrize("variant", ["v1", "v2", "v3", "tensorop", "ft"])
    def test_chunked_injection_matches_functional(self, data, variant):
        """Fixed seed, p_inject > 0: the chunked fast path draws the
        same fault plans as the tile-accurate simulator (identical
        injected counts) and lands on the same clustering."""
        x, y = data
        res = {}
        for mode in ("fast", "functional"):
            kern = _build(variant, mode, *x.shape,
                          chunk_bytes=TINY_BUDGET, p_inject=0.8, seed=42)
            res[mode] = kern.assign(x, y)
        fast, func = res["fast"], res["functional"]
        assert fast.counters.errors_injected > 0
        assert (fast.counters.errors_injected
                == func.counters.errors_injected)
        assert np.array_equal(fast.labels, func.labels)

    def test_offset_data_distances_nonnegative(self):
        """The GEMM norm identity cancels on offset-heavy data; the
        engine floors squared distances at zero so inertia, score and
        the worst-fit reseed ordering stay meaningful."""
        rng = np.random.default_rng(0)
        x = (1000.0 + 0.01 * rng.standard_normal((500, 8))).astype(np.float32)
        eng = FastPathEngine(None, np.float32)
        _, best = eng.assign(x, x[:4].copy(), PerfCounters())
        assert best.min() >= 0.0
        km = FTKMeans(n_clusters=4, seed=0, variant="naive",
                      max_iter=5).fit(x)
        assert km.inertia_ >= 0.0

    def test_ft_chunked_injection_corrected(self, data):
        """The FT scheme's online correction survives chunking: injected
        runs land on the clean run's clustering."""
        x, y = data
        clean = _build("ft", "fast", *x.shape,
                       chunk_bytes=TINY_BUDGET).assign(x, y)
        noisy = _build("ft", "fast", *x.shape, chunk_bytes=TINY_BUDGET,
                       p_inject=0.9, seed=5).assign(x, y)
        assert noisy.counters.errors_injected > 0
        assert np.array_equal(clean.labels, noisy.labels)

    @given(m=st.integers(40, 500), k=st.integers(2, 24),
           n=st.integers(2, 12), chunk_kb=st.sampled_from([1, 3, 16, 1024]),
           inject=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_property_chunking_invariant(self, m, k, n, chunk_kb, inject,
                                         seed):
        """Random shapes/budgets: chunked labels & inertia are
        bit-identical to the one-chunk engine run."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, k)).astype(np.float32)
        y = rng.standard_normal((n, k)).astype(np.float32)
        tile = default_tensorop_tile(np.float32)
        outs = []
        for budget in (chunk_kb << 10, 1 << 30):
            inj = (FaultInjector(seed, 0.7, np.float32) if inject else None)
            eng = FastPathEngine(None, np.float32, tile=tile, tf32=True,
                                 injector=inj, chunk_bytes=budget)
            counters = PerfCounters()
            labels, best = eng.assign(x, y, counters)
            outs.append((labels.copy(), best.copy(),
                         float(np.sum(best.astype(np.float64)))))
        (l1, b1, i1), (l2, b2, i2) = outs
        assert np.array_equal(l1, l2)
        # compare raw bit patterns: an injected flip can make a distance
        # NaN, and the invariant is bit-identity, not float equality
        assert np.array_equal(b1.view(np.uint32), b2.view(np.uint32))
        assert i1 == i2 or (np.isnan(i1) and np.isnan(i2))


class TestInjectedEpilogue:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
    def test_injected_fast_fit_warns_nothing(self, variant, dtype):
        """An exponent flip the unprotected kernels let through can make
        a chunk's tile inf; the epilogue absorbs it (argmin, floor) and
        must not surface numpy's overflow warning to the user."""
        x = np.random.default_rng(0).standard_normal((2000, 16))
        km = FTKMeans(n_clusters=6, variant=variant, seed=7, max_iter=5,
                      tol=0.0, p_inject=0.8, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            km.fit(x.astype(dtype))
        assert km.counters_.errors_injected > 0

    def test_fault_free_chunks_keep_numpy_error_handling(self):
        """The quiet epilogue is scoped to fault-planned chunks: a
        fault-free pass that overflows still warns."""
        x = np.full((300, 4), 1e30, dtype=np.float32)
        kern = _build("v1", "fast", *x.shape)
        with pytest.warns(RuntimeWarning):
            kern.assign(x, x[:10].copy())


class TestMemoryBudget:
    def test_peak_scratch_bounded_at_200k(self):
        """Acceptance shape M=200k, N(features)=64, K=64: every engine
        allocation obeys the budget; nothing O(M x N) ever appears."""
        m, feats, k = 200_000, 64, 64
        budget = 4 << 20
        rng = np.random.default_rng(0)
        x = rng.random((m, feats), dtype=np.float32)
        y = x[:k].copy()
        allocs: list[tuple[str, int]] = []
        eng = FastPathEngine(A100_PCIE_40GB, np.float32,
                             tile=default_tensorop_tile(np.float32),
                             tf32=True, chunk_bytes=budget,
                             alloc_hook=lambda name, nb: allocs.append((name, nb)))
        eng.begin_fit(x, k)
        for _ in range(3):
            eng.assign(x, y, PerfCounters())
        scratch = [nb for name, nb in allocs if name == "chunk_scratch"]
        assert scratch, "engine never allocated chunk scratch?"
        # pooled scratch: allocated once, reused across all 3 iterations
        assert sum(scratch) <= budget
        assert eng.stats.peak_scratch_bytes <= budget
        # no allocation anywhere near the M x N accumulator (51 MB here)
        full_matrix = m * k * np.dtype(np.float32).itemsize
        assert max(nb for _, nb in allocs) <= budget < full_matrix
        assert eng.stats.chunks_run > 3  # genuinely chunked, each pass

    def test_tf32_operand_staging_charged_to_budget(self):
        """Wide-feature TF32 runs: the rounding block buffer (rounded
        block + gather stage) is part of the contract, so the chunk rows
        shrink to keep the one in-flight accumulator + block under
        chunk_bytes — and the buffer the pass takes is the one charged."""
        m, feats, n = 4096, 2048, 16
        budget = 8 << 20
        rng = np.random.default_rng(2)
        x = rng.random((m, feats), dtype=np.float32)
        y = x[:n].copy()
        allocs: list[tuple[str, int]] = []
        eng = FastPathEngine(None, np.float32, tf32=True,
                             chunk_bytes=budget,
                             alloc_hook=lambda name, nb: allocs.append((name, nb)))
        eng.begin_fit(x, n)
        cache = eng._cache
        rows = max(hi - lo for lo, hi in cache.chunks)
        block_bytes = 2 * min(eng._round_block_rows(feats), rows) * feats * 4
        # the one in-flight accumulator + its rounding block
        assert rows * n * 4 + block_bytes <= budget
        eng.assign(x, y, PerfCounters())
        assert [nb for name, nb in allocs if name == "tf32_block"] == [
            block_bytes]
        assert eng.stats.peak_scratch_bytes == rows * n * 4 + block_bytes
        assert eng.stats.peak_scratch_bytes <= budget
        assert eng.stats.batched_chunks == eng.stats.chunks_run

    @pytest.mark.parametrize("m,n,k,tf32,budget", [
        (700, 10, 24, False, TINY_BUDGET),
        (5000, 1024, 8, False, 2 << 20),
        (200_000, 16, 2048, True, 8 << 20),   # TF32 operand staging
        (1000, 64, 32, False, 1),             # below one unit
    ])
    def test_chunk_rows_largest_unit_multiple_under_budget(self, m, n, k,
                                                           tf32, budget):
        """The plan partitions [0, m) into unit-aligned chunks whose
        rows are the largest unit multiple with accumulator + block
        buffer (TF32: the rounded block and its gather stage; otherwise
        the pruned lane's gather stage; each at most one chunk tall)
        under chunk_bytes (one unit when none fits)."""
        eng = FastPathEngine(None, np.float32, tf32=tf32, chunk_bytes=budget)
        stages = 2 if tf32 else 1
        unit = eng.unit_rows
        chunks = eng._plan_chunks(m, n, k)
        assert chunks[0][0] == 0 and chunks[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(lo % unit == 0 for lo, _ in chunks)
        rows = chunks[0][1] - chunks[0][0]
        assert all(hi - lo == rows for lo, hi in chunks[:-1])
        block = eng._round_block_rows(k)
        assert block % unit == 0

        def cost(r):
            return r * n * 4 + stages * min(block, r) * k * 4

        assert rows == unit or cost(rows) <= budget
        assert cost(rows + unit) > budget

    def test_unpruned_plan_charges_no_gather_stage(self):
        """Without TF32 the block buffer is only the pruned lane's
        gather stage: prune='off' charges the accumulator alone."""
        m, n, k, budget = 5000, 1024, 8, 2 << 20
        eng = FastPathEngine(None, np.float32, chunk_bytes=budget,
                             prune="off")
        rows = budget // (n * 4) // eng.unit_rows * eng.unit_rows
        assert eng._plan_chunks(m, n, k)[0] == (0, rows)
        pruned = FastPathEngine(None, np.float32, chunk_bytes=budget)
        assert pruned._plan_chunks(m, n, k)[0][1] < rows

    @pytest.mark.parametrize("dt,tf32,budget", [
        (np.float32, True, TINY_BUDGET),
        (np.float32, False, TINY_BUDGET),
        (np.float64, False, 2 * TINY_BUDGET),
        (np.float32, True, 1 << 30),          # one chunk
    ])
    def test_one_scratch_buffer_per_fit(self, data, dt, tf32, budget):
        """Chunks run one at a time: a fit allocates one scratch buffer,
        sized to its largest chunk, plus one block buffer (under TF32
        the rounding block and its gather stage; otherwise the gather
        stage, once the third pass prunes), and reuses them on every
        pass."""
        x, y = (a.astype(dt) for a in data)
        allocs: list[tuple[str, int]] = []
        eng = FastPathEngine(None, dt, tile=default_tensorop_tile(dt),
                             tf32=tf32, chunk_bytes=budget,
                             alloc_hook=lambda name, nb: allocs.append((name, nb)))
        eng.begin_fit(x, y.shape[0])
        for _ in range(3):
            eng.assign(x, y, PerfCounters())
        rows = max(hi - lo for lo, hi in eng._cache.chunks)
        scratch = [nb for name, nb in allocs if name == "chunk_scratch"]
        assert scratch == [rows * y.shape[0] * np.dtype(dt).itemsize]
        # one pooled block buffer: TF32 rounding block (+ its gather
        # stage), or the pruned lane's gather stage alone
        role = "tf32_block" if tf32 else "gather_block"
        blocks = [nb for name, nb in allocs if name == role]
        block_rows = min(eng._round_block_rows(x.shape[1]), rows)
        assert blocks == [(2 if tf32 else 1) * block_rows * x.shape[1]
                          * np.dtype(dt).itemsize]
        assert {name for name, _ in allocs} == {
            "x_norms", "labels", "best", "chunk_scratch", role,
            "bounds_state"}
        assert eng.stats.peak_scratch_bytes == scratch[0] + sum(blocks)
        eng.end_fit()
        assert eng.stats.scratch_bytes == 0


    @pytest.mark.parametrize("dt,tf32", [
        (np.float32, True), (np.float32, False), (np.float64, False)])
    def test_pruned_pass_gathers_through_pooled_block(self, dt, tf32):
        """The pruned lane packs its active rows through the pooled
        block buffer, charged by the chunk plan: past the first pruned
        pass nothing new is allocated, the peak is exactly chunk
        scratch + block buffer, and no pass allocates a gathered copy
        of its active rows (a few O(m) scalar temporaries at most —
        even an eighth of x, gathered, would be over that bound)."""
        import contextlib
        import tracemalloc

        m, feats, n = 16_384, 256, 8
        x, y0 = _converging(m, feats, n, dt)
        itemsize = np.dtype(dt).itemsize
        stages = 2 if tf32 else 1
        # the block buffer (one unit of rows) plus four chunks' worth
        budget = (stages * GEMM_UNIT_ROWS * feats + m // 4 * n) * itemsize
        allocs: list[tuple[int, str, int]] = []
        eng = FastPathEngine(None, dt, tf32=tf32, chunk_bytes=budget,
                             alloc_hook=lambda name, nb: allocs.append(
                                 (passes, name, nb)))
        passes, peaks, fracs = 0, [], []

        @contextlib.contextmanager
        def measured(it):
            nonlocal passes
            passes = it
            tracemalloc.start()
            try:
                yield
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                fracs.append(eng.stats.last_active_frac)

        eng.begin_fit(x, n)
        try:
            _lloyd_passes(eng, x, y0, 8, between=measured)
            rows = max(hi - lo for lo, hi in eng._cache.chunks)
        finally:
            eng.end_fit()
        assert len(eng._plan_chunks(m, n, feats)) == 4
        assert 0 < eng.stats.rows_pruned < (eng.stats.pruned_passes * m)
        role = "tf32_block" if tf32 else "gather_block"
        block = min(eng._round_block_rows(feats), rows)
        block_bytes = stages * block * feats * itemsize
        assert [nb for _, name, nb in allocs if name == role] == [
            block_bytes]
        assert {name for _, name, _ in allocs} == {
            "x_norms", "labels", "best", "chunk_scratch", role,
            "bounds_state"}
        first_pruned = min(i for i, f in enumerate(fracs) if f < 1.0)
        assert not [a for a in allocs if a[0] > first_pruned]
        assert eng.stats.peak_scratch_bytes == rows * n * itemsize + block_bytes
        assert eng.stats.peak_scratch_bytes <= budget
        assert max(peaks[first_pruned + 1:]) < 8 * m * 8 < x.nbytes // 8


class TestTileReserve:
    """Released chunk tiles are parked process-wide, outside the heap."""

    def _fit(self):
        x = np.random.default_rng(0).standard_normal(
            (6000, 16)).astype(np.float32)
        return x, FTKMeans(n_clusters=8, seed=0, max_iter=3).fit(x)

    def test_predict_reuses_parked_tile(self):
        x, km = self._fit()
        parked = engine_mod._TILE_RESERVE._buf
        assert parked is not None          # end_fit parked the fit's tile
        first = km.predict(x)
        assert engine_mod._TILE_RESERVE._buf is parked
        np.testing.assert_array_equal(km.predict(x), first)
        engine_mod.release_tile_reserve()   # a fresh tile: same bits
        np.testing.assert_array_equal(km.predict(x), first)

    def test_kmeanspp_fit_releases_parked_tile(self, monkeypatch):
        x, km = self._fit()
        km.predict(x)
        seen = []
        orig = engine_mod._TileReserve.take

        def take(self, rows, n, dtype):
            seen.append(self._buf)
            return orig(self, rows, n, dtype)

        monkeypatch.setattr(engine_mod._TileReserve, "take", take)
        FTKMeans(n_clusters=8, seed=0, max_iter=2).fit(x)
        # the fit's first pass found the reserve empty: k-means++ (the
        # default init) released it before its float64 copy
        assert seen[0] is None

    def test_keeps_one_tile_the_larger(self):
        res = engine_mod._TileReserve()
        f32 = np.dtype(np.float32)
        small, big = res.take(10, 4, f32), res.take(100, 4, f32)
        res.give(big)
        res.give(small)
        assert res._buf is big.base
        again = res.take(50, 4, f32)        # fits: a view of the parked one
        assert again.base is big.base and res._buf is None
        assert again.shape == (50, 4) and again.flags.writeable
        res.give(again)
        assert res.take(1000, 4, f32).base is not big.base  # too small
        assert res._buf is big.base

    def test_tile_mapping_is_private(self):
        import mmap as mmap_mod
        import os
        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        res = engine_mod._TileReserve()
        tile = res.take(256, 4, np.dtype(np.float32))
        tile[:] = 1.0
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:                        # child: write, report, exit
            tile[:] = 2.0
            os.write(w, b"x")
            os._exit(0)
        os.read(r, 1)
        os.waitpid(pid, 0)
        os.close(r)
        os.close(w)
        assert np.all(tile == 1.0)
        assert isinstance(tile.base.base.obj, mmap_mod.mmap)


class TestRowIndependence:
    """The BLAS fact the row-granular pruned lane stands on: at the
    engine's unit shape a GEMM computes each output row from that row
    alone, so packing active rows into fresh units keeps their bits;
    and the probe that guards it, whose failure widens the lane back to
    whole units."""

    @pytest.mark.parametrize("k,n", [(3, 1), (17, 5), (64, 64), (128, 33),
                                     (300, 100), (64, 256)])
    @pytest.mark.parametrize("dt,tf32", [
        (np.float32, False), (np.float32, True), (np.float64, False)])
    def test_unit_gemm_rows_independent(self, dt, tf32, k, n):
        unit = GEMM_UNIT_ROWS
        rng = np.random.default_rng(k * 1000 + n)
        a = rng.standard_normal((2 * unit, k)).astype(dt)
        y = rng.standard_normal((n, k)).astype(dt)
        if tf32:
            a, y = round_tf32(a), round_tf32(y)
        u = np.dtype(f"u{np.dtype(dt).itemsize}")
        ref = np.concatenate([a[:unit] @ y.T, a[unit:] @ y.T]).view(u)
        for idx in (rng.permutation(2 * unit)[:unit],   # across units
                    rng.integers(0, 2 * unit, unit),    # with repeats
                    np.r_[np.arange(unit - 7), [3] * 7]):  # padded
            assert np.array_equal((a[idx] @ y.T).view(u), ref[idx])
        assert gemm_rows_independent(np.dtype(dt).str, tf32, unit, k, n)

    @pytest.mark.parametrize("dt,tf32", [
        (np.float32, True), (np.float64, False)])
    def test_failed_probe_widens_to_units(self, monkeypatch, bounds_log,
                                          dt, tf32):
        """A BLAS that failed the probe: the lane computes every unit
        that holds an active row (exactly the unit-granular count) and
        stays bit-identical to prune='off'."""
        monkeypatch.setattr(engine_mod, "gemm_rows_independent",
                            lambda *args: False)
        x, y0 = _converging(4096 + 100, 16, 8, dt, shuffle=False)
        passes = []
        for prune in ("auto", "off"):
            eng = FastPathEngine(None, dt, tf32=tf32, prune=prune,
                                 chunk_bytes=32 << 10)
            eng.begin_fit(x, 8)
            try:
                passes.append(_lloyd_passes(eng, x, y0, 8))
            finally:
                eng.end_fit()
            if prune == "auto":
                pruned = eng.stats.rows_pruned
        for (la, ba), (lb, bb) in zip(*passes):
            assert np.array_equal(la, lb) and np.array_equal(ba, bb)
        rows, units = bounds_log.prunable()
        assert pruned == bounds_log.rows_pruned == units > 0
        assert rows > units


class TestFitCache:
    def test_invariants_hoisted_across_iterations(self, data):
        x, y = data
        eng = FastPathEngine(A100_PCIE_40GB, np.float32,
                             tile=default_tensorop_tile(np.float32))
        cache = eng.begin_fit(x, y.shape[0])
        l1, b1 = eng.assign(x, y, PerfCounters())
        l2, b2 = eng.assign(x, y * 1.1, PerfCounters())
        assert eng.stats.cache_hits == 2
        # same hoisted buffers handed back each pass
        assert l1 is cache.labels and l2 is cache.labels
        assert b1 is cache.best and b2 is cache.best
        assert cache.chunks is not None and cache.block_map is not None

    def test_foreign_input_uses_transient_cache(self, data):
        x, y = data
        eng = FastPathEngine(A100_PCIE_40GB, np.float32,
                             tile=default_tensorop_tile(np.float32))
        cache = eng.begin_fit(x, y.shape[0])
        other = x[:100].copy()
        labels, _ = eng.assign(other, y, PerfCounters())
        assert labels.shape == (100,)
        assert labels is not cache.labels
        assert eng.stats.cache_hits == 0
        # the fit cache is untouched and still active
        l1, _ = eng.assign(x, y, PerfCounters())
        assert l1 is cache.labels

    def test_empty_input_returns_empty(self, data):
        _, y = data
        eng = FastPathEngine(None, np.float32,
                             tile=default_tensorop_tile(np.float32))
        labels, best = eng.assign(np.empty((0, y.shape[1]), np.float32), y,
                                  PerfCounters())
        assert labels.shape == (0,) and best.shape == (0,)

    def test_begin_fit_coerces_dtype(self, data):
        """A dtype-mismatched fit array is converted once, not per pass."""
        x, y = data
        x64 = x.astype(np.float64)
        eng = FastPathEngine(None, np.float32,
                             tile=default_tensorop_tile(np.float32))
        cache = eng.begin_fit(x64, y.shape[0])
        assert cache.x.dtype == np.float32
        eng.assign(x64, y, PerfCounters())
        eng.assign(x64, y, PerfCounters())
        assert eng.stats.cache_hits == 2

    def test_end_fit_mid_pass_finishes_and_drops_scratch(self, data):
        """An abandoned shard worker can be mid-pass when its
        coordinator calls end_fit: the pass still finishes with the
        fit's bits, its scratch buffer is dropped rather than repooled,
        and the scratch accounting returns to zero."""
        x, y = data
        ref = FastPathEngine(None, np.float32, chunk_bytes=TINY_BUDGET)
        ref.begin_fit(x, y.shape[0])
        l_ref, b_ref = (a.copy() for a in ref.assign(x, y, PerfCounters()))
        eng = FastPathEngine(None, np.float32, chunk_bytes=TINY_BUDGET)
        eng.begin_fit(x, y.shape[0])

        class EndFitAfterFirstChunk:
            polls = 0

            def is_set(self):
                self.polls += 1
                if self.polls == 2:
                    eng.end_fit()
                return False

        eng.cancel_token = EndFitAfterFirstChunk()
        labels, best = eng.assign(x, y, PerfCounters())
        assert eng.cancel_token.polls == eng.stats.chunks_run > 2
        assert eng._cache is None and not eng._pool
        assert eng.stats.scratch_bytes == 0
        assert np.array_equal(labels, l_ref)
        assert np.array_equal(best, b_ref)

    def test_norms_match_seed_formula(self, data):
        x, _ = data
        eng = FastPathEngine(None, np.float32)
        cache = eng.begin_fit(x)
        np.testing.assert_array_equal(
            cache.x_norms, np.sum(x * x, axis=1, dtype=np.float32))

    def test_fitted_estimator_releases_training_data(self, data):
        """After fit the engine holds no cache: the training array is
        not pinned, and predict/score see in-place mutations instead of
        trusting stale hoisted norms."""
        x, _ = data
        x = x.copy()
        km = FTKMeans(n_clusters=6, seed=0, max_iter=8).fit(x)
        assert km._assigner.engine._cache is None
        assert not km._assigner.engine._pool
        x *= 3.0  # mutate the fitted array in place
        assert km.score(x) == pytest.approx(km.score(x.copy()))
        # transient predict/score passes must not repopulate the pool
        km.predict(x)
        assert not km._assigner.engine._pool
        assert km._assigner.engine.stats.scratch_bytes == 0


class TestRowNorms:
    """``row_norms`` writes the per-sample norms band by band: the bits
    of the whole-array ``np.sum(x * x, axis=1)``, through no x-sized
    temporary."""

    #: band bytes giving 7-row bands at 16 float32 features
    SEVEN_ROWS = 7 * 16 * 4

    @pytest.mark.parametrize("m", [1, 6, 7, 8, 14, 15, 100])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_across_band_edges(self, monkeypatch, dtype, m):
        itemsize = np.dtype(dtype).itemsize
        monkeypatch.setattr(engine_mod, "NORM_BAND_BYTES",
                            self.SEVEN_ROWS // 4 * itemsize)
        rng = np.random.default_rng(m)
        x = (rng.standard_normal((m, 16))
             * rng.uniform(1e-3, 1e3, (m, 1))).astype(dtype)
        want = np.sum(x * x, axis=1, dtype=dtype)
        got = engine_mod.row_norms(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("layout", ["fortran", "row_stride",
                                        "col_stride"])
    def test_any_layout_keeps_the_whole_array_bits(self, monkeypatch,
                                                   layout):
        monkeypatch.setattr(engine_mod, "NORM_BAND_BYTES", self.SEVEN_ROWS)
        rng = np.random.default_rng(1)
        base = rng.standard_normal((43, 32)).astype(np.float32)
        x = {"fortran": np.asfortranarray(base[:, :16]),
             "row_stride": base[::3, :16],
             "col_stride": base[:, ::2]}[layout]
        want = np.sum(x * x, axis=1, dtype=np.float32)
        assert np.array_equal(engine_mod.row_norms(x).view(np.uint32),
                              want.view(np.uint32))

    def test_begin_fit_allocates_no_x_sized_temporary(self):
        import tracemalloc

        x = np.random.default_rng(2).standard_normal(
            (40_000, 64)).astype(np.float32)
        eng = FastPathEngine(None, np.float32)
        tracemalloc.start()
        try:
            cache = eng.begin_fit(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            eng.end_fit()
        # norms + labels + best, plus one band: far below x.nbytes
        assert peak < x.nbytes // 4
        assert np.array_equal(cache.x_norms,
                              np.sum(x * x, axis=1, dtype=np.float32))


class TestBlockMap:
    def test_row_major_ids_and_extents(self):
        tile = default_tensorop_tile(np.float32)  # TB 128x64
        bmap = BlockMap.for_shape(300, 70, 40, tile)
        assert (bmap.grid_m, bmap.grid_n) == (3, 2)
        assert bmap.block_id(0, 0) == 0
        assert bmap.block_id(0, 1) == 1
        assert bmap.block_id(1, 0) == 2
        assert bmap.block_extent(2, 1) == (300 - 2 * 128, 70 - 64)

    def test_blocks_partition_across_chunks(self):
        tile = default_tensorop_tile(np.float32)
        bmap = BlockMap.for_shape(1000, 64, 32, tile)
        seen = []
        for lo, hi in ((0, 256), (256, 512), (512, 768), (768, 1000)):
            seen.extend(bmap.blocks_for_rows(lo, hi))
        assert seen == list(range(bmap.grid_m))

    def test_unit_rows_is_tile_multiple(self):
        for tb_m in (64, 128):
            tile = default_tensorop_tile(np.float32 if tb_m == 128
                                         else np.float64)
            eng = FastPathEngine(None, np.float32, tile=tile)
            assert eng.unit_rows % tile.tb.m == 0
            assert eng.unit_rows >= GEMM_UNIT_ROWS // 2
        assert FastPathEngine(None, np.float32).unit_rows == GEMM_UNIT_ROWS


class TestWiring:
    def test_unchunked_reference_agrees_on_labels(self, data):
        x, y = data
        eng = FastPathEngine(None, np.float32,
                             tile=default_tensorop_tile(np.float32),
                             tf32=True)
        l_eng, _ = eng.assign(x, y, PerfCounters())
        l_ref, _ = unchunked_assign(x, y, dtype=np.float32, tf32=True)
        assert np.array_equal(l_eng, l_ref)

    def test_estimator_chunking_invariant_end_to_end(self, data):
        x, _ = data
        fits = [FTKMeans(n_clusters=6, seed=0, max_iter=12,
                         chunk_bytes=cb).fit(x)
                for cb in (TINY_BUDGET, None)]
        for other in fits[1:]:
            assert np.array_equal(fits[0].labels_, other.labels_)
            assert fits[0].inertia_ == other.inertia_

    def test_predict_not_aliased_to_engine_buffers(self, data):
        x, _ = data
        km = FTKMeans(n_clusters=6, seed=0, max_iter=8).fit(x)
        pred = km.predict(x)
        again = km.predict(x)
        np.testing.assert_array_equal(pred, again)
        pred[:] = -1
        # neither the fitted state nor other predictions are aliased to
        # the engine's reusable buffers
        assert km.labels_.min() >= 0
        assert again.min() >= 0
        assert km.score(x) == pytest.approx(
            -float(np.sum(km._assigner.assign(
                x, km.cluster_centers_).min_sqdist.astype(np.float64))))

    def test_config_rejects_bad_engine_knobs(self):
        with pytest.raises(ValueError):
            KMeansConfig(chunk_bytes=0)


class TestSetupGmemDtype:
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_assign_buffer_in_kernel_dtype(self, dt):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 8)).astype(dt)
        y = rng.standard_normal((4, 8)).astype(dt)
        gmem = setup_gmem(x, y, PerfCounters())
        assign = gmem["assign"]
        assert assign.dtype == np.dtype(dt)
        assert np.all(np.isinf(assign[:, 0]))
        assert np.all(assign[:, 1] == -1)
