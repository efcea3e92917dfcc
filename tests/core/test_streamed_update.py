"""Tests for the streamed centroid update and the online estimator.

Contracts under test:

* the streamed (bincount-continuation) accumulation is bit-identical to
  the seed one-shot ``np.add.at`` pass for every feed granularity,
  dtype, and variant, chunked and fused;
* fast and functional fits agree bit-for-bit on centroids and labels
  for every variant and dtype, with and without SEU injection;
* ``partial_fit`` converges on synthetic blobs, is deterministic under
  a fixed seed, re-seeds empty clusters deterministically, and routes
  fault injection / ABFT through every variant per batch;
* ``batch_size`` switches ``fit`` to mini-batch K-means with the same
  guarantees.
"""

import numpy as np
import pytest

from repro.abft.schemes import get_scheme
from repro.core.accumulate import (
    StreamedAccumulator,
    accumulate_checked,
    accumulate_oneshot,
    accumulate_streamed,
)
from repro.core.api import FTKMeans
from repro.core.config import KMeansConfig, VARIANT_NAMES
from repro.core.convergence import EwaInertiaMonitor
from repro.core.engine import FastPathEngine
from repro.core.tensorop import default_tensorop_tile
from repro.core.update import UpdateStage
from repro.core.variants import build_assignment
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import A100_PCIE_40GB
from repro.gpusim.faults import FaultInjector

#: forces several engine chunks at the shapes below (unit = 256 rows)
TINY_BUDGET = 256 * 10 * 4


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((700, 24)).astype(np.float32)
    y = rng.standard_normal((10, 24)).astype(np.float32)
    return x, y


class TestAccumulatorBitExact:
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_streamed_matches_oneshot_any_feed_size(self, dt):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1111, 17)).astype(dt)
        labels = rng.integers(0, 7, 1111)
        ref = accumulate_oneshot(x, labels, 7)
        for feed_rows in (1, 13, 256, 1111, 99999):
            got = accumulate_streamed(x, labels, 7, feed_rows=feed_rows)
            assert np.array_equal(ref, got), feed_rows

    def test_incremental_feeds_continue_exactly(self):
        """Feeding two streams back-to-back equals one concatenated
        pass — the property partial_fit's running counts rely on."""
        rng = np.random.default_rng(4)
        xa = rng.standard_normal((301, 8)).astype(np.float32)
        xb = rng.standard_normal((417, 8)).astype(np.float32)
        la = rng.integers(0, 5, 301)
        lb = rng.integers(0, 5, 417)
        acc = StreamedAccumulator(5, 8)
        acc.feed(xa, la)
        acc.feed(xb, lb)
        ref = accumulate_oneshot(np.concatenate([xa, xb]),
                                 np.concatenate([la, lb]), 5)
        assert np.array_equal(acc.packed(), ref)

    def test_oversized_feed_subchunks_invisibly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40_000, 6)).astype(np.float32)
        labels = rng.integers(0, 4, 40_000)
        acc = StreamedAccumulator(4, 6)
        acc.feed(x, labels)  # > FEED_ROWS: split internally
        assert np.array_equal(acc.packed(), accumulate_oneshot(x, labels, 4))

    def test_reset_clears_state(self):
        acc = StreamedAccumulator(3, 2)
        acc.feed(np.ones((5, 2), np.float32), np.zeros(5, np.int64))
        acc.reset()
        assert acc.samples_seen == 0
        assert np.all(acc.packed() == 0)

    def test_empty_feed_is_noop(self):
        acc = StreamedAccumulator(3, 2)
        acc.feed(np.empty((0, 2), np.float32), np.empty(0, np.int64))
        assert acc.samples_seen == 0

    def test_counts_and_sums_views(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 3)).astype(np.float64)
        labels = rng.integers(0, 4, 50)
        acc = StreamedAccumulator(4, 3)
        acc.feed(x, labels)
        np.testing.assert_array_equal(
            acc.counts, np.bincount(labels, minlength=4).astype(np.float64))
        assert acc.sums.shape == (4, 3)


class TestFusedEngineAccumulation:
    def test_fused_equals_oneshot_chunked(self, data):
        x, y = data
        eng = FastPathEngine(None, np.float32,
                             tile=default_tensorop_tile(np.float32),
                             tf32=True, chunk_bytes=TINY_BUDGET)
        acc = StreamedAccumulator(y.shape[0], x.shape[1])
        labels, _ = eng.assign(x, y, PerfCounters(), accumulator=acc)
        assert eng.stats.update_chunks_fed > 1  # genuinely fused per chunk
        assert np.array_equal(acc.packed(),
                              accumulate_oneshot(x, labels, y.shape[0]))

    @pytest.mark.parametrize("prune", ["off", "auto"])
    @pytest.mark.parametrize("inject", [False, True])
    def test_feeds_arrive_in_chunk_order(self, prune, inject):
        """The accumulator's contract is global sample order: every pass
        feeds each planned chunk exactly once, in order, with its final
        labels — pruned and fault-planned chunks included."""
        rng = np.random.default_rng(12)
        centres = 8.0 * rng.standard_normal((10, 24))
        x = (centres[rng.integers(0, 10, 1500)]
             + rng.standard_normal((1500, 24))).astype(np.float32)
        y = (centres + 0.5).astype(np.float32)
        inj = FaultInjector(7, 0.1, np.float32) if inject else None
        eng = FastPathEngine(None, np.float32,
                             tile=default_tensorop_tile(np.float32),
                             tf32=True, injector=inj,
                             scheme=get_scheme("ftkmeans"),
                             chunk_bytes=TINY_BUDGET, prune=prune)

        class Recorder(StreamedAccumulator):
            def __init__(self, *args):
                super().__init__(*args)
                self.fed = []

            def feed(self, x_chunk, labels_chunk):
                self.fed.append((x_chunk, labels_chunk.copy()))
                super().feed(x_chunk, labels_chunk)

        counters = PerfCounters()
        eng.begin_fit(x, y.shape[0])
        try:
            for _ in range(5):
                acc = Recorder(y.shape[0], x.shape[1])
                labels, _ = eng.assign(x, y, counters, accumulator=acc)
                assert ([len(xc) for xc, _ in acc.fed]
                        == [hi - lo for lo, hi in eng._cache.chunks])
                assert np.array_equal(
                    np.concatenate([xc for xc, _ in acc.fed]), x)
                assert np.array_equal(
                    np.concatenate([lc for _, lc in acc.fed]), labels)
                nz = acc.counts > 0
                y = y.copy()
                y[nz] = (acc.sums[nz] / acc.counts[nz, None]).astype(y.dtype)
            assert (eng.stats.rows_pruned > 0) == (prune != "off")
            assert (counters.errors_injected > 0) == inject
        finally:
            eng.end_fit()

    def test_alloc_hook_sees_every_accumulator_allocation(self, data):
        """The engine attaches its tracker at the first fused assign;
        allocations predating the attachment (the sums from __init__)
        are replayed so accounting never undercounts."""
        x, y = data
        allocs: list[tuple[str, int]] = []
        eng = FastPathEngine(None, np.float32,
                             tile=default_tensorop_tile(np.float32),
                             tf32=True, chunk_bytes=TINY_BUDGET,
                             alloc_hook=lambda n, b: allocs.append((n, b)))
        acc = StreamedAccumulator(y.shape[0], x.shape[1])
        eng.assign(x, y, PerfCounters(), accumulator=acc)
        names = {n for n, _ in allocs}
        assert "accumulator_sums" in names
        assert "accumulator_staging" in names
        sums_bytes = sum(b for n, b in allocs if n == "accumulator_sums")
        assert sums_bytes >= acc.sums.nbytes

    def test_staging_bounded_for_wide_features(self):
        """Sub-feed rows scale down with the feature count so the
        float64 transpose staging stays under STAGING_BYTES."""
        from repro.core.accumulate import MIN_FEED_ROWS, STAGING_BYTES

        acc = StreamedAccumulator(4, 2048)
        assert (acc.feed_rows == MIN_FEED_ROWS
                or acc.feed_rows * 2048 * 8 <= STAGING_BYTES)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3000, 2048)).astype(np.float32)
        labels = rng.integers(0, 4, 3000)
        acc.feed(x, labels)
        assert np.array_equal(acc.packed(), accumulate_oneshot(x, labels, 4))

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_variant_assign_feeds_accumulator(self, data, variant):
        """Every variant's assign() routes the accumulator through, in
        both execution modes, and the sums bit-match one-shot."""
        x, y = data
        for mode in ("fast", "functional"):
            cfg = KMeansConfig(n_clusters=10, variant=variant, mode=mode,
                               chunk_bytes=TINY_BUDGET)
            kern = build_assignment(cfg, *x.shape, np.random.default_rng(0))
            acc = StreamedAccumulator(10, x.shape[1])
            res = kern.assign(x, y, accumulator=acc)
            assert np.array_equal(
                acc.packed(), accumulate_oneshot(x, res.labels, 10)), mode


def _assert_modes_agree(fits):
    """Fast and functional fits give bit-equal centroids and labels.
    Inertia is not compared: the two modes associate the distance
    epilogue differently, so min distances may differ in the last bits
    even where every label agrees."""
    a, b = fits["fast"], fits["functional"]
    assert a.counters_.errors_injected == b.counters_.errors_injected
    assert np.array_equal(a.cluster_centers_, b.cluster_centers_)
    assert np.array_equal(a.labels_, b.labels_)


class TestFastEqualsFunctional:
    """The fast engine and the tile-accurate functional kernels are two
    executions of one fit: the same labels feed the same streamed
    update sums, so the trajectories agree bit-for-bit.  ``tol=0``
    keeps the iteration count independent of the inertia bits."""

    @pytest.mark.parametrize("variant,dt,p_inject", [
        pytest.param(v, dt, p, id=f"{v}-{dt.__name__}-{p}")
        for p in (0.0, 0.8) for dt in (np.float32, np.float64)
        for v in VARIANT_NAMES
        # the naive kernel rejects injection (test_naive_rejects_injection)
        if not (p and v == "naive")])
    def test_fit(self, data, variant, dt, p_inject):
        """Injected v1-v3 fits cover the min-distance floor: a flip can
        drive an unprotected functional kernel's min distance to -inf,
        and the functional pass floors it at 0 as the engine does (a
        non-finite inertia would abort the fit)."""
        x, _ = data
        fits = {mode: FTKMeans(n_clusters=6, seed=7, variant=variant,
                               dtype=dt, mode=mode, max_iter=5, tol=0.0,
                               p_inject=p_inject,
                               chunk_bytes=TINY_BUDGET).fit(x)
                for mode in ("fast", "functional")}
        _assert_modes_agree(fits)
        if p_inject:
            assert fits["fast"].counters_.errors_injected > 0

    @pytest.mark.parametrize("mode", ["fast", "functional"])
    def test_naive_rejects_injection(self, mode):
        """The naive kernel has no threadblocks to inject into; asking
        it to inject must fail loudly, not measure a clean run."""
        with pytest.raises(ValueError, match="naive"):
            KMeansConfig(n_clusters=6, variant="naive", mode=mode,
                         p_inject=0.8)
        with pytest.raises(ValueError, match="naive"):
            FTKMeans(n_clusters=6, variant="naive", mode=mode, p_inject=0.8)
        KMeansConfig(n_clusters=6, variant="naive", mode=mode, p_inject=0.0)

    def test_weighted_fit(self, data):
        x, _ = data
        w = np.random.default_rng(1).uniform(0.0, 3.0, x.shape[0])
        fits = {mode: FTKMeans(n_clusters=6, seed=0, mode=mode,
                               max_iter=6, tol=0.0).fit(x, sample_weight=w)
                for mode in ("fast", "functional")}
        _assert_modes_agree(fits)

    def test_minibatch_fit(self, data):
        x, _ = data
        fits = {mode: FTKMeans(n_clusters=6, seed=2, mode=mode, tol=0.0,
                               batch_size=128, max_iter=3).fit(x)
                for mode in ("fast", "functional")}
        _assert_modes_agree(fits)

    def test_partial_fit_stream(self, data):
        x, _ = data
        fits = {}
        for mode in ("fast", "functional"):
            km = FTKMeans(n_clusters=6, seed=3, variant="ft", mode=mode,
                          p_inject=0.5, tol=0.0)
            for lo in range(0, x.shape[0], 175):
                km.partial_fit(x[lo:lo + 175])
            fits[mode] = km
        _assert_modes_agree(fits)


class TestUpdateStageFused:
    def test_dmr_duplicate_verifies_fused_sums(self, data):
        """The fused pass's sums verify against its own checksums: one
        check, no re-accumulation, the one-shot update's bits."""
        x, y = data
        labels = np.random.default_rng(0).integers(0, 10, x.shape[0])
        c = PerfCounters()
        stage = UpdateStage(A100_PCIE_40GB, np.float32, dmr=True)
        fused = accumulate_checked(x, labels, 10)
        res = stage.update(x, labels, np.zeros(x.shape[0]), y, c, *fused)
        assert c.dmr_checks == 1 and c.dmr_mismatches == 0
        ref = UpdateStage(A100_PCIE_40GB, np.float32, dmr=False).update(
            x, labels, np.zeros(x.shape[0]), y, PerfCounters(),
            accumulate_oneshot(x, labels, 10), fused[1])
        assert np.array_equal(res.centroids, ref.centroids)

    def test_dmr_detects_corrupted_fused_replica(self, data):
        """An SEU in the fused sums is caught by the checksums and
        recovered by one fresh re-accumulation — DMR's detect/recompute
        semantics."""
        x, y = data
        labels = np.random.default_rng(0).integers(0, 10, x.shape[0])
        c = PerfCounters()

        def corrupt(arr):
            arr.reshape(-1)[3] += 1e6

        stage = UpdateStage(A100_PCIE_40GB, np.float32, dmr=True,
                            corrupt_hook=corrupt)
        fused = accumulate_checked(x, labels, 10)
        res = stage.update(x, labels, np.zeros(x.shape[0]), y, c, *fused)
        assert c.dmr_mismatches == 1 and c.errors_detected == 1
        ref = UpdateStage(A100_PCIE_40GB, np.float32, dmr=False).update(
            x, labels, np.zeros(x.shape[0]), y, PerfCounters(),
            accumulate_oneshot(x, labels, 10), fused[1])
        assert np.array_equal(res.centroids, ref.centroids)


class TestPartialFit:
    def _blob_batches(self, n_batches, batch, seed=0):
        from repro.data.synthetic import gaussian_blobs

        x, _, _ = gaussian_blobs(n_batches * batch, 16, 5, np.float32,
                                 seed=seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(x.shape[0])
        return [x[perm[i * batch:(i + 1) * batch]]
                for i in range(n_batches)]

    def test_converges_on_blobs(self):
        from repro.core.initializers import initialize

        batches = self._blob_batches(40, 150)
        full_x = np.concatenate(batches)
        # shared starting centroids: the comparison below then measures
        # the online mechanism, not k-means++ draw luck (these blobs
        # have well-separated local minima)
        init = initialize(full_x, 5, "k-means++", np.random.default_rng(0))
        km = FTKMeans(n_clusters=5, seed=0, tol=1e-3, init_centroids=init)
        for b in batches:
            km.partial_fit(b)
            if km.converged_:
                break
        assert km.converged_
        # the online model clusters the stream about as well as a
        # full-batch fit from the same init (inertia within a modest
        # factor)
        full = FTKMeans(n_clusters=5, seed=0, init_centroids=init).fit(full_x)
        assert -km.score(full_x) < 1.5 * full.inertia_

    def test_deterministic_under_fixed_seed(self):
        batches = self._blob_batches(10, 120)
        runs = []
        for _ in range(2):
            km = FTKMeans(n_clusters=5, seed=3)
            for b in batches:
                km.partial_fit(b)
            runs.append(km)
        assert np.array_equal(runs[0].cluster_centers_,
                              runs[1].cluster_centers_)
        assert np.array_equal(runs[0].labels_, runs[1].labels_)
        assert runs[0].inertia_ == runs[1].inertia_

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_all_variants_both_modes(self, variant):
        batches = self._blob_batches(3, 100)
        for mode in ("fast", "functional"):
            km = FTKMeans(n_clusters=4, seed=0, variant=variant, mode=mode)
            for b in batches:
                km.partial_fit(b)
            assert km.n_batches_seen_ == 3
            assert km.cluster_centers_.shape == (4, 16)
            assert np.isfinite(km.inertia_)

    def test_injection_routed_per_batch(self):
        """Fault injection + ABFT apply to every mini-batch, and the
        corrected stream matches the clean one."""
        batches = self._blob_batches(6, 120)
        noisy = FTKMeans(n_clusters=4, seed=0, variant="ft", p_inject=0.7)
        clean = FTKMeans(n_clusters=4, seed=0, variant="ft")
        for b in batches:
            noisy.partial_fit(b)
            clean.partial_fit(b)
        assert noisy.counters_.errors_injected > 0
        assert np.array_equal(noisy.labels_, clean.labels_)
        assert np.array_equal(noisy.cluster_centers_, clean.cluster_centers_)

    def test_empty_cluster_reassigned_deterministically(self):
        """A cluster that never receives a sample is re-seeded from the
        batch's worst-fit points, identically across runs."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal((60, 4)).astype(np.float32)
        far = np.full((4, 4), 40.0, np.float32)  # unreachable centroid
        init = np.vstack([base[:3], far[:1]]).astype(np.float32)
        batch = base  # nothing near `far`: cluster 3 stays empty
        runs = []
        for _ in range(2):
            km = FTKMeans(n_clusters=4, seed=1, init_centroids=init.copy())
            km.partial_fit(batch)
            runs.append(km.cluster_centers_.copy())
            assert km.cluster_counts_[3] >= 1  # re-seeded, not dead
        assert np.array_equal(runs[0], runs[1])
        # the re-seed donor is the batch's worst-fit sample
        d = ((batch[:, None, :].astype(np.float64)
              - init[None, :3, :].astype(np.float64)) ** 2).sum(-1)
        worst = int(np.argmax(d.min(axis=1)))
        np.testing.assert_array_equal(runs[0][3], batch[worst])

    def test_first_batch_too_small_raises(self):
        km = FTKMeans(n_clusters=10, seed=0)
        with pytest.raises(ValueError, match="n_clusters"):
            km.partial_fit(np.ones((4, 3), np.float32))

    def test_feature_mismatch_raises(self):
        km = FTKMeans(n_clusters=2, seed=0)
        km.partial_fit(np.random.default_rng(0)
                       .standard_normal((20, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="features"):
            km.partial_fit(np.ones((20, 3), np.float32))

    def test_warm_start_from_fitted_model(self, data):
        """partial_fit after fit continues from the fitted centroids."""
        x, _ = data
        km = FTKMeans(n_clusters=6, seed=0, max_iter=8).fit(x)
        centers = km.cluster_centers_.copy()
        counts = km.cluster_counts_.copy()
        km.partial_fit(x[:100])
        assert km.n_batches_seen_ == 1
        # decayed update: fitted counts damp the batch's pull
        assert not np.array_equal(km.cluster_centers_, centers)
        assert np.all(km.cluster_counts_ >= counts)

    def test_predict_and_score_work_after_partial_fit(self):
        batches = self._blob_batches(3, 100)
        km = FTKMeans(n_clusters=4, seed=0)
        for b in batches:
            km.partial_fit(b)
        pred = km.predict(batches[0])
        assert pred.shape == (100,)
        assert np.isfinite(km.score(batches[0]))

    def test_inertia_history_units_match_inertia(self):
        """Online history stores absolute batch inertias (same units as
        ``inertia_``); the per-sample smoothed view is ewa_inertia_."""
        batches = self._blob_batches(4, 100)
        km = FTKMeans(n_clusters=4, seed=0)
        for b in batches:
            km.partial_fit(b)
        assert km.inertia_history_[-1] == km.inertia_
        assert len(km.inertia_history_) == 4
        assert km.ewa_inertia_ < km.inertia_  # per-sample vs absolute

    def test_full_fit_clears_stale_online_attributes(self):
        """fit() after a partial_fit stream must not leave the dead
        stream's converged_/n_batches_seen_/ewa_inertia_ readable."""
        batches = self._blob_batches(3, 100)
        km = FTKMeans(n_clusters=4, seed=0, max_iter=5)
        for b in batches:
            km.partial_fit(b)
        km.fit(np.concatenate(batches))
        for attr in ("converged_", "n_batches_seen_", "ewa_inertia_"):
            assert not hasattr(km, attr), attr

    def test_accumulator_pooled_across_batches(self):
        """The online step reuses one accumulator (reset per batch)
        instead of reallocating sums/staging every call."""
        batches = self._blob_batches(3, 100)
        km = FTKMeans(n_clusters=4, seed=0)
        km.partial_fit(batches[0])
        acc = km._online_state["accumulator"]
        assert acc is not None
        km.partial_fit(batches[1])
        assert km._online_state["accumulator"] is acc
        assert acc.samples_seen == 100  # reset per batch, then one feed

    def test_distance_gflops_uses_streamed_sample_total(self):
        """The paper metric sums per-batch work, not last-batch-size x
        batch count."""
        from repro.gemm.shapes import distance_flops

        batches = self._blob_batches(4, 100)
        km = FTKMeans(n_clusters=4, seed=0)
        for b in batches:
            km.partial_fit(b)
        km.partial_fit(batches[0][:10])  # tiny final batch
        expect = distance_flops(410, 4, 16) / km.assignment_time_s_ / 1e9
        assert km.distance_gflops_() == pytest.approx(expect)


class TestMinibatchFit:
    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            KMeansConfig(batch_size=0)

    def test_fit_with_batch_size(self, data):
        x, _ = data
        km = FTKMeans(n_clusters=6, seed=0, batch_size=128,
                      max_iter=15).fit(x)
        assert km.labels_.shape == (x.shape[0],)
        assert km.n_batches_seen_ >= 1
        assert km.n_iter_ >= 1
        # quality sanity: within a modest factor of full-batch Lloyd
        full = FTKMeans(n_clusters=6, seed=0).fit(x)
        assert km.inertia_ < 2.0 * full.inertia_

    def test_deterministic(self, data):
        x, _ = data
        a = FTKMeans(n_clusters=6, seed=2, batch_size=100, max_iter=6).fit(x)
        b = FTKMeans(n_clusters=6, seed=2, batch_size=100, max_iter=6).fit(x)
        assert np.array_equal(a.cluster_centers_, b.cluster_centers_)
        assert a.inertia_ == b.inertia_

    def test_full_fit_resets_online_state(self, data):
        """fit() after partial_fit starts fresh (sklearn semantics)."""
        x, _ = data
        km = FTKMeans(n_clusters=6, seed=0, max_iter=8)
        km.partial_fit(x[:100])
        km.fit(x)
        ref = FTKMeans(n_clusters=6, seed=0, max_iter=8).fit(x)
        assert np.array_equal(km.cluster_centers_, ref.cluster_centers_)


class TestEwaMonitor:
    def test_needs_patience_consecutive_stalls(self):
        mon = EwaInertiaMonitor(tol=1e-3, alpha=0.5, patience=2)
        assert not mon.update(100.0, 10)   # first batch: baseline
        assert not mon.update(100.0, 10)   # stall 1
        assert mon.update(100.0, 10)       # stall 2 -> converged

    def test_improvement_resets_patience(self):
        mon = EwaInertiaMonitor(tol=1e-3, alpha=1.0, patience=2)
        assert not mon.update(100.0, 10)
        assert not mon.update(100.0, 10)   # stall 1
        assert not mon.update(50.0, 10)    # big improvement: reset
        assert not mon.update(50.0, 10)    # stall 1 again
        assert mon.update(50.0, 10)        # stall 2

    def test_normalises_by_batch_size(self):
        mon = EwaInertiaMonitor(tol=0.0, alpha=1.0, patience=1)
        mon.update(100.0, 10)
        assert mon.ewa == pytest.approx(10.0)
        mon.update(300.0, 30)  # same per-sample inertia
        assert mon.ewa == pytest.approx(10.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            EwaInertiaMonitor(tol=1e-3, alpha=0.0)
        with pytest.raises(ValueError):
            EwaInertiaMonitor(tol=1e-3, patience=0)
        mon = EwaInertiaMonitor(tol=1e-3)
        with pytest.raises(ValueError):
            mon.update(float("inf"), 10)
        with pytest.raises(ValueError):
            mon.update(1.0, 0)
