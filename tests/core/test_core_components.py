"""Tests for config, initializers, validation, convergence and update."""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import KMeansConfig
from repro.core.convergence import ConvergenceMonitor
from repro.core.initializers import init_kmeans_plusplus, init_random, initialize
from repro.core.accumulate import accumulate_oneshot
from repro.core.update import UpdateStage
from repro.core.validation import validate_centroids, validate_data
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import A100_PCIE_40GB


class TestConfig:
    def test_defaults(self):
        cfg = KMeansConfig()
        assert cfg.variant == "tensorop"
        assert cfg.dtype == np.float32
        assert cfg.device.name.startswith("NVIDIA A100")
        assert cfg.abft.name == "none"

    def test_ft_variant_implies_scheme(self):
        cfg = KMeansConfig(variant="ft")
        assert cfg.abft.name == "ftkmeans"

    def test_explicit_scheme(self):
        cfg = KMeansConfig(variant="ft", abft="wu")
        assert cfg.abft.name == "wu"

    @pytest.mark.parametrize("bad", [
        dict(n_clusters=0), dict(variant="v9"), dict(mode="gpu"),
        dict(dtype=np.int32), dict(p_inject=2.0), dict(max_iter=0),
        dict(tol=-1.0), dict(init="foo"),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            KMeansConfig(**bad)


class TestInitializers:
    def test_random_picks_distinct_rows(self, rng):
        x = np.arange(40.0).reshape(10, 4)
        y = init_random(x, 5, rng)
        assert y.shape == (5, 4)
        assert len({tuple(row) for row in y}) == 5

    def test_kmeanspp_spreads_centroids(self, rng):
        # two far-apart blobs: k-means++ must pick one centroid in each
        x = np.vstack([np.zeros((50, 2)), np.full((50, 2), 100.0)])
        hits = 0
        for seed in range(10):
            y = init_kmeans_plusplus(x, 2, np.random.default_rng(seed))
            if {y[0, 0] < 50, y[1, 0] < 50} == {True, False}:
                hits += 1
        assert hits == 10

    def test_kmeanspp_duplicate_points(self, rng):
        x = np.ones((20, 3))
        y = init_kmeans_plusplus(x, 3, rng)
        assert y.shape == (3, 3)

    def test_kmeanspp_spreads_centroids_under_offset(self):
        # a large common offset makes the expanded form's xx and 2x·c
        # nearly cancel: the spread must survive the cancellation
        x = np.vstack([np.zeros((50, 2)), np.full((50, 2), 100.0)]) + 1e4
        for seed in range(10):
            y = init_kmeans_plusplus(x, 2, np.random.default_rng(seed))
            assert {y[0, 0] < 1e4 + 50, y[1, 0] < 1e4 + 50} == {True, False}

    def test_too_many_clusters(self, rng):
        with pytest.raises(ValueError):
            init_random(np.ones((3, 2)), 4, rng)

    def test_dispatch(self, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        assert initialize(x, 3, "random", rng).shape == (3, 4)
        assert initialize(x, 3, "k-means++", rng).shape == (3, 4)
        with pytest.raises(ValueError):
            initialize(x, 3, "magic", rng)


def _kmeanspp_direct(x, n_clusters, rng):
    """Test oracle: k-means++ in direct form, one (M, N) float64
    temporary per centre, sampling through ``Generator.choice``."""
    m = x.shape[0]
    x64 = x.astype(np.float64)
    centers = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    centers[0] = x64[int(rng.integers(m))]
    d2 = np.sum((x64 - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = x64[idx]
        np.minimum(d2, np.sum((x64 - centers[i]) ** 2, axis=1), out=d2)
    return centers.astype(x.dtype)


def _assert_matches_direct(x, n_clusters, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    y = init_kmeans_plusplus(x, n_clusters, rng)
    ref = _kmeanspp_direct(x, n_clusters, ref_rng)
    assert y.dtype == ref.dtype == x.dtype
    assert np.array_equal(y, ref)
    # same draws consumed: the generator handed on is in the same state
    assert rng.random() == ref_rng.random()
    return y


class TestKmeansPlusPlusGemmForm:
    """The mat-vec k-means++ against the direct-form oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,n,k", [(20_000, 16, 32), (5_000, 64, 64)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_matches_direct_form(self, dtype, m, n, k, seed):
        x = np.random.default_rng(100 + seed).standard_normal((m, n))
        _assert_matches_direct(x.astype(dtype), k, seed)

    def test_selection_matches_direct_form_on_blobs(self):
        rng = np.random.default_rng(7)
        centres = 20.0 * rng.standard_normal((12, 8))
        x = (centres[rng.integers(12, size=3000)]
             + rng.standard_normal((3000, 8))).astype(np.float32)
        for seed in range(3):
            _assert_matches_direct(x, 24, seed)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e7])
    def test_every_row_once_when_k_equals_m(self, offset):
        # the chosen row must carry exactly zero mass: any residue from
        # the expanded form (large under an offset) would let a row be
        # drawn twice
        x = np.random.default_rng(3).standard_normal((64, 5)) + offset
        for seed in range(5):
            y = init_kmeans_plusplus(x, 64, np.random.default_rng(seed))
            assert sorted(map(tuple, y)) == sorted(map(tuple, x))

    @pytest.mark.parametrize("n", [3, 5, 16, 64])
    def test_all_duplicates_take_uniform_fallback(self, n):
        # a non-representable row repeated: the expanded form's rounding
        # leaves residues here, which must not count as mass
        gen = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            x = np.tile(scale * gen.standard_normal(n), (97, 1))
            rng = np.random.default_rng(0)
            y = init_kmeans_plusplus(x, 6, rng)
            assert np.array_equal(y, x[:6])
            # the first draw and every fallback draw use rng.integers(m)
            ref = np.random.default_rng(0)
            for _ in range(6):
                ref.integers(97)
            assert rng.random() == ref.random()

    def test_duplicates_exhaust_into_fallback(self):
        # 5 distinct points, 40 copies each; K > 5 drains the mass
        pts = np.random.default_rng(4).standard_normal((5, 7)) * 30.0
        x = np.repeat(pts, 40, axis=0).astype(np.float32)
        for seed in range(4):
            y = _assert_matches_direct(x, 9, seed)
            assert len({tuple(r) for r in y[:5]}) == 5

    def test_matches_direct_form_under_offset(self):
        x = np.random.default_rng(5).standard_normal((4000, 16)) + 1e4
        for seed in range(3):
            _assert_matches_direct(x, 16, seed)

    def test_peak_memory_is_one_float64_copy(self):
        # no per-draw (M, N) temporary: beyond the float64 copy only a
        # few M-length vectors are live (the direct form peaks near 2x)
        x = np.random.default_rng(6).standard_normal((50_000, 32))
        x32 = x.astype(np.float32)
        tracemalloc.start()
        try:
            init_kmeans_plusplus(x32, 16, np.random.default_rng(0))
            _, peak32 = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            init_kmeans_plusplus(x, 16, np.random.default_rng(0))
            _, peak64 = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak32 <= 1.5 * x.nbytes
        # float64 input is used in place, not copied
        assert peak64 <= 0.5 * x.nbytes


class TestValidation:
    def test_validate_data_casts(self):
        x = validate_data([[1, 2], [3, 4]], np.float32)
        assert x.dtype == np.float32 and x.flags["C_CONTIGUOUS"]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            validate_data(np.array([[np.nan, 1.0]]), np.float32)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            validate_data(np.ones(4), np.float32)

    def test_centroid_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            validate_centroids(np.ones((3, 3)), 4, 3, np.float32)


class TestConvergence:
    def test_stops_on_small_improvement(self):
        mon = ConvergenceMonitor(tol=1e-3)
        assert not mon.update(100.0, 1.0)
        assert not mon.update(50.0, 1.0)
        assert mon.update(49.99, 1.0)   # 0.02% < 0.1%

    def test_stops_on_zero_shift(self):
        mon = ConvergenceMonitor(tol=0.0)
        assert mon.update(10.0, 0.0)

    def test_rejects_nonfinite(self):
        mon = ConvergenceMonitor(tol=1e-4)
        with pytest.raises(ValueError):
            mon.update(float("nan"), 1.0)

    def test_history_recorded(self):
        mon = ConvergenceMonitor(tol=0.0)
        mon.update(3.0, 1.0)
        mon.update(2.0, 1.0)
        assert mon.history == [3.0, 2.0]
        assert mon.n_iterations == 2


class TestUpdateStage:
    def test_means_match_reference(self, rng, dtype):
        x = rng.standard_normal((100, 6)).astype(dtype)
        labels = rng.integers(0, 4, 100)
        old = rng.standard_normal((4, 6)).astype(dtype)
        stage = UpdateStage(A100_PCIE_40GB, dtype, dmr=False)
        res = stage.update(x, labels, np.zeros(100), old, PerfCounters(),
                           accumulate_oneshot(x, labels, 4))
        for c in range(4):
            np.testing.assert_allclose(
                res.centroids[c], x[labels == c].mean(axis=0),
                rtol=1e-5 if dtype == np.float32 else 1e-12)
        np.testing.assert_array_equal(res.counts,
                                      np.bincount(labels, minlength=4))

    def test_empty_cluster_reseeded(self, rng, dtype):
        x = rng.standard_normal((50, 4)).astype(dtype)
        labels = np.zeros(50, dtype=np.int64)  # everything in cluster 0
        best = rng.random(50)
        old = rng.standard_normal((3, 4)).astype(dtype)
        stage = UpdateStage(A100_PCIE_40GB, dtype, dmr=False)
        res = stage.update(x, labels, best, old, PerfCounters(),
                           accumulate_oneshot(x, labels, 3))
        worst = np.argsort(best)[::-1][:2]
        # clusters 1, 2 re-seeded from the worst-fit samples
        got = {tuple(np.round(res.centroids[c], 5)) for c in (1, 2)}
        want = {tuple(np.round(x[i].astype(dtype), 5)) for i in worst}
        assert got == want

    def test_dmr_detects_injected_seu(self, rng, dtype):
        x = rng.standard_normal((60, 4)).astype(dtype)
        labels = rng.integers(0, 3, 60)
        old = np.zeros((3, 4), dtype)
        c = PerfCounters()

        def corrupt(arr):
            arr.reshape(-1)[7] += 1e6

        stage = UpdateStage(A100_PCIE_40GB, dtype, dmr=True,
                            corrupt_hook=corrupt)
        res = stage.update(x, labels, np.zeros(60), old, c,
                           accumulate_oneshot(x, labels, 3))
        assert c.dmr_mismatches == 1
        assert c.errors_detected == 1
        # the recomputed result is clean
        for k in range(3):
            np.testing.assert_allclose(res.centroids[k],
                                       x[labels == k].mean(axis=0), rtol=1e-4)

    def test_shift_measured(self, rng):
        x = rng.standard_normal((40, 3)).astype(np.float32)
        labels = rng.integers(0, 2, 40)
        old = np.zeros((2, 3), np.float32)
        stage = UpdateStage(A100_PCIE_40GB, np.float32, dmr=False)
        res = stage.update(x, labels, np.zeros(40), old, PerfCounters(),
                           accumulate_oneshot(x, labels, 2))
        assert res.shift > 0
