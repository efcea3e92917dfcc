"""Sharded fits: bit-identity, executors, fault directives, config."""

import numpy as np
import pytest

from repro import FTKMeans
from repro.core.update import UpdateStage
from repro.dist import WorkerFaultInjector
from repro.dist import coordinator as coordinator_mod
from repro.utils.bits import flip_bit

M, N_FEATURES, K = 1537, 12, 7  # M deliberately not a GEMM-unit multiple


@pytest.fixture(scope="module")
def x():
    rng = np.random.default_rng(0)
    return rng.random((M, N_FEATURES), dtype=np.float64).astype(np.float32)


def fit(x, **kw):
    base = dict(n_clusters=K, variant="tensorop", mode="fast", seed=3,
                max_iter=10)
    base.update(kw)
    return FTKMeans(**base).fit(x)


def assert_same_fit(a, b):
    assert np.array_equal(a.labels_, b.labels_)
    assert np.array_equal(a.cluster_centers_, b.cluster_centers_)
    assert a.inertia_ == b.inertia_
    assert a.n_iter_ == b.n_iter_
    assert a.inertia_history_ == b.inertia_history_


class TestBitIdentity:
    @pytest.mark.parametrize("n_workers", [2, 3, 5])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sharded_equals_single_worker(self, x, n_workers, executor):
        ref = fit(x)
        km = fit(x, n_workers=n_workers, executor=executor)
        assert_same_fit(km, ref)
        assert km.n_workers_ == n_workers
        assert km.dist_recoveries_ == 0

    def test_process_executor_bit_identical(self, x):
        ref = fit(x, max_iter=6)
        km = fit(x, max_iter=6, n_workers=2, executor="process")
        assert_same_fit(km, ref)

    @pytest.mark.parametrize("variant", ["v2", "ft"])
    def test_other_variants_bit_identical(self, x, variant):
        ref = fit(x, variant=variant, max_iter=5)
        km = fit(x, variant=variant, max_iter=5, n_workers=3)
        assert_same_fit(km, ref)

    def test_more_workers_than_units_clamps(self, x):
        ref = fit(x, max_iter=5)
        km = fit(x, max_iter=5, n_workers=64)   # M=1537 has few units
        assert_same_fit(km, ref)
        assert km.n_workers_ <= 64

    def test_predict_and_score_work_after_dist_fit(self, x):
        km = fit(x, n_workers=2)
        ref = fit(x)
        assert np.array_equal(km.predict(x[:100]), ref.predict(x[:100]))
        assert km.score(x) == pytest.approx(ref.score(x))


class TestWorkerFaults:
    def test_stall_is_tolerated_and_counted(self, x):
        clean = fit(x, n_workers=2)
        km = fit(x, n_workers=2,
                 worker_faults=WorkerFaultInjector.stall_at(0, 2,
                                                            stall_s=0.01))
        assert_same_fit(km, clean)
        assert km.counters_.worker_stalls == 1
        assert [e for e in km.dist_trace_ if e["kind"] == "stall"]

    def test_random_faults_respect_max_faults(self, x):
        inj = WorkerFaultInjector(rng=0, p_stall=1.0, stall_s=0.001,
                                  max_faults=2)
        km = fit(x, n_workers=2, worker_faults=inj)
        assert len(inj.fired) == 2
        assert km.counters_.worker_stalls == 2


def _flip_high_bit(sums):
    """An SEU in the merged sums: one exponent bit of one cell."""
    sums[K // 2, 1] = flip_bit(sums[K // 2, 1], 55)


class _CorruptRound3(UpdateStage):
    """The coordinator's update stage, hit by one SEU in round 3."""

    rounds = 0

    def update(self, *args, **kw):
        self.rounds += 1
        if self.rounds == 3:
            self.corrupt_hook = _flip_high_bit
        return super().update(*args, **kw)


class TestMergedSumGuard:
    """The sums a sharded fit uses are the coordinator's merged sums,
    and the update's e1/e2 checksum guard protects them on every
    executor: a corrupted round is detected and recovered onto the
    clean single-worker bits."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_corrupted_merge_is_detected_and_recovered(self, x, executor,
                                                       monkeypatch):
        single = fit(x)
        monkeypatch.setattr(coordinator_mod, "UpdateStage", _CorruptRound3)
        km = fit(x, n_workers=3, executor=executor)
        assert km.n_iter_ >= 3
        assert single.counters_.errors_detected == 0
        assert km.counters_.errors_injected == 1
        assert km.counters_.errors_detected >= 1
        assert km.counters_.dmr_mismatches == 1
        assert np.array_equal(km.cluster_centers_.view(np.uint32),
                              single.cluster_centers_.view(np.uint32))
        assert np.array_equal(km.labels_, single.labels_)


class TestConfigSurface:
    def test_rejects_functional_mode(self):
        with pytest.raises(ValueError, match="mode='fast'"):
            FTKMeans(n_clusters=4, n_workers=2, mode="functional")

    def test_rejects_batch_size_combination(self):
        with pytest.raises(ValueError, match="full-batch"):
            FTKMeans(n_clusters=4, n_workers=2, batch_size=64)

    def test_partial_fit_rejects_sharding(self, x):
        km = FTKMeans(n_clusters=4, n_workers=2)
        with pytest.raises(ValueError, match="partial_fit"):
            km.partial_fit(x[:64])

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            FTKMeans(n_clusters=4, executor="mpi")

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            FTKMeans(n_clusters=4, n_workers=0)
        with pytest.raises(ValueError):
            FTKMeans(n_clusters=4, checkpoint_every=-1)
