"""The fleet's BLAS thread budget: concurrent workers run at
``cores // W`` threads, the caller's count is back after the fit, and
fits whose workers never overlap never touch the count.

The host's cores are pinned to 2 here, so a 2-worker fleet's budget is
1 thread on any machine.
"""

from functools import partial

import numpy as np
import pytest

from repro import FTKMeans
from repro.core import blas
from repro.core.config import KMeansConfig
from repro.dist import Coordinator, WorkerFaultInjector
from repro.dist.executors import ProcessExecutor
from repro.dist.faults import WorkerCrash
from repro.dist.plan import ShardPlan
from repro.dist.worker import build_worker

pytestmark = pytest.mark.skipif(blas.get_threads() is None,
                                reason="numpy's OpenBLAS is not loadable")


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(7).standard_normal(
        (1200, 16)).astype(np.float32)


@pytest.fixture
def two_cores(monkeypatch):
    """Two cores, and a caller running 2 BLAS threads (restored after)."""
    monkeypatch.setattr(blas, "host_cores", lambda: 2)
    get, set_ = blas._load()
    original = get()
    set_(2)
    yield
    set_(original)


@pytest.fixture
def setter_calls(monkeypatch):
    """Record every call of the BLAS thread-count setter."""
    get, set_ = blas._load()
    calls = []

    def spy(n):
        calls.append(n)
        set_(n)

    monkeypatch.setattr(blas, "_load", lambda: (get, spy))
    return calls


def _fit(x, **kw):
    return FTKMeans(n_clusters=5, max_iter=4, tol=0.0, seed=3,
                    **kw).fit(x)


class TestBudgetScope:
    def test_thread_fleet_runs_at_budget_and_restores(self, x, two_cores):
        km = _fit(x, n_workers=2, executor="thread")
        assert km.dist_blas_threads_ == 1
        assert blas.get_threads() == 2
        single = _fit(x)
        assert np.array_equal(km.labels_, single.labels_)
        assert np.array_equal(km.cluster_centers_, single.cluster_centers_)

    def test_failed_thread_fit_restores(self, x, two_cores):
        cfg = KMeansConfig(n_clusters=5, mode="fast", n_workers=2,
                           max_iter=4, tol=0.0, seed=3, executor="thread")
        coord = Coordinator(cfg, max_recoveries=0,
                            worker_faults=WorkerFaultInjector.crash_at(0, 2))
        with pytest.raises(WorkerCrash):
            coord.fit(x, x[:5].copy())
        assert blas.get_threads() == 2

    def test_elastic_shrink_keeps_the_budget(self, x, two_cores):
        km = _fit(x, n_workers=2, executor="thread", elastic=True,
                  worker_faults=WorkerFaultInjector.crash_at(0, 2))
        assert km.n_workers_ == 1 and km.dist_shrinks_ == 1
        assert km.dist_blas_threads_ == 1
        assert blas.get_threads() == 2

    def test_process_fleet_after_promotion(self, x, two_cores):
        """A crash healed by a hot spare: the promoted child runs at the
        budget too, and the coordinator keeps its own count."""
        km = _fit(x, n_workers=2, executor="process", hot_spares=1,
                  checkpoint_every=1,
                  worker_faults=WorkerFaultInjector.crash_at(0, 3))
        assert km.dist_promotions_ == 1
        assert km.dist_blas_threads_ == 1
        assert blas.get_threads() == 2
        assert np.array_equal(km.cluster_centers_, _fit(x).cluster_centers_)

    def test_every_process_child_reports_the_budget(self, x, two_cores):
        """Cold-spawned children and a promoted spare each answer their
        rounds at the budget the executor was given."""
        cfg = KMeansConfig(n_clusters=5, mode="fast", max_iter=1,
                           tile=None, seed=0)
        plan = ShardPlan.build(len(x), 2, 64)
        factory = partial(build_worker, x=x, plan=plan, cfg=cfg,
                          n_clusters=5)
        ex = ProcessExecutor()
        ex.blas_threads = 1
        ex.prewarm_spares(1)
        ex.start(factory, plan.worker_ids)
        try:
            y = x[:5].copy()
            first = ex.run_round(y, 1, {})
            ex.replace_workers(factory, (0,))
            assert ex.boot_events[-1]["kind"] == "spare_promote"
            second = ex.run_round(y, 2, {})
        finally:
            ex.shutdown()
        assert [r.blas_threads for r in first + second] == [1] * 4
        assert blas.get_threads() == 2


class TestNoOverlapNoSetter:
    """Serial fleets and single-device fits keep today's code path: the
    count is read, never set."""

    def test_serial_fleet(self, x, setter_calls):
        km = _fit(x, n_workers=2, executor="serial")
        assert km.dist_blas_threads_ == blas.get_threads()
        assert setter_calls == []

    def test_single_device_fit_and_predict(self, x, setter_calls):
        km = _fit(x)
        km.predict(x)
        assert setter_calls == []

    def test_thread_fleet_calls_it(self, x, two_cores, setter_calls):
        # the spy is live: a concurrent fleet does reach the setter
        _fit(x, n_workers=2, executor="thread")
        assert setter_calls == [1, 2]
