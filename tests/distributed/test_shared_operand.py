"""A fleet holds one transposed update operand.

The coordinator hoists the whole-data transpose once; every worker
borrows its shard's column view instead of hoisting a copy of its own —
serial and thread workers of the array, process children of its
shared-memory segment — at first boot and at every later one (respawn,
hot spare promotion, elastic re-plan).  The fit stays the single-worker
fit bit for bit.
"""

import numpy as np
import pytest

import repro.dist.coordinator as coordinator_mod
from repro import FTKMeans
from repro.core.config import KMeansConfig
from repro.core.engine import FastPathEngine
from repro.dist import Coordinator, WorkerFaultInjector
from repro.dist.plan import ShardPlan
from repro.dist.shm import ShmSession, attach_array, detach_all
from repro.dist.worker import ShardWorker, build_worker

M, N_FEATURES, K = 1537, 12, 7


@pytest.fixture(scope="module")
def x():
    rng = np.random.default_rng(0)
    return rng.random((M, N_FEATURES), dtype=np.float64).astype(np.float32)


@pytest.fixture(scope="module")
def ref(x):
    return fit(x)


def fit(x, **kw):
    base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=10)
    base.update(kw)
    return FTKMeans(**base).fit(x)


def assert_same_fit(a, b):
    assert np.array_equal(a.labels_, b.labels_)
    assert np.array_equal(a.cluster_centers_, b.cluster_centers_)
    assert a.inertia_ == b.inertia_
    assert a.n_iter_ == b.n_iter_
    assert a.inertia_history_ == b.inertia_history_


def _watch(monkeypatch) -> dict:
    """Record the coordinator's transposes, every worker boot's
    (shard, engine x_t) and every engine charge."""
    seen = {"xt": [], "boots": [], "charged": []}
    transpose = coordinator_mod.transpose_blocked
    init = ShardWorker.__init__
    record = FastPathEngine._record_alloc

    def t_spy(a):
        seen["xt"].append(transpose(a))
        return seen["xt"][-1]

    def boot_spy(worker, *args, **kw):
        init(worker, *args, **kw)
        seen["boots"].append((worker.x, worker.kernel.engine._cache.x_t))

    def charge_spy(engine, name, nbytes):
        seen["charged"].append(name)
        record(engine, name, nbytes)

    monkeypatch.setattr(coordinator_mod, "transpose_blocked", t_spy)
    monkeypatch.setattr(ShardWorker, "__init__", boot_spy)
    monkeypatch.setattr(FastPathEngine, "_record_alloc", charge_spy)
    return seen


def _assert_one_shared_operand(seen, min_boots):
    (xt,) = seen["xt"]                      # one transpose per fleet
    assert xt.shape == (N_FEATURES, M)
    assert len(seen["boots"]) >= min_boots
    for shard, x_t in seen["boots"]:
        assert x_t is not None and np.shares_memory(x_t, xt)
        assert np.array_equal(x_t, shard.T)
    assert "operand_cache_transpose" not in seen["charged"]


def _crash(**kw):
    return lambda: dict(checkpoint_every=2,
                        worker_faults=WorkerFaultInjector.crash_at(1, 4),
                        **kw)


#: membership histories a worker boots through, and the trace each
#: must leave: (fit kwargs, dist_trace_ kinds)
SCENARIOS = {
    "steady": (dict, []),
    "respawn": (_crash(), ["crash", "restore"]),
    "promotion": (_crash(hot_spares=1), ["crash", "restore", "promote"]),
    "replan": (_crash(elastic=True), ["crash", "restore", "shrink"]),
    "reexpand": (_crash(target_workers=3),
                 ["crash", "restore", "shrink", "expand"]),
}


class TestSharedFleetOperand:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_every_boot_borrows_the_coordinator_operand(
            self, x, ref, monkeypatch, executor, scenario):
        kwargs, kinds = SCENARIOS[scenario]
        seen = _watch(monkeypatch)
        km = fit(x, n_workers=3, executor=executor, **kwargs())
        assert [e["kind"] for e in km.dist_trace_] == kinds
        assert_same_fit(km, ref)
        _assert_one_shared_operand(
            seen, min_boots=3 if scenario == "steady" else 4)


class TestProcessFleetOperand:
    def test_factories_carry_the_segment_not_the_array(self, x, ref,
                                                       monkeypatch):
        """Every process factory — first boot, respawn, promoted spare
        — hands its child the transpose segment's ref (never the array,
        which would pickle a copy into each child)."""
        made = []
        real = coordinator_mod.partial

        def partial_spy(fn, **kw):
            made.append(kw)
            return real(fn, **kw)

        monkeypatch.setattr(coordinator_mod, "partial", partial_spy)
        km = fit(x, n_workers=2, executor="process",
                 **_crash(hot_spares=1)())
        assert ([e["kind"] for e in km.dist_trace_]
                == ["crash", "restore", "promote"])
        assert_same_fit(km, ref)
        assert made
        for kw in made:
            assert kw.get("x_t") is None
            assert kw["xt_ref"].shape == (N_FEATURES, M)

    def test_child_borrows_its_column_view(self, x):
        """What a child does with the ref: map the segment and borrow
        its shard's columns."""
        session = ShmSession(x)
        plan = ShardPlan.build(M, 2, 256)
        cfg = KMeansConfig(n_clusters=K, variant="tensorop", seed=3,
                           tile=None)
        shard = plan.shard_of(1)
        try:
            xt = session.share_transpose(x)
            assert np.array_equal(xt, x.T)
            worker = build_worker(1, plan=plan, cfg=cfg, n_clusters=K,
                                  data_ref=session.data_ref,
                                  xt_ref=session.xt_ref)
            x_t = worker.kernel.engine._cache.x_t
            assert np.shares_memory(x_t, attach_array(session.xt_ref))
            assert np.array_equal(x_t, x[shard.lo:shard.hi].T)
            worker.close()
        finally:
            detach_all()
            session.close()


class TestBorrowedView:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_respawn_reslices_the_borrowed_view(self, x, monkeypatch,
                                                executor):
        """A respawned worker rebuilds its norms and re-slices the
        coordinator's view; the fit stays the single-worker fit."""
        y0 = x[:K].copy()
        ref0 = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                        max_iter=10, init_centroids=y0).fit(x)
        seen = _watch(monkeypatch)
        cfg = KMeansConfig(n_clusters=K, n_workers=2, seed=3, max_iter=10,
                           checkpoint_every=2, target_workers=2,
                           executor=executor)
        res = Coordinator(
            cfg, worker_faults=WorkerFaultInjector.crash_at(0, 3)).fit(x, y0)
        assert np.array_equal(res.centroids, ref0.cluster_centers_)
        _assert_one_shared_operand(seen, min_boots=3)

    @pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - {"steady"}))
    def test_every_boot_computes_its_own_norms(self, x, monkeypatch,
                                               scenario):
        """Replacements rebuild their shard's norms exactly as a first
        boot does: fresh arrays, equal to the direct row sums."""
        norms = []
        init = ShardWorker.__init__

        def boot_spy(worker, *args, **kw):
            init(worker, *args, **kw)
            norms.append((worker.x, worker.kernel.engine._cache.x_norms))

        monkeypatch.setattr(ShardWorker, "__init__", boot_spy)
        fit(x, n_workers=3, executor="serial", **SCENARIOS[scenario][0]())
        assert len(norms) >= 4                  # a replacement booted
        for i, (shard, got) in enumerate(norms):
            assert np.array_equal(
                got, np.sum(shard * shard, axis=1, dtype=np.float32))
            assert not any(np.shares_memory(got, other)
                           for _, other in norms[:i])

    @pytest.mark.parametrize("bad", ["shape", "dtype"])
    def test_a_mismatched_view_is_ignored(self, x, bad):
        """A lent transpose of the wrong shape or dtype is never
        trusted: the engine falls back to its own hoist decision."""
        xt = (np.ascontiguousarray(x[1:].T) if bad == "shape"
              else np.ascontiguousarray(x.T, dtype=np.float64))
        engine = FastPathEngine(None, np.float32)
        engine.operand_budget = 0
        try:
            engine.begin_fit(x, K, x_t=xt)
            assert engine._cache.x_t is None
            assert engine.prepare_update_operand() is None
        finally:
            engine.end_fit()

    def test_a_borrowed_view_is_not_charged(self, x):
        """The engine borrows a lent transpose as-is: no copy and no
        ``operand_cache_transpose`` charge."""
        xt = np.ascontiguousarray(x.T)
        charged = []
        engine = FastPathEngine(None, np.float32,
                                alloc_hook=lambda n, b: charged.append(n))
        try:
            engine.begin_fit(x, K, x_t=xt)
            assert engine._cache.x_t is xt
            assert "operand_cache_transpose" not in charged
        finally:
            engine.end_fit()

    def test_a_worker_never_owns_a_transpose(self, x):
        """Without a lent view a worker runs the staging path: it
        never hoists its shard, and it computes its own norms."""
        cfg = KMeansConfig(n_clusters=K, variant="tensorop", seed=3,
                           tile=None)
        plan = ShardPlan.build(M, 2, 256)
        kw = dict(x=x, plan=plan, cfg=cfg, n_clusters=K)
        workers = [build_worker(0, **kw), build_worker(1, **kw)]
        try:
            for worker in workers:
                worker.run_round(x[:K].copy(), 1)
                cache = worker.kernel.engine._cache
                assert cache.x_t is None
                assert np.array_equal(
                    cache.x_norms,
                    np.sum(worker.x * worker.x, axis=1, dtype=np.float32))
        finally:
            for worker in workers:
                worker.close()
