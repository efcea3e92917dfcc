"""A fleet round accumulates each row once, from one transpose.

The coordinator's shard-ordered merge is the round's only
accumulation: workers return labels and distances and sum nothing, so
a fleet feeds exactly M rows per round, no worker engine holds a
transposed operand, and the coordinator hoists the fleet's one
transpose for its own merge — at first boot and through every later
one (respawn, hot spare promotion, elastic re-plan, re-expansion).  A
process fit shares only the dataset segment.  The fit stays the
single-worker fit bit for bit.
"""

import os

import numpy as np
import pytest

import repro.dist.coordinator as coordinator_mod
from repro import FTKMeans
from repro.core.accumulate import StreamedAccumulator
from repro.core.config import KMeansConfig
from repro.core.engine import FastPathEngine
from repro.core.update import UpdateStage
from repro.dist import WorkerFaultInjector
from repro.dist.plan import ShardPlan
from repro.dist.shm import SEGMENT_PREFIX, ShmSession
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
    """Record the coordinator's transposes, each worker round's engine
    operands and fed chunks, and every engine charge."""
    seen = {"xt": [], "rounds": [], "charged": []}
    transpose = coordinator_mod.transpose_blocked
    run_round = ShardWorker.run_round
    record = FastPathEngine._record_alloc

    def t_spy(a):
        seen["xt"].append(transpose(a))
        return seen["xt"][-1]

    def round_spy(worker, *args, **kw):
        res = run_round(worker, *args, **kw)
        engine = worker.kernel.engine
        seen["rounds"].append((set(engine.export_operands()),
                               engine.stats.update_chunks_fed))
        return res

    def charge_spy(engine, name, nbytes):
        seen["charged"].append(name)
        record(engine, name, nbytes)

    monkeypatch.setattr(coordinator_mod, "transpose_blocked", t_spy)
    monkeypatch.setattr(ShardWorker, "run_round", round_spy)
    monkeypatch.setattr(FastPathEngine, "_record_alloc", charge_spy)
    return seen


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


class TestOneTranspose:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_only_the_coordinator_transposes(self, x, ref, monkeypatch,
                                             executor, scenario):
        """The coordinator hoists one x-sized transpose; no worker
        engine holds one or feeds an accumulator, through any
        membership history."""
        kwargs, kinds = SCENARIOS[scenario]
        seen = _watch(monkeypatch)
        km = fit(x, n_workers=3, executor=executor, **kwargs())
        assert [e["kind"] for e in km.dist_trace_] == kinds
        assert_same_fit(km, ref)
        (xt,) = seen["xt"]
        assert xt.shape == (N_FEATURES, M)
        # every round ran at least two workers (a re-plan shrinks to 2)
        assert len(seen["rounds"]) >= 2 * km.n_iter_
        for operands, chunks_fed in seen["rounds"]:
            assert operands == {"x_norms"}
            assert chunks_fed == 0
        assert "operand_cache_transpose" not in seen["charged"]


class TestOnePass:
    @pytest.mark.parametrize("n_workers", [2, 3, 5])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_a_round_feeds_each_row_once(self, x, ref, monkeypatch,
                                         executor, n_workers):
        """Rows fed into any accumulator between two updates: exactly
        M, the coordinator's merge, in every round."""
        fed = [0]
        per_round = []
        feed = StreamedAccumulator.feed
        update = UpdateStage.update

        def feed_spy(acc, x_chunk, labels_chunk):
            fed[0] += len(x_chunk)
            feed(acc, x_chunk, labels_chunk)

        def update_spy(stage, *args, **kw):
            per_round.append(fed[0])
            fed[0] = 0
            return update(stage, *args, **kw)

        monkeypatch.setattr(StreamedAccumulator, "feed", feed_spy)
        monkeypatch.setattr(UpdateStage, "update", update_spy)
        km = fit(x, n_workers=n_workers, executor=executor)
        assert_same_fit(km, ref)
        assert km.n_workers_ == n_workers
        assert per_round == [M] * km.n_iter_


class TestProcessFleet:
    def test_factories_carry_only_the_dataset_ref(self, x, monkeypatch):
        """Every process factory — first boot, respawn, promoted spare
        — hands its child the dataset segment's ref and nothing
        x-sized: no rows, weights or transpose."""
        made = []
        real = coordinator_mod.partial

        def partial_spy(fn, **kw):
            made.append(kw)
            return real(fn, **kw)

        w = np.random.default_rng(1).uniform(0.5, 2.0, M)
        kw = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=6)
        single = FTKMeans(**kw).fit(x, sample_weight=w)
        monkeypatch.setattr(coordinator_mod, "partial", partial_spy)
        km = FTKMeans(n_workers=2, executor="process",
                      **_crash(hot_spares=1)(), **kw).fit(x, sample_weight=w)
        assert ([e["kind"] for e in km.dist_trace_]
                == ["crash", "restore", "promote"])
        assert_same_fit(km, single)
        assert made
        for factory_kw in made:
            assert set(factory_kw) == {"plan", "cfg", "n_clusters",
                                       "base_seed", "data_ref"}
            assert factory_kw["data_ref"].shape == (M, N_FEATURES)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_a_process_fit_creates_only_the_data_segment(
            self, x, monkeypatch, weighted):
        tags = []
        create = ShmSession._create

        def create_spy(session, tag, size):
            tags.append((tag, size))
            return create(session, tag, size)

        monkeypatch.setattr(ShmSession, "_create", create_spy)
        w = (np.random.default_rng(2).uniform(0.5, 2.0, M) if weighted
             else None)
        kw = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=6)
        single = FTKMeans(**kw).fit(x, sample_weight=w)
        km = FTKMeans(n_workers=2, executor="process",
                      **kw).fit(x, sample_weight=w)
        assert tags == [("x", x.nbytes)]
        assert_same_fit(km, single)
        assert not [e for e in os.listdir("/dev/shm")
                    if e.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")]


class TestWorkerNorms:
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

    def test_a_worker_never_owns_a_transpose(self, x):
        """A worker's round feeds no accumulator: it never hoists its
        shard, and it computes its own norms."""
        cfg = KMeansConfig(n_clusters=K, variant="tensorop", seed=3,
                           tile=None)
        plan = ShardPlan.build(M, 2, 256)
        kw = dict(x=x, plan=plan, cfg=cfg, n_clusters=K)
        workers = [build_worker(0, **kw), build_worker(1, **kw)]
        try:
            for worker in workers:
                res = worker.run_round(x[:K].copy(), 1)
                assert not hasattr(res, "partial")
                cache = worker.kernel.engine._cache
                assert cache.x_t is None
                assert np.array_equal(
                    cache.x_norms,
                    np.sum(worker.x * worker.x, axis=1, dtype=np.float32))
        finally:
            for worker in workers:
                worker.close()
