"""The coordinator's stream merge stays bit-identical.

The merge is a strict sequential left fold, so every sharded fit must
produce the single-worker fit bit for bit — streaming commits only
reorder *when* each shard folds relative to arrivals, never the fold
order itself.  The contract tests here booby-trap exactly the ways the
merge could silently go wrong: out-of-shard-order arrivals must not
change commit order, and a crash must replay through recovery onto the exact
clean bits.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
import repro.dist
import repro.dist.coordinator as coordinator_mod
from repro import FTKMeans
from repro.core.accumulate import StreamedAccumulator
from repro.core.config import KMeansConfig
from repro.core.engine import FastPathEngine
from repro.dist import Coordinator, ReduceOccupancy, WorkerFaultInjector
from repro.dist.executors import (BaseExecutor, ProcessExecutor,
                                  SerialExecutor, ThreadExecutor)
from repro.dist.fleet import FleetManager
from repro.dist.plan import ShardPlan
from repro.dist.worker import ShardWorker, build_worker
from repro.obs.trace import TraceRecorder

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


class TestStreamBitIdentity:
    """Hypothesis: ANY worker count x executor matches single-worker."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_workers=st.sampled_from([1, 2, 3, 4, 8]))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_bit_identical(self, x, ref, executor, n_workers):
        km = fit(x, n_workers=n_workers, executor=executor)
        assert_same_fit(km, ref)
        if n_workers > 1:       # n_workers=1 takes the single-path fit
            assert km.dist_reduce_busy_s_ >= 0.0

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_workers=st.sampled_from([2, 3, 8]))
    def test_process_bit_identical(self, x, ref, n_workers):
        km = fit(x, n_workers=n_workers, executor="process")
        assert_same_fit(km, ref)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(wid=st.sampled_from([0, 1, 4, 6]),
           crash_it=st.integers(min_value=2, max_value=8))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_crash_recovery_bit_identical(self, x, ref, executor, wid,
                                          crash_it):
        """A worker that dies mid-round — while earlier shards may
        already have been committed to the merge — replays through
        checkpoint recovery onto the clean fit's exact bits."""
        km = fit(x, n_workers=8, executor=executor, checkpoint_every=2,
                 worker_faults=WorkerFaultInjector.crash_at(wid, crash_it))
        assert_same_fit(km, ref)
        assert km.dist_recoveries_ == 1

    def test_process_crash_recovery(self, x, ref):
        km = fit(x, n_workers=8, executor="process", checkpoint_every=2,
                 worker_faults=WorkerFaultInjector.crash_at(1, 3))
        assert_same_fit(km, ref)
        assert km.dist_recoveries_ == 1


class _ReversedArrivalExecutor(SerialExecutor):
    """Booby-trap backend: streams results in REVERSED worker order.

    A streaming merge that trusted arrival order would fold shard W-1
    first and change the fit's bits; the coordinator must buffer and
    commit in shard order regardless.
    """

    name = "serial"

    def __init__(self):
        super().__init__()
        self.arrival_log = []

    def collect_round_stream(self):
        buffered = list(super().collect_round_stream())
        for wid, res in reversed(buffered):
            self.arrival_log.append(wid)
            yield wid, res


def _cfg(**kw):
    base = dict(n_clusters=K, mode="fast", n_workers=4, max_iter=6,
                tol=0.0, seed=0, variant="tensorop")
    base.update(kw)
    return KMeansConfig(**base)


class TestMergeOrderContract:
    def test_reversed_arrivals_commit_in_shard_order(self, x):
        """Commit order (merge spans) is shard order even when every
        arrival lands out of order — and the bits match the in-order
        fit."""
        y0 = x[:K].copy()
        in_order = Coordinator(_cfg(executor="serial")).fit(x, y0)
        tracer = TraceRecorder()
        ex = _ReversedArrivalExecutor()
        res = Coordinator(_cfg(), executor=ex, tracer=tracer).fit(x, y0)
        assert np.array_equal(in_order.centroids, res.centroids)
        assert np.array_equal(in_order.labels, res.labels)
        assert in_order.inertia_history == res.inertia_history
        merge_spans = [s for s in tracer.spans if s.name == "merge"]
        assert merge_spans, "rounds must emit per-commit spans"
        n_workers = res.plan.n_workers
        assert n_workers >= 2
        # arrivals were reversed...
        assert ex.arrival_log[:n_workers] == list(
            range(n_workers - 1, -1, -1))
        # ...but each round committed lo-ascending (shard order)
        per_round = [merge_spans[i:i + n_workers]
                     for i in range(0, len(merge_spans), n_workers)]
        for spans in per_round:
            los = [s.meta["lo"] for s in spans]
            assert los == sorted(los)

    @pytest.mark.parametrize("n_workers", [2, 3, 8])
    def test_reversed_arrivals_any_width(self, x, n_workers):
        """Every fleet width commits reversed arrivals in shard order,
        onto the in-order fit's bits."""
        y0 = x[:K].copy()
        in_order = Coordinator(_cfg(n_workers=n_workers,
                                    executor="serial")).fit(x, y0)
        tracer = TraceRecorder()
        ex = _ReversedArrivalExecutor()
        res = Coordinator(_cfg(n_workers=n_workers), executor=ex,
                          tracer=tracer).fit(x, y0)
        assert np.array_equal(in_order.centroids, res.centroids)
        assert np.array_equal(in_order.labels, res.labels)
        w = res.plan.n_workers
        assert ex.arrival_log[:w] == list(range(w - 1, -1, -1))
        los = [s.meta["lo"] for s in tracer.spans if s.name == "merge"]
        assert len(los) == w * len(res.inertia_history)
        for i in range(0, len(los), w):
            assert los[i:i + w] == sorted(los[i:i + w])


class TestMergeOperandHoist:
    """The coordinator hoists its transposed merge operand under the
    engine's memory rule — ``x.nbytes <= operand_budget``, whatever
    ``chunk_bytes`` is — without moving bits."""

    @pytest.mark.parametrize("slack,hoisted", [(-1, False), (0, True)])
    def test_hoist_boundary_is_x_nbytes(self, x, monkeypatch, slack,
                                        hoisted):
        bound, charged = [], []
        bind = StreamedAccumulator.bind_source_t
        record = FastPathEngine._record_alloc

        def spy(acc, src_t):
            # only the coordinator's merge accumulator binds an operand
            # of the whole data; workers bind shard-sized column views
            if src_t is not None and src_t.shape == x.T.shape:
                bound.append(np.array_equal(src_t, x.T))
            bind(acc, src_t)

        def charge_spy(engine, name, nbytes):
            charged.append(name)
            record(engine, name, nbytes)

        monkeypatch.setattr(StreamedAccumulator, "bind_source_t", spy)
        monkeypatch.setattr(FastPathEngine, "_record_alloc", charge_spy)
        monkeypatch.setattr(engine_mod, "host_operand_budget",
                            lambda: x.nbytes + slack)
        y0 = x[:K].copy()
        cfg = _cfg(executor="serial", chunk_bytes=x.nbytes // 8)
        res = Coordinator(cfg).fit(x, y0)
        # one transposed copy backs the merge accumulator's re-feed; no
        # worker hoists its own, whichever way the coordinator decided
        assert bound == ([True] if hoisted else [])
        assert "operand_cache_transpose" not in charged
        monkeypatch.setattr(engine_mod, "host_operand_budget", lambda: 0)
        ref = Coordinator(cfg).fit(x, y0)
        assert bound == ([True] if hoisted else [])
        assert np.array_equal(ref.centroids, res.centroids)
        assert np.array_equal(ref.labels, res.labels)
        assert ref.inertia_history == res.inertia_history

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_default_knob_fit_past_chunk_bytes_hoists_once(
            self, x, monkeypatch, executor):
        """Regression: x outgrows ``chunk_bytes`` and the fleet still
        holds exactly one x-sized transpose — the coordinator's — with
        the staging path's bits."""
        made, charged = [], []
        transpose = coordinator_mod.transpose_blocked
        record = FastPathEngine._record_alloc

        def t_spy(a):
            made.append(transpose(a))
            return made[-1]

        def charge_spy(engine, name, nbytes):
            charged.append(name)
            record(engine, name, nbytes)

        monkeypatch.setattr(coordinator_mod, "transpose_blocked", t_spy)
        monkeypatch.setattr(FastPathEngine, "_record_alloc", charge_spy)
        y0 = x[:K].copy()
        cfg = _cfg(executor=executor, chunk_bytes=x.nbytes // 8)
        res = Coordinator(cfg).fit(x, y0)
        assert [t.nbytes for t in made] == [x.nbytes]
        assert "operand_cache_transpose" not in charged
        monkeypatch.setattr(engine_mod, "host_operand_budget", lambda: 0)
        made.clear()
        ref = Coordinator(cfg).fit(x, y0)
        assert made == []
        assert np.array_equal(ref.centroids.view(np.uint32),
                              res.centroids.view(np.uint32))
        assert np.array_equal(ref.labels, res.labels)
        assert ref.inertia_history == res.inertia_history


    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_declined_fleet_hoists_nowhere(self, x, monkeypatch, executor):
        """A budget that admits a shard but not x: the coordinator
        declines, and no worker hoists its own shard — workers feed no
        accumulator — so the fleet never holds more than x."""
        rounds, charged = [], []
        run_round = ShardWorker.run_round
        record = FastPathEngine._record_alloc

        def round_spy(worker, *args, **kw):
            res = run_round(worker, *args, **kw)
            rounds.append((worker.x.nbytes, worker.kernel.engine._cache.x_t))
            return res

        def charge_spy(engine, name, nbytes):
            charged.append(name)
            record(engine, name, nbytes)

        monkeypatch.setattr(ShardWorker, "run_round", round_spy)
        monkeypatch.setattr(FastPathEngine, "_record_alloc", charge_spy)
        monkeypatch.setattr(engine_mod, "host_operand_budget",
                            lambda: x.nbytes - 1)
        y0 = x[:K].copy()
        cfg = _cfg(executor=executor, chunk_bytes=x.nbytes // 8)
        res = Coordinator(cfg).fit(x, y0)
        assert len(rounds) == cfg.n_workers * len(res.inertia_history)
        for shard_nbytes, x_t in rounds:
            assert shard_nbytes < x.nbytes - 1      # would have hoisted
            assert x_t is None
        assert "operand_cache_transpose" not in charged
        monkeypatch.setattr(engine_mod, "host_operand_budget",
                            lambda: x.nbytes)
        ref = Coordinator(cfg).fit(x, y0)
        assert np.array_equal(ref.centroids.view(np.uint32),
                              res.centroids.view(np.uint32))
        assert np.array_equal(ref.labels, res.labels)
        assert ref.inertia_history == res.inertia_history


class TestRemovedKnobs:
    @pytest.mark.parametrize("knob", ["reduce_topology", "event_hook",
                                      "transport", "worker_cache",
                                      "overlap_rounds"])
    def test_coordinator_rejects(self, knob):
        Coordinator(_cfg())
        with pytest.raises(TypeError):
            Coordinator(_cfg(), **{knob: None})

    def test_executors_have_no_round_cancel_or_overlap_flag(self):
        for cls in (BaseExecutor, SerialExecutor, ThreadExecutor,
                    ProcessExecutor):
            assert not hasattr(cls, "cancel_round"), cls
            assert not hasattr(cls, "supports_overlap"), cls

    def test_fleet_manager_rejects_event_hook(self):
        FleetManager(target_workers=2)
        with pytest.raises(TypeError):
            FleetManager(target_workers=2, event_hook=lambda e: None)

    def test_worker_operand_cache_is_gone(self):
        x = np.random.default_rng(0).random((64, 4)).astype(np.float32)
        kw = dict(x=x, plan=ShardPlan.build(64, 1, 16), n_clusters=3,
                  cfg=KMeansConfig(n_clusters=3, tile=None))
        build_worker(0, **kw).close()
        with pytest.raises(TypeError):
            build_worker(0, cache_store={}, **kw)
        engine = FastPathEngine(None, np.float32)
        engine.begin_fit(x, 3)
        with pytest.raises(TypeError):
            engine.begin_fit(x, 3, preload={"x_norms": engine._cache.x_norms})
        engine.end_fit()
        assert not hasattr(repro.dist, "WorkerCacheStore")


class TestRemovedWorkerPartials:
    """Workers return no partial sums, so nothing exists to corrupt,
    check or lend them an operand for."""

    def test_round_results_carry_no_partial(self):
        from dataclasses import fields

        from repro.dist.worker import RoundResult

        assert "partial" not in {f.name for f in fields(RoundResult)}
        assert not hasattr(Coordinator, "_check_partials")
        assert not hasattr(coordinator_mod, "PARTIAL_CHECK_RTOL")

    def test_corrupt_partial_fault_kind_is_gone(self):
        from repro.dist import faults

        assert faults.WORKER_FAULT_KINDS == ("crash", "stall", "wedge")
        assert not hasattr(WorkerFaultInjector, "corrupt_at")
        with pytest.raises(TypeError):
            WorkerFaultInjector(p_corrupt=0.5)
        with pytest.raises(TypeError):
            faults.WorkerFaultPlan("crash", 0, 1, seu=None)

    def test_borrowed_operand_surface_is_gone(self):
        from repro.core.variants import build_assignment
        from repro.dist.shm import ShmSession

        x = np.random.default_rng(0).random((64, 4)).astype(np.float32)
        cfg = KMeansConfig(n_clusters=3, tile=None)
        kw = dict(x=x, plan=ShardPlan.build(64, 1, 16), n_clusters=3,
                  cfg=cfg)
        for removed in ("x_t", "xt_ref", "weight_ref", "sample_weight"):
            with pytest.raises(TypeError):
                build_worker(0, **{removed: None}, **kw)
        with pytest.raises(TypeError):
            ShardWorker(0, x, cfg, 3, sample_weight=None)
        engine = FastPathEngine(None, np.float32)
        with pytest.raises(TypeError):
            engine.begin_fit(x, 3, x_t=np.ascontiguousarray(x.T))
        kernel = build_assignment(cfg, 64, 4, np.random.default_rng(0))
        with pytest.raises(TypeError):
            kernel.begin_fit(x, 3, x_t=np.ascontiguousarray(x.T))
        assert not hasattr(ShmSession, "share_transpose")


class TestReduceOccupancy:
    def test_segments_hidden_by_arrivals_cost_nothing(self):
        occ = ReduceOccupancy()
        occ.begin_round()
        occ.segment(0.0)          # entirely before the last arrival
        occ.arrival()
        occ.end_round()
        assert occ.busy_s == 0.0

    def test_post_arrival_work_counts(self):
        occ = ReduceOccupancy()
        occ.begin_round()
        occ.arrival()
        import time
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.002:
            pass
        occ.segment(t0)
        occ.end_round()
        assert occ.busy_s >= 0.002

    def test_discarded_round_not_counted_without_end_round(self):
        occ = ReduceOccupancy()
        occ.begin_round()
        occ.segment(0.0)
        occ.begin_round()          # recovery path: round discarded
        occ.end_round()
        assert occ.busy_s == 0.0


class TestChromeTrace:
    def test_spans_export_as_complete_events(self):
        ticks = iter(range(100))
        tr = TraceRecorder(clock=lambda: next(ticks) * 1e-3)
        with tr.span("fit"):
            with tr.span("round", iteration=2):
                pass
        doc = json.loads(tr.to_chrome_trace())
        assert doc["displayTimeUnit"] == "ms"
        events = {e["name"]: e for e in doc["traceEvents"]}
        assert set(events) == {"fit", "round"}
        for e in doc["traceEvents"]:
            assert e["ph"] == "X"
            assert e["dur"] > 0
        assert events["round"]["args"] == {"iteration": 2}
        # timestamps are microseconds on the recorder clock
        assert events["round"]["ts"] == pytest.approx(1e3)

    def test_file_handle_mode(self, tmp_path):
        tr = TraceRecorder()
        with tr.span("fit"):
            pass
        out = tmp_path / "trace.json"
        with open(out, "w") as fh:
            assert tr.to_chrome_trace(fh) == ""
        assert json.loads(out.read_text())["traceEvents"]


class TestEstimatorSurface:
    @pytest.mark.parametrize("n_workers,executor",
                             [(8, "serial"), (2, "thread")])
    def test_fitted_attrs_and_counters(self, x, ref, n_workers, executor):
        tracer = TraceRecorder()
        km = fit(x, n_workers=n_workers, executor=executor, tracer=tracer)
        assert_same_fit(km, ref)
        # every shard's merge commits under the compute span it overlaps
        merges = [s for s in tracer.spans if s.name == "merge"]
        assert len(merges) == km.n_workers_ * km.n_iter_
        assert {s.parent for s in merges} == {"compute"}
        assert isinstance(km.dist_reduce_busy_s_, float)
        assert km.dist_reduce_busy_s_ >= 0.0
        assert km.n_iter_ == len(km.inertia_history_)
        # the fleet runs the single-worker fit's checks, no more
        assert km.counters_.checksum_tests == ref.counters_.checksum_tests

    def test_estimator_surfaces_every_dist_result_counter(self, x,
                                                          monkeypatch):
        from dataclasses import fields

        from repro.dist.coordinator import DistFitResult

        results = []
        real_fit = Coordinator.fit

        def spy(self, *args, **kwargs):
            results.append(real_fit(self, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(Coordinator, "fit", spy)
        km = fit(x, n_workers=2, executor="serial", checkpoint_every=2)
        (res,) = results
        surface = {
            "recoveries": "dist_recoveries_",
            "stall_recoveries": "dist_stall_recoveries_",
            "shrinks": "dist_shrinks_",
            "promotions": "dist_promotions_",
            "expands": "dist_expands_",
            "heartbeat_failures": "dist_heartbeat_failures_",
            "checkpoint_save_s": "dist_checkpoint_save_s_",
            "reduce_busy_s": "dist_reduce_busy_s_",
            "broadcast_bytes": "dist_broadcast_bytes_",
            "gather_bytes": "dist_gather_bytes_",
            "blas_threads": "dist_blas_threads_",
            "inertia": "inertia_",
            "n_iter": "n_iter_",
        }
        for name, attr in surface.items():
            assert getattr(km, attr) == getattr(res, name), name
        assert km.counters_ is res.counters
        assert km.dist_boot_stats_ is res.boot_stats
        # a new scalar field on DistFitResult must reach the estimator
        # (or be named here as deliberately internal)
        internal = {"converged", "executor", "crash_recoveries"}
        scalars = {f.name for f in fields(DistFitResult)
                   if f.type in ("int", "float", "bool", "str")}
        assert scalars - internal == set(surface)
