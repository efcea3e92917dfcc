"""One round path per executor, and the dataset segment's scope.

Every backend implements one collect loop, ``collect_round_stream``;
``BaseExecutor.collect_round`` drains it into worker order and
``run_round`` is ``send_round`` plus ``collect_round``.  These tests
drive each backend directly through those helpers, check the coordinator
creates the dataset segment only for the process executor, that the
segment holds the exact bytes of ``x``, and that a fit ending in an
error leaves no live worker, unlinks the segment and still records the
span of the round or recovery that failed.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro import FTKMeans
from repro.core.config import KMeansConfig
from repro.dist import coordinator as coordinator_mod
from repro.dist.coordinator import Coordinator
from repro.dist.executors import (ProcessExecutor, SerialExecutor,
                                  ThreadExecutor, make_executor)
from repro.dist.faults import (CRASH, WorkerCrash, WorkerFaultInjector,
                               WorkerFaultPlan)
from repro.dist.fleet import FleetManager
from repro.dist.plan import ShardPlan
from repro.dist.shm import SEGMENT_PREFIX, ShmSession, attach_array
from repro.dist.worker import build_worker
from repro.obs.trace import TraceRecorder

EXECUTORS = ["serial", "thread", "process"]
K = 6


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    return rng.standard_normal((900, 16)).astype(np.float32)


def _cfg(**kw):
    base = dict(n_clusters=K, mode="fast", n_workers=3, max_iter=6,
                tol=0.0, seed=0)
    base.update(kw)
    return KMeansConfig(**base)


def _started(executor, x, n_workers=3):
    cfg = _cfg(executor=executor)
    plan = ShardPlan.build(x.shape[0], n_workers, 64)
    ex = make_executor(executor)
    ex.start(partial(build_worker, x=x, plan=plan, cfg=cfg, n_clusters=K),
             plan.worker_ids)
    return ex, plan


def own_segments():
    try:
        return [e for e in os.listdir("/dev/shm")
                if e.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")]
    except OSError:  # pragma: no cover - non-Linux fallback
        return []


class TestOneCollectLoop:
    """``collect_round`` and ``run_round`` live on the base class only;
    each backend contributes its stream."""

    @pytest.mark.parametrize(
        "cls", [SerialExecutor, ThreadExecutor, ProcessExecutor],
        ids=EXECUTORS)
    def test_backend_defines_only_the_stream(self, cls):
        assert "collect_round_stream" in vars(cls)
        assert "collect_round" not in vars(cls)
        assert "run_round" not in vars(cls)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_run_round_returns_worker_order(self, data, executor):
        y = data[:K].copy()
        ref, _ = _started("serial", data)
        try:
            expected = ref.run_round(y, 1, {})
        finally:
            ref.shutdown()
        ex, plan = _started(executor, data)
        try:
            results = ex.run_round(y, 1, {})
        finally:
            ex.shutdown()
        assert [r.worker_id for r in results] == list(plan.worker_ids)
        for got, want in zip(results, expected):
            assert got.iteration == 1
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.best, want.best)

    def test_collect_round_puts_arrivals_in_worker_order(self, data):
        y = data[:K].copy()
        ex, plan = _started("thread", data)
        stream = type(ex).collect_round_stream
        # deliver the round's results last worker first
        ex.collect_round_stream = lambda: reversed(list(stream(ex)))
        try:
            ex.send_round(y, 1, {})
            results = ex.collect_round()
        finally:
            ex.shutdown()
        assert [r.worker_id for r in results] == list(plan.worker_ids)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_collect_round_raises_what_the_stream_raises(self, data,
                                                         executor):
        y = data[:K].copy()
        ex, _ = _started(executor, data)
        try:
            ex.send_round(y, 2, {1: {"crash": WorkerFaultPlan(CRASH, 1, 2)}})
            with pytest.raises(WorkerCrash) as info:
                ex.collect_round()
        finally:
            ex.shutdown()
        assert info.value.crashed_ids == (1,)
        assert info.value.stalled_ids == ()


class TestSessionScope:
    """The coordinator creates the dataset segment for process fits
    only, and the segment holds the caller's exact bytes."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_backends_create_no_session(self, data, executor,
                                                   monkeypatch):
        created = []

        def spy(*args, **kwargs):
            created.append(args)
            return ShmSession(*args, **kwargs)

        monkeypatch.setattr(coordinator_mod, "ShmSession", spy)
        Coordinator(_cfg(executor=executor)).fit(data, data[:K].copy())
        assert created == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_session_holds_exact_bytes(self, dtype):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 5)).astype(dtype)
        sess = ShmSession(x)
        try:
            xs = attach_array(sess.data_ref)
            assert xs.dtype == x.dtype
            assert xs.tobytes() == x.tobytes()
            assert sess.data_ref.name.startswith(
                f"{SEGMENT_PREFIX}-{os.getpid()}-")
        finally:
            sess.close()

    def test_session_copies_strided_input_in_c_order(self):
        rng = np.random.default_rng(2)
        base = np.asfortranarray(rng.standard_normal((30, 8)))
        x = base[::2, 1::2]
        sess = ShmSession(x)
        try:
            view = attach_array(sess.data_ref)
            assert view.shape == x.shape
            assert view.flags.c_contiguous
            assert np.array_equal(view, x)
        finally:
            sess.close()

    def test_fallback_weighted_fit_bit_identical(self, data, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(coordinator_mod, "ShmSession", unavailable)
        w = np.random.default_rng(3).integers(
            1, 4, size=data.shape[0]).astype(np.float64)
        base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=8)
        single = FTKMeans(**base).fit(data, sample_weight=w)
        with pytest.warns(RuntimeWarning, match="dataset segment"):
            km = FTKMeans(**base, n_workers=2,
                          executor="process").fit(data, sample_weight=w)
        assert np.array_equal(km.labels_, single.labels_)
        assert np.array_equal(km.cluster_centers_, single.cluster_centers_)
        assert km.inertia_ == single.inertia_
        assert own_segments() == []


class TestErrorTeardown:
    """A fit that raises in its round tail shuts its workers down,
    unlinks the dataset segment and records the round it raised in."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_tail_error_tears_down(self, data, executor, monkeypatch):
        children = []
        tracer = TraceRecorder()
        coord = Coordinator(_cfg(executor=executor), tracer=tracer)

        def count_directives(st, directives, it):
            if it == 3:
                children.extend(getattr(coord.executor, "_procs",
                                        {}).values())
                raise RuntimeError("boom in the round tail")

        monkeypatch.setattr(Coordinator, "_count_directives",
                            staticmethod(count_directives))
        with pytest.raises(RuntimeError, match="boom"):
            coord.fit(data, data[:K].copy())
        assert len(children) == (3 if executor == "process" else 0)
        assert not any(p.is_alive() for p in children)
        assert own_segments() == []
        rounds = [s for s in tracer.spans if s.name == "round"]
        assert rounds[-1].meta["iteration"] == 3
        assert rounds[-1].t1 is not None


def _fail_at_3(st, directives, it):
    if it == 3:
        raise RuntimeError("boom in the off-critical tail")


class TestErrorSpans:
    """A traced fit that raises mid-round or mid-recovery still records
    the span it raised in, so no child span is left without its
    parent."""

    @staticmethod
    def _spans(tracer, name):
        return [s for s in tracer.spans if s.name == name]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_tail_error_records_its_round(self, data, executor,
                                          monkeypatch):
        monkeypatch.setattr(Coordinator, "_count_directives",
                            staticmethod(_fail_at_3))
        tracer = TraceRecorder()
        coord = Coordinator(_cfg(executor=executor), tracer=tracer)
        with pytest.raises(RuntimeError, match="boom"):
            coord.fit(data, data[:K].copy())
        rounds = self._spans(tracer, "round")
        assert [s.meta["iteration"] for s in rounds] == [1, 2, 3]
        (fit,) = self._spans(tracer, "fit")
        assert fit.t0 <= rounds[-1].t0 <= rounds[-1].t1 <= fit.t1

    @pytest.mark.parametrize("step", ["fleet_recover", "executor_restart",
                                      "max_recoveries"])
    def test_recovery_error_records_its_recovery(self, data, step,
                                                 monkeypatch):
        def boom(*args, **kw):
            raise RuntimeError("boom in recovery")

        kw = {}
        if step == "fleet_recover":
            kw = dict(hot_spares=1)
            monkeypatch.setattr(FleetManager, "recover", boom)
        elif step == "executor_restart":
            monkeypatch.setattr(SerialExecutor, "restart", boom)
        tracer = TraceRecorder()
        coord = Coordinator(
            _cfg(executor="serial", checkpoint_every=2, **kw),
            tracer=tracer, max_recoveries=0 if step == "max_recoveries" else 8,
            worker_faults=WorkerFaultInjector.crash_at(0, 3))
        with pytest.raises((RuntimeError, WorkerCrash)):
            coord.fit(data, data[:K].copy())
        (rec,) = self._spans(tracer, "recovery")
        assert rec.meta["iteration"] == 3
        assert rec.t1 is not None and rec.t1 >= rec.t0
        assert [s.meta["iteration"] for s in self._spans(tracer, "round")
                ] == [1, 2]
