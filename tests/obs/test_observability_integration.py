"""End-to-end observability contracts on real fits.

Three guarantees the ISSUE pins down:

* **Neutrality** — labels/centroids are bit-identical with tracing on
  vs. off, including under SEU injection (also covered by a hypothesis
  case in ``tests/property``).
* **Zero cost when off** — a fit with a *disabled* recorder never
  calls into it (booby-trapped recorder), and the disabled path stays
  within a generous wall budget of the no-recorder path.
* **Event ordering** — a bus subscriber observes the fleet,
  coordinator and checkpoint events of a real recovering fit in one
  total order.
"""

import time

import numpy as np
import pytest

from repro.core.api import FTKMeans
from repro.dist.faults import WorkerFaultInjector
from repro.obs import EventBus, TraceRecorder


def _data(m=512, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((m, n), dtype=np.float64).astype(np.float32)


def _fit(x, *, tracer=None, event_bus=None, workers=1,
         p_inject=0.0, worker_faults=None, checkpoint_every=0):
    km = FTKMeans(n_clusters=8, variant="ft" if p_inject else "tensorop",
                  mode="fast", max_iter=5, tol=0.0, seed=0,
                  p_inject=p_inject, n_workers=workers,
                  executor="serial" if workers == 1 else "thread",
                  checkpoint_every=checkpoint_every,
                  worker_faults=worker_faults,
                  tracer=tracer, event_bus=event_bus)
    km.fit(x)
    return km


class BoobyTrappedRecorder(TraceRecorder):
    """A disabled recorder that detonates if anything calls into it."""

    def __init__(self):
        super().__init__(enabled=False)

    def span(self, name, **meta):  # pragma: no cover - must never run
        raise AssertionError("disabled recorder was invoked")

    def instant(self, name, **meta):  # pragma: no cover
        raise AssertionError("disabled recorder was invoked")


class TestNeutrality:
    def test_single_worker_bit_identical_with_tracing(self):
        x = _data()
        base = _fit(x)
        traced = _fit(x, tracer=TraceRecorder())
        assert np.array_equal(base.labels_, traced.labels_)
        assert np.array_equal(base.cluster_centers_.view(np.uint32),
                              traced.cluster_centers_.view(np.uint32))

    def test_bit_identical_under_seu_injection(self):
        x = _data()
        base = _fit(x, p_inject=0.5)
        traced = _fit(x, p_inject=0.5, tracer=TraceRecorder())
        assert np.array_equal(base.labels_, traced.labels_)
        assert np.array_equal(base.cluster_centers_.view(np.uint32),
                              traced.cluster_centers_.view(np.uint32))

    def test_dist_fit_bit_identical_with_tracing(self):
        x = _data()
        base = _fit(x, workers=2)
        rec = TraceRecorder()
        traced = _fit(x, workers=2, tracer=rec)
        assert np.array_equal(base.labels_, traced.labels_)
        assert np.array_equal(base.cluster_centers_.view(np.uint32),
                              traced.cluster_centers_.view(np.uint32))
        names = {s.name for s in rec.spans}
        # the coordinator taxonomy landed
        assert {"fit", "round", "compute", "merge", "update"} <= names

    def test_engine_taxonomy_lands_single_worker(self):
        rec = TraceRecorder()
        _fit(_data(), tracer=rec)
        names = {s.name for s in rec.spans}
        assert {"fit", "iteration", "assign_chunk", "gemm",
                "update_feed"} <= names
        fits = [s for s in rec.spans if s.name == "fit"]
        assert len(fits) == 1 and fits[0].depth == 0


class TestInitSpan:
    def test_single_worker_init_is_one_child_of_fit(self):
        x = _data()
        base = _fit(x)
        rec = TraceRecorder()
        traced = _fit(x, tracer=rec)
        assert np.array_equal(base.labels_, traced.labels_)
        assert np.array_equal(base.cluster_centers_.view(np.uint32),
                              traced.cluster_centers_.view(np.uint32))
        assert base.inertia_ == traced.inertia_
        inits = [s for s in rec.spans if s.name == "init"]
        assert len(inits) == 1
        init = inits[0]
        assert init.parent == "fit" and init.depth == 1
        assert init.meta == {"method": "k-means++", "m": x.shape[0]}
        (fit,) = [s for s in rec.spans if s.name == "fit"]
        first_iter = min(s.t0 for s in rec.spans if s.name == "iteration")
        assert fit.t0 <= init.t0 <= init.t1 <= first_iter

    def test_no_init_span_with_init_centroids(self):
        x = _data()
        rec = TraceRecorder()
        FTKMeans(n_clusters=8, max_iter=2, seed=0, tracer=rec,
                 init_centroids=x[:8]).fit(x)
        assert "init" not in {s.name for s in rec.spans}

    @pytest.mark.parametrize("kw", [dict(n_workers=2, executor="thread"),
                                    dict(batch_size=128)])
    def test_dist_and_minibatch_init_is_a_root_span(self, kw):
        x = _data()
        rec = TraceRecorder()
        FTKMeans(n_clusters=8, max_iter=2, seed=0, init="random",
                 tracer=rec, **kw).fit(x)
        inits = [s for s in rec.spans if s.name == "init"]
        assert len(inits) == 1 and inits[0].depth == 0
        assert inits[0].meta == {"method": "random", "m": x.shape[0]}


class TestZeroCostWhenOff:
    def test_disabled_recorder_is_never_invoked(self):
        """The gate resolves a disabled recorder to the shared null
        ONCE per pass — the user's recorder object is never called."""
        trap = BoobyTrappedRecorder()
        km = _fit(_data(), tracer=trap)
        assert km.n_iter_ >= 1
        assert len(trap) == 0

    def test_disabled_recorder_is_never_invoked_dist(self):
        trap = BoobyTrappedRecorder()
        km = _fit(_data(), workers=2, tracer=trap)
        assert km.n_iter_ >= 1
        assert len(trap) == 0

    def test_disabled_path_within_wall_budget(self):
        """Per-iteration cost with a disabled recorder stays within a
        generous budget of the no-recorder fit (same data, same
        trajectory; the budget absorbs scheduler jitter, a real
        per-span leak on the disabled path would blow far past it)."""
        x = _data(m=4096, n=32)

        def timed(**kw):
            t0 = time.perf_counter()
            km = _fit(x, **kw)
            return (time.perf_counter() - t0) / km.n_iter_

        baseline = min(timed() for _ in range(3))
        disabled = min(timed(tracer=BoobyTrappedRecorder())
                       for _ in range(3))
        assert disabled <= 2.0 * baseline + 0.05


class TestEventBusOnRealFits:
    def test_bus_carries_fleet_and_coordinator_events_ordered(self):
        """A subscriber sees the fleet's membership events interleaved
        with the coordinator/checkpoint kinds, in one total order."""
        x = _data()
        new_seen = []
        bus = EventBus()
        bus.subscribe(new_seen.append)
        km = FTKMeans(n_clusters=8, variant="tensorop", mode="fast",
                      max_iter=5, tol=0.0, seed=0, n_workers=3,
                      executor="serial", checkpoint_every=2, hot_spares=1,
                      worker_faults=WorkerFaultInjector.crash_at(1, 4),
                      event_bus=bus)
        km.fit(x)
        fleet_events = [e for e in new_seen if e.source == "fleet"]
        assert [e.kind for e in fleet_events] == ["promote"]
        kinds = [e.kind for e in new_seen]
        assert "checkpoint_save" in kinds
        assert len(new_seen) > len(fleet_events)
        seqs = [e.seq for e in new_seen]
        assert seqs == sorted(seqs)

    def test_bus_sees_recovery_ordering_on_crash(self):
        """A crash-restore fit publishes coordinator recovery events
        in causal order with correct source tags."""
        x = _data()
        new_seen = []
        bus = EventBus()
        bus.subscribe(new_seen.append)
        _fit(x, workers=2, checkpoint_every=1,
             worker_faults=WorkerFaultInjector.crash_at(0, 2),
             event_bus=bus)
        seqs = [e.seq for e in new_seen]
        assert seqs == sorted(seqs)
        kinds = [e.kind for e in new_seen]
        assert "recovery" in kinds and "restore" in kinds
        assert "checkpoint_save" in kinds
        assert kinds.index("recovery") < kinds.index("restore")
        sources = {e.kind: e.source for e in new_seen}
        assert sources["recovery"] == "coordinator"
        assert sources["checkpoint_save"] == "checkpoint"

    def test_bus_history_replays_the_fit(self):
        bus = EventBus()
        _fit(_data(), workers=2, checkpoint_every=1, event_bus=bus)
        kinds = [e.kind for e in bus.history]
        assert "executor_start" in kinds
        assert "checkpoint_save" in kinds
        assert len(bus) == len(kinds)

    def test_fleet_manager_always_exposes_a_bus(self):
        from repro.dist.fleet import FleetManager

        seen = []
        fm = FleetManager()
        assert isinstance(fm.event_bus, EventBus)
        fm.event_bus.subscribe(seen.append)
        fm.event_bus.publish("heartbeat", source="fleet", iteration=0)
        assert [(e.kind, e.fields) for e in seen] == [
            ("heartbeat", {"iteration": 0})]


class TestOneCounterSurface:
    """Counters live on ``counters_`` and the ``dist_*_`` attributes;
    there is no second registry to keep in step with them."""

    def test_metrics_registry_is_gone(self):
        import importlib

        import repro.obs

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.metrics")
        for name in ("MetricsRegistry", "Counter", "Gauge", "Histogram"):
            assert not hasattr(repro.obs, name), name

    def test_fitted_estimator_carries_no_metrics_dump(self):
        from dataclasses import fields

        from repro.dist.coordinator import DistFitResult

        km = _fit(_data(), workers=2, checkpoint_every=1)
        assert km.dist_checkpoint_save_s_ > 0.0
        assert not hasattr(km, "dist_metrics_")
        assert not hasattr(km, "dist_checkpoint_flush_s_")
        names = {f.name for f in fields(DistFitResult)}
        assert not names & {"metrics", "checkpoint_flush_s"}
