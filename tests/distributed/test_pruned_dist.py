"""Distributed pruning: sharded fits with bound pruning enabled stay
bit-identical to the single-worker fit on every executor — including
membership histories (crash -> shrink -> re-expand) that rebuild the
shard-local bounds state mid-fit — plus the fleet event log and the
cooperative cancellation of abandoned thread-backend workers.
"""

import functools
import threading
import time

import numpy as np
import pytest

from repro import FTKMeans
from repro.core.config import KMeansConfig
from repro.core.engine import EngineCancelled, FastPathEngine
from repro.dist import (
    Coordinator,
    FleetManager,
    WorkerFaultInjector,
    make_executor,
)
from repro.dist.plan import ShardPlan
from repro.dist.worker import build_worker
from repro.gpusim.counters import PerfCounters
from repro.obs.events import EventBus

K, D = 6, 12


@pytest.fixture(scope="module")
def data():
    """A pruning-friendly workload: blob-sorted rows (frozen blobs empty
    whole GEMM units) with one slow-converging overlapped pair keeping
    the fit alive past the freeze of the easy clusters."""
    rng = np.random.default_rng(7)
    centers = (rng.normal(size=(K, D)) * 8.0).astype(np.float32)
    centers[1] = centers[0] + 0.4           # the slow pair
    x = np.concatenate([c + rng.normal(scale=0.8,
                                       size=(400, D)).astype(np.float32)
                        for c in centers])
    y0 = centers + rng.normal(scale=0.3,
                              size=centers.shape).astype(np.float32)
    return np.ascontiguousarray(x), y0.astype(np.float32)


def fit(data, **kw):
    x, y0 = data
    base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=12,
                tol=0, init_centroids=y0)
    base.update(kw)
    return FTKMeans(**base).fit(x)


@pytest.fixture(scope="module")
def ref(data):
    return fit(data)


def assert_same_fit(a, b):
    assert np.array_equal(a.labels_, b.labels_)
    assert np.array_equal(a.cluster_centers_.view(np.uint32),
                          b.cluster_centers_.view(np.uint32))
    assert a.inertia_ == b.inertia_
    assert a.inertia_history_ == b.inertia_history_


def test_workload_actually_prunes(data):
    """Guard on the fixture: a single engine run over this workload
    must engage pruning (otherwise the dist tests prove nothing)."""
    x, y0 = data
    eng = FastPathEngine(None, np.float32, tf32=True, prune="auto")
    try:
        eng.begin_fit(x, K)
        y = y0.copy()
        for _ in range(10):
            labels, _ = eng.assign(x, y, PerfCounters())
            sums = np.zeros((K, D), dtype=np.float64)
            cnt = np.zeros(K)
            np.add.at(sums, labels, x.astype(np.float64))
            np.add.at(cnt, labels, 1)
            nz = cnt > 0
            y = y.copy()
            y[nz] = (sums[nz] / cnt[nz, None]).astype(np.float32)
        assert eng.stats.rows_pruned > 0
        assert eng.stats.last_active_frac < 1.0
    finally:
        eng.end_fit()


class TestShardedPrunedBitIdentity:
    """Satellite: pruned sharded fits == single-worker, bit for bit,
    on every executor (bounds are shard-local and never leave a worker,
    so the merge sees identical partials either way)."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_match_single_worker(self, data, ref, executor):
        km = fit(data, n_workers=3, executor=executor)
        assert_same_fit(km, ref)

    def test_pruned_vs_unpruned_sharded(self, data):
        on = fit(data, n_workers=3, executor="serial")
        off = fit(data, n_workers=3, executor="serial", prune="off")
        assert_same_fit(on, off)

    def test_two_workers_cross_the_first_freeze(self, data, ref,
                                                monkeypatch):
        """Shard-local bounds start lazy and go live mid-fit: both
        workers run lazy rounds, then live ones, and the fit stays
        bit-identical to the unpruned and single-worker fits."""
        from repro.core.bounds import BoundsState

        woken = {}
        wake = BoundsState.wake

        def spy(self, y):
            live = wake(self, y)
            woken.setdefault(id(self), []).append(live)
            return live

        monkeypatch.setattr(BoundsState, "wake", spy)
        on = fit(data, n_workers=2, executor="serial")
        monkeypatch.undo()
        off = fit(data, n_workers=2, executor="serial", prune="off")
        assert_same_fit(on, off)
        assert_same_fit(on, ref)
        assert len(woken) == 2                      # one state per shard
        for history in woken.values():
            first_live = history.index(True)
            assert first_live > 0                   # lazy rounds first
            assert all(history[first_live:])        # then live for good

    def test_two_workers_shuffled_rows_prune_row_granular(self, data,
                                                          bounds_log):
        """Shuffled rows: no GEMM unit empties, yet each shard's pruned
        lane skips the certified rows and the 2-worker fit stays
        bit-identical to the unpruned single-worker fit."""
        x, y0 = data
        order = np.random.default_rng(0).permutation(len(x))
        shuffled = (np.ascontiguousarray(x[order]), y0)
        on = fit(shuffled, n_workers=2, executor="serial")
        rows, units = bounds_log.prunable()
        off = fit(shuffled, prune="off")
        assert_same_fit(on, off)
        assert bounds_log.rows_pruned == rows > units

    def test_sharded_pruned_under_injection(self, data):
        on = fit(data, n_workers=2, executor="serial", p_inject=0.3,
                 abft="ftkmeans")
        off = fit(data, n_workers=2, executor="serial", p_inject=0.3,
                  abft="ftkmeans", prune="off")
        assert_same_fit(on, off)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_crash_shrink_reexpand_rebuilds_bounds(self, data, ref,
                                                   executor):
        # the acceptance membership history: a crash mid-fit shrinks
        # onto survivors (fresh workers -> fresh bounds), then
        # re-expands to target (fresh again) — every rebuild must land
        # on the same trajectory
        km = fit(data, n_workers=3, executor=executor, checkpoint_every=2,
                 target_workers=3,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3
        kinds = [e["kind"] for e in km.dist_trace_]
        assert "shrink" in kinds and "expand" in kinds

    def test_promote_keeps_survivor_bounds_warm(self, data, ref):
        # promotion rebuilds only the dead id: the survivors keep their
        # engines (and bounds history) across the recovery
        km = fit(data, n_workers=3, executor="serial", checkpoint_every=2,
                 hot_spares=1,
                 worker_faults=WorkerFaultInjector.crash_at(0, 4))
        assert_same_fit(km, ref)
        assert km.dist_promotions_ == 1


def _fleet_log():
    """An event bus plus the list its fleet-sourced events land in."""
    bus, events = EventBus(), []
    bus.subscribe(lambda e: events.append(e) if e.source == "fleet"
                  else None)
    return bus, events


class TestFleetEventLog:
    """Satellite: the structured fleet events fire synchronously and in
    order for every membership action."""

    def test_kill_promote_event_ordering(self, data, ref):
        bus, events = _fleet_log()
        km = fit(data, n_workers=3, executor="serial", checkpoint_every=2,
                 hot_spares=1, event_bus=bus,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        kinds = [e.kind for e in events]
        assert kinds == ["promote"]
        assert events[0].fields["lost"] == [1]
        assert events[0].fields["survivors"] == [0, 2]

    def test_kill_shrink_expand_event_ordering(self, data, ref):
        bus, events = _fleet_log()
        km = fit(data, n_workers=3, executor="serial", checkpoint_every=2,
                 target_workers=3, event_bus=bus,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        kinds = [e.kind for e in events]
        assert kinds == ["shrink", "expand"]
        assert events[0].fields["lost"] == [1]
        assert events[1].fields["grown"] == [1]
        assert events[1].fields["members"] == [0, 1, 2]

    def test_heartbeat_events_are_emitted_and_ordered(self):
        bus, events = _fleet_log()

        class _Ex:
            def heartbeat(self, iteration, timeout):
                pass

        mgr = FleetManager(heartbeat_interval=0.0001, event_bus=bus)
        mgr.executor = _Ex()
        for it in (1, 2, 3):
            mgr._last_beat = 0.0            # force the interval elapsed
            mgr.maybe_heartbeat(it)
        assert [e.kind for e in events] == ["heartbeat"] * 3
        assert [e.fields["iteration"] for e in events] == [1, 2, 3]

    def test_heartbeat_failure_logged_before_recovery(self):
        # the kill -> promote unit ordering: the failed sweep logs
        # first (before its exception propagates), the promote follows
        bus, events = _fleet_log()

        class _Crash(Exception):
            failed_ids = [1]

        class _Ex:
            def heartbeat(self, iteration, timeout):
                raise _Crash()

            def spares_ready(self):
                return 1

            def replace_workers(self, factory, lost):
                pass

            def prewarm_spares(self, n):
                pass

        mgr = FleetManager(target_workers=2, hot_spares=1,
                           heartbeat_interval=0.0001, event_bus=bus)
        mgr.executor = _Ex()
        mgr._last_beat = 0.0
        with pytest.raises(_Crash):
            mgr.maybe_heartbeat(5)
        plan = ShardPlan.build(512, 2, 256)
        mgr.recover(plan, lambda p: (lambda wid: None), _Crash())
        assert [e.kind for e in events] == ["heartbeat_failed", "promote"]
        assert events[0].fields["iteration"] == 5
        assert events[0].fields["failed_ids"] == [1]
        assert events[1].fields["lost"] == [1]

    def test_no_hook_no_events_no_crash(self, data, ref):
        km = fit(data, n_workers=2, executor="serial", checkpoint_every=2,
                 hot_spares=1,
                 worker_faults=WorkerFaultInjector.crash_at(0, 3))
        assert_same_fit(km, ref)


class TestWorkerCancellation:
    """Satellite (carried follow-up): the engine's cooperative
    cancellation token, checked inside the chunk loop, bounds how long
    an abandoned thread-backend worker keeps computing."""

    def _factory(self, x, plan, cfg):
        return functools.partial(build_worker, x=x, plan=plan, cfg=cfg,
                                 n_clusters=K)

    def test_worker_cancel_aborts_assignment(self, data):
        x, y0 = data
        cfg = KMeansConfig(n_clusters=K, chunk_bytes=8 << 10, seed=0)
        plan = ShardPlan.build(len(x), 1, 256)
        w = build_worker(0, x=x, plan=plan, cfg=cfg, n_clusters=K)
        try:
            w.run_round(y0, 1, None)        # healthy round first
            w.cancel()
            with pytest.raises(EngineCancelled):
                w.run_round(y0, 2, None)
        finally:
            w.close()

    def test_stalled_thread_worker_stops_within_bounded_chunks(self, data):
        # a worker wedged mid-round (stall directive) blows the round
        # deadline; collect_round must cancel it so the abandoned
        # daemon thread stops at its first chunk boundary instead of
        # computing the whole shard
        x, y0 = data
        cfg = KMeansConfig(n_clusters=K, chunk_bytes=8 << 10, seed=0)
        plan = ShardPlan.build(len(x), 2, 256)
        ex = make_executor("thread")
        ex.round_timeout = 0.25
        ex.start(self._factory(x, plan, cfg), plan.worker_ids)
        try:
            ex.send_round(y0, 1, {0: {"stall_s": 1.0}})
            with pytest.raises(Exception) as ei:
                ex.collect_round()
            assert list(getattr(ei.value, "failed_ids", ())) == [0]
            # the stall runs dry ~0.75 s after the deadline fired; the
            # cancelled assign must then abort on its first chunk check
            task = ex._inflight[0]
            assert task.done.wait(5.0)
            assert isinstance(task.exc, EngineCancelled)
            eng = ex._workers[0].kernel.engine
            assert eng.stats.gemm_calls == 0   # not one chunk computed
        finally:
            ex.shutdown()

    def test_teardown_cancels_running_workers(self, data):
        # a restart with a round in flight abandons its tasks; teardown
        # must cancel them so the daemon threads die at the next chunk
        x, y0 = data
        cfg = KMeansConfig(n_clusters=K, chunk_bytes=8 << 10, seed=0)
        plan = ShardPlan.build(len(x), 2, 256)
        ex = make_executor("thread")
        ex.start(self._factory(x, plan, cfg), plan.worker_ids)
        try:
            ex.send_round(y0, 1, {0: {"stall_s": 1.0}})
            time.sleep(0.05)                # let the round start
            tasks = dict(ex._inflight)
            ex.restart(self._factory(x, plan, cfg), plan.worker_ids)
            assert tasks[0].done.wait(5.0)
            assert isinstance(tasks[0].exc, EngineCancelled)
        finally:
            ex.shutdown()

    def test_cancelled_worker_fit_still_bit_exact(self, data, ref):
        # end to end: a stall that forces the deadline + cancel path
        # must not disturb the recovered fit's bits
        km = fit(data, n_workers=3, executor="thread", checkpoint_every=2,
                 target_workers=3, round_timeout=0.25,
                 worker_faults=WorkerFaultInjector.stall_at(
                     1, 4, stall_s=1.0))
        assert_same_fit(km, ref)
