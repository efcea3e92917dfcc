"""Failure detection + elastic membership: stalls are detected within
the round deadline, recovery shrinks onto the survivors, and every
membership history stays bit-identical to the single-worker fit."""

import numpy as np
import pytest

from repro import FTKMeans
from repro.core.config import KMeansConfig
from repro.dist import (
    Coordinator,
    ProcessExecutor,
    WorkerFaultInjector,
    WorkerFaultPlan,
    WorkerStall,
)
from repro.dist.faults import CRASH, STALL

M, N_FEATURES, K = 1537, 12, 7

#: generous vs. the ~ms rounds of this tiny shape, tiny vs. the sleeps
DEADLINE = 1.0


class _EchoWorker:
    """Minimal round protocol for executor-level tests."""

    def __init__(self, wid):
        self.wid = wid

    def run_round(self, y, iteration, directive):
        return ("ok", self.wid, iteration)

    def close(self):
        pass


def _echo_factory(wid):
    return _EchoWorker(wid)


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


class TestStallDetection:
    """The bugfix: a stalled worker used to hang `run_round` forever."""

    def test_process_stall_completes_within_deadline_budget(self, x, ref):
        # the acceptance scenario: the worker sleeps 100x the deadline
        # (it would hang the old blocking recv() forever); the detector
        # terminates it and the fit completes, shrunk and bit-identical
        km = fit(x, n_workers=2, executor="process", checkpoint_every=2,
                 elastic=True, round_timeout=DEADLINE,
                 worker_faults=WorkerFaultInjector.stall_at(
                     0, 3, stall_s=100 * DEADLINE))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.dist_stall_recoveries_ == 1
        assert km.dist_shrinks_ == 1
        assert km.counters_.worker_stalls == 1
        assert km.counters_.worker_crashes == 0
        kinds = [e["kind"] for e in km.dist_trace_]
        assert kinds == ["stall_timeout", "restore", "shrink"]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_backends_detect_stalls(self, x, ref, executor):
        # serial detects retroactively (no preemption), thread at the
        # future deadline — both classify, recover and stay bit-exact
        km = fit(x, n_workers=2, executor=executor, checkpoint_every=2,
                 elastic=True, round_timeout=0.1,
                 worker_faults=WorkerFaultInjector.stall_at(
                     1, 4, stall_s=0.5))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.counters_.worker_stalls == 1

    def test_thread_stall_does_not_block_recovery(self, x, ref):
        # the stalled thread cannot be killed, but recovery must not
        # join it either: the fit's wall time is bounded by detection,
        # not by the stall's duration (the thread is abandoned and
        # reclaimed when its sleep runs dry)
        import time

        t0 = time.perf_counter()
        km = fit(x, n_workers=2, executor="thread", checkpoint_every=2,
                 elastic=True, round_timeout=0.1,
                 worker_faults=WorkerFaultInjector.stall_at(
                     0, 3, stall_s=5.0))
        wall = time.perf_counter() - t0
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert wall < 4.0

    def test_non_elastic_stall_respawns_full_set(self, x, ref):
        km = fit(x, n_workers=2, executor="process", checkpoint_every=2,
                 round_timeout=DEADLINE,
                 worker_faults=WorkerFaultInjector.stall_at(
                     0, 3, stall_s=100 * DEADLINE))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 2          # stalled worker respawned
        assert km.dist_shrinks_ == 0
        assert km.counters_.worker_stalls == 1

    def test_sub_deadline_stall_is_a_tolerated_straggler(self, x, ref):
        km = fit(x, n_workers=2, round_timeout=5.0, elastic=True,
                 worker_faults=WorkerFaultInjector.stall_at(
                     1, 2, stall_s=0.001))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 2          # nothing was lost
        assert km.dist_recoveries_ == 0
        assert km.counters_.worker_stalls == 1   # counted, not escalated

    def test_stall_budget_exhaustion_raises_typed_worker_stall(self, x):
        cfg = KMeansConfig(n_clusters=K, n_workers=2, seed=3, max_iter=6,
                           round_timeout=0.1)
        coord = Coordinator(
            cfg, max_recoveries=0,
            worker_faults=WorkerFaultInjector.stall_at(0, 2, stall_s=0.5))
        with pytest.raises(WorkerStall):
            coord.fit(x, x[:K].copy())

    def test_two_stalls_in_one_round_collected_together(self, x, ref):
        faults = WorkerFaultInjector([
            WorkerFaultPlan(STALL, 0, 3, stall_s=100 * DEADLINE),
            WorkerFaultPlan(STALL, 2, 3, stall_s=100 * DEADLINE)])
        km = fit(x, n_workers=3, executor="process", checkpoint_every=2,
                 elastic=True, round_timeout=DEADLINE, worker_faults=faults)
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.dist_recoveries_ == 1    # one recovery event ...
        assert km.dist_stall_recoveries_ == 2   # ... two workers lost
        assert km.counters_.checkpoint_restores == 1

    def test_crash_plus_stall_in_one_round_cannot_hang(self, x):
        # the drain bugfix: with no round deadline, a crash used to be
        # followed by blocking recv()s — a second, stalled worker then
        # hung recovery forever.  The bounded drain abandons it instead
        # (no deadline was configured, so nothing licenses calling it
        # stalled: it stays a member, and the shrink reaps its child
        # and boots a clean one), while the crashed worker is evicted.
        y0 = x[:K].copy()
        ref = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                       max_iter=10, init_centroids=y0).fit(x)
        faults = WorkerFaultInjector([
            WorkerFaultPlan(CRASH, 0, 3),
            WorkerFaultPlan(STALL, 1, 3, stall_s=600.0)])
        executor = ProcessExecutor()
        executor.DRAIN_TIMEOUT = 0.5       # keep the test fast
        executor.JOIN_TIMEOUT = 0.2        # ... incl. reaping the sleeper
        cfg = KMeansConfig(n_clusters=K, n_workers=3, seed=3, max_iter=10,
                           checkpoint_every=2, elastic=True)
        coord = Coordinator(cfg, executor=executor, worker_faults=faults)
        res = coord.fit(x, y0)
        assert np.array_equal(res.centroids, ref.cluster_centers_)
        assert res.crash_recoveries == 1 and res.stall_recoveries == 0
        assert res.plan.n_workers == 2
        assert sorted(res.plan.worker_ids) == [1, 2]
        assert not any(e["kind"] == "stall_timeout" for e in res.trace)

    def test_serial_collects_stall_and_crash_in_one_round(self, x, ref):
        # a crash must not short-circuit the serial loop: the stall
        # already detected (and any still to come) rides the same
        # exception, so one recovery evicts both
        faults = WorkerFaultInjector([
            WorkerFaultPlan(STALL, 0, 3, stall_s=0.5),
            WorkerFaultPlan(CRASH, 1, 3)])
        km = fit(x, n_workers=3, executor="serial", checkpoint_every=2,
                 elastic=True, round_timeout=0.1, worker_faults=faults)
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.dist_recoveries_ == 1
        assert km.counters_.worker_stalls == 1
        assert km.counters_.worker_crashes == 1

    def test_send_phase_wedge_is_bounded(self):
        # a child wedged *before* its recv leaves the pipe undrained; a
        # broadcast larger than the OS pipe buffer then blocks send()
        # outside any recv deadline.  The bounded send must classify it
        # within the budget instead of hanging the fit forever.
        import os
        import signal
        import time

        ex = ProcessExecutor()
        ex.round_timeout = 0.5
        ex.start(_echo_factory, (0, 1))
        try:
            big = np.zeros(1_000_000)            # ~8 MB >> pipe buffer
            assert [r[0] for r in ex.run_round(big, 1, {})] == ["ok", "ok"]
            os.kill(ex._procs[0].pid, signal.SIGSTOP)   # wedge, alive
            t0 = time.monotonic()
            with pytest.raises(WorkerStall) as exc:
                ex.run_round(big, 2, {})
            assert time.monotonic() - t0 < 10.0
            assert exc.value.stalled_ids == (0,)
            # the per-phase deadline protects the healthy worker: the
            # wedge ate the send budget, not worker 1's answer budget
            assert 1 not in exc.value.failed_ids
        finally:
            ex.shutdown()

    def test_crash_plus_stall_with_deadline_evicts_both(self, x):
        # with a deadline armed, the same round classifies the sleeper
        # as stalled, kills it, and one recovery evicts both at once
        y0 = x[:K].copy()
        ref = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                       max_iter=10, init_centroids=y0).fit(x)
        faults = WorkerFaultInjector([
            WorkerFaultPlan(CRASH, 0, 3),
            WorkerFaultPlan(STALL, 1, 3, stall_s=600.0)])
        cfg = KMeansConfig(n_clusters=K, n_workers=3, seed=3, max_iter=10,
                           checkpoint_every=2, elastic=True,
                           round_timeout=DEADLINE, executor="process")
        coord = Coordinator(cfg, worker_faults=faults)
        res = coord.fit(x, y0)
        assert np.array_equal(res.centroids, ref.cluster_centers_)
        assert res.recoveries == 1         # one event ...
        assert res.crash_recoveries == 1 and res.stall_recoveries == 1
        assert res.plan.n_workers == 1     # ... both evicted
        assert sorted(res.plan.worker_ids) == [2]


class TestElasticBitIdentity:
    """Satellite: crash under n_workers x executors must equal the
    single-worker trajectory bit-for-bit, including the post-shrink
    rounds and the checkpoint restore."""

    @pytest.mark.parametrize("n_workers", [2, 3, 4])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_crash_shrink_bit_identity(self, x, ref, n_workers, executor):
        km = fit(x, n_workers=n_workers, executor=executor,
                 checkpoint_every=2, elastic=True,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        assert km.n_workers_ == n_workers - 1
        assert km.dist_shrinks_ == 1
        assert km.counters_.worker_crashes == 1
        (shrink,) = [e for e in km.dist_trace_ if e["kind"] == "shrink"]
        assert 1 not in shrink["survivors"]
        assert shrink["lost"] == [1]

    def test_restore_resumes_from_latest_checkpoint_after_shrink(self, x):
        km = fit(x, n_workers=3, checkpoint_every=3, elastic=True,
                 worker_faults=WorkerFaultInjector.crash_at(0, 8))
        (restore,) = [e for e in km.dist_trace_ if e["kind"] == "restore"]
        assert restore["iteration"] == 6

    def test_two_sequential_shrinks(self, x, ref):
        faults = WorkerFaultInjector([WorkerFaultPlan(CRASH, 0, 3),
                                      WorkerFaultPlan(CRASH, 2, 7)])
        km = fit(x, n_workers=3, checkpoint_every=2, elastic=True,
                 worker_faults=faults)
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.dist_shrinks_ == 2
        assert km.dist_recoveries_ == 2
        shrinks = [e for e in km.dist_trace_ if e["kind"] == "shrink"]
        assert shrinks[0]["survivors"] == [1, 2]
        assert shrinks[1]["survivors"] == [1]

    def test_stall_then_shrink_with_weights(self, x):
        rng = np.random.default_rng(7)
        w = rng.random(M)
        wref = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                        max_iter=10).fit(x, sample_weight=w)
        km = FTKMeans(n_clusters=K, variant="tensorop", seed=3, max_iter=10,
                      n_workers=3, checkpoint_every=2, elastic=True,
                      round_timeout=0.1,
                      worker_faults=WorkerFaultInjector.stall_at(
                          1, 4, stall_s=0.5)).fit(x, sample_weight=w)
        assert np.array_equal(km.cluster_centers_, wref.cluster_centers_)
        assert np.array_equal(km.labels_, wref.labels_)
        assert km.n_workers_ == 2

    def test_elastic_off_by_default(self, x, ref):
        km = fit(x, n_workers=3, checkpoint_every=2,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3
        assert km.dist_shrinks_ == 0


class TestConfigValidation:
    def test_round_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            KMeansConfig(round_timeout=0.0)
        with pytest.raises(ValueError):
            KMeansConfig(round_timeout=-1.0)

    def test_knobs_reach_the_coordinator(self):
        cfg = KMeansConfig(n_workers=2, elastic=True, round_timeout=2.5)
        coord = Coordinator(cfg)
        assert coord.fleet.elastic is True
        assert coord.executor.round_timeout == 2.5
