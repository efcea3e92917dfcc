"""Self-healing membership: heartbeats catch wedged workers between
rounds, hot spares promote in place, a shrunken fleet re-expands back
to its target — and every membership history stays bit-identical to
the single-worker fit."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FTKMeans
from repro.core.accumulate import StreamedAccumulator, accumulate_oneshot
from repro.core.config import KMeansConfig
from repro.core.engine import transpose_blocked
from repro.dist import (
    CheckpointStore,
    Coordinator,
    FleetManager,
    WorkerFaultInjector,
    WorkerFaultPlan,
    make_executor,
)
from repro.dist.faults import CRASH, STALL, WEDGE

M, N_FEATURES, K = 1537, 12, 7

#: tight heartbeat cadence: every round boundary sweeps (the rate
#: limiter compares against monotonic seconds; in-process rounds are
#: ~1 ms, so the interval must sit well below one round)
HEARTBEAT = 0.0005

#: a serial ping blocks the coordinator thread for the whole wedge, so
#: wedges stay short on the in-process backends
SHORT_WEDGE = 0.5


class _PingWorker:
    """Minimal round + heartbeat protocol for executor-level tests."""

    def __init__(self, wid):
        self.wid = wid

    def run_round(self, y, iteration, directive):
        return ("ok", self.wid, iteration)

    def ping(self):
        return True

    def close(self):
        pass


def _ping_factory(wid):
    return _PingWorker(wid)


class _SleepyWorker(_PingWorker):
    """Sleeps on directive — a worker wedged mid-round."""

    def run_round(self, y, iteration, directive):
        import time

        if directive and "sleep_s" in directive:
            time.sleep(directive["sleep_s"])
        return ("ok", self.wid, iteration)


def _sleepy_factory(wid):
    return _SleepyWorker(wid)


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


class TestHeartbeat:
    """A worker that answers its round and then wedges is invisible to
    the round deadline until the *next* round blows it; the heartbeat
    catches it between rounds instead."""

    def test_process_wedge_caught_by_heartbeat(self, x, ref):
        # the wedge sleeps 600 s — without the heartbeat the fit would
        # stall a full round deadline (or forever with none configured)
        km = fit(x, n_workers=2, executor="process", checkpoint_every=2,
                 elastic=True, heartbeat_interval=HEARTBEAT,
                 worker_faults=WorkerFaultInjector.wedge_at(0, 3))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.dist_heartbeat_failures_ == 1
        hb = [e for e in km.dist_trace_
              if e.get("detector") == "heartbeat"]
        assert hb and hb[0]["worker"] == 0

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_wedge_caught_by_heartbeat(self, x, ref, executor):
        km = fit(x, n_workers=2, executor=executor, checkpoint_every=2,
                 elastic=True, heartbeat_interval=HEARTBEAT,
                 worker_faults=WorkerFaultInjector.wedge_at(
                     1, 3, wedge_s=SHORT_WEDGE))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 1
        assert km.dist_heartbeat_failures_ == 1

    def test_heartbeat_detection_beats_round_deadline(self, x, ref):
        # generous round deadline (5 s): the deadline alone would burn
        # it all before classifying; the heartbeat evicts the wedge in
        # well under half that
        import time

        t0 = time.perf_counter()
        km = fit(x, n_workers=2, executor="process", checkpoint_every=2,
                 elastic=True, round_timeout=5.0,
                 heartbeat_interval=HEARTBEAT,
                 worker_faults=WorkerFaultInjector.wedge_at(0, 3))
        wall = time.perf_counter() - t0
        assert_same_fit(km, ref)
        assert km.dist_heartbeat_failures_ == 1
        assert wall < 4.0

    def test_heartbeat_requires_no_round_in_flight(self):
        ex = make_executor("process")
        ex.start(_ping_factory, (0, 1))
        try:
            ex.send_round(np.zeros(4), 1, {})
            with pytest.raises(RuntimeError):
                ex.heartbeat(1, 0.5)
            ex.collect_round()
            ex.heartbeat(1, 0.5)       # idle: fine
        finally:
            ex.shutdown()

    def test_rate_limiter_skips_sweeps_inside_interval(self):
        import time

        calls = []

        class _Ex:
            def heartbeat(self, iteration, timeout):
                calls.append((iteration, timeout))

        mgr = FleetManager(heartbeat_interval=3600.0)
        mgr.executor = _Ex()
        mgr._last_beat = time.monotonic() - 7200   # interval elapsed
        mgr.maybe_heartbeat(1)
        mgr.maybe_heartbeat(2)
        mgr.maybe_heartbeat(3)
        assert len(calls) == 1             # one sweep per hour, not three
        assert calls[0][1] == 3600.0       # timeout == max(0.2, interval)

    def test_disabled_heartbeat_never_touches_executor(self):
        mgr = FleetManager(hot_spares=0)
        mgr.executor = object()            # would explode if pinged
        mgr.maybe_heartbeat(1)


class TestHotSpares:
    """Pre-booted spares turn worker loss into an in-place promotion:
    the plan never changes and the survivors keep running."""

    @staticmethod
    def _await_spares(ex, n, budget_s=30.0):
        import time

        deadline = time.monotonic() + budget_s
        while ex.spares_ready() < n and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ex.spares_ready() >= n

    def test_prewarm_and_promote_executor_level(self):
        ex = make_executor("process")
        ex.start(_ping_factory, (0, 1, 2))
        try:
            ex.prewarm_spares(2)
            self._await_spares(ex, 2)
            ex._kill_worker(1)             # simulate a death
            ex.replace_workers(_ping_factory, [1])
            out = ex.run_round(np.zeros(4), 5, {})
            assert [r[:2] for r in out] == [("ok", 0), ("ok", 1), ("ok", 2)]
            assert ex.spares_ready() == 1  # one spare was consumed
        finally:
            ex.shutdown()

    def test_crash_with_spare_promotes_in_place(self, x):
        # the spare is provisioned and *awaited* before the fit starts,
        # so the promote/shrink decision at the crash is deterministic
        ex = make_executor("process")
        ex.prewarm_spares(1)
        self._await_spares(ex, 1)
        y0 = x[:K].copy()
        ref0 = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                        max_iter=10, init_centroids=y0).fit(x)
        cfg = KMeansConfig(n_clusters=K, n_workers=2, seed=3, max_iter=10,
                           checkpoint_every=2, hot_spares=1)
        coord = Coordinator(
            cfg, executor=ex,
            worker_faults=WorkerFaultInjector.crash_at(0, 3))
        res = coord.fit(x, y0)
        assert np.array_equal(res.centroids, ref0.cluster_centers_)
        assert res.plan.n_workers == 2     # never shrank
        assert res.promotions == 1
        assert res.expands == 0 and res.shrinks == 0
        kinds = [e["kind"] for e in res.trace]
        assert kinds == ["crash", "restore", "promote"]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_spare_tokens_promote(self, x, ref, executor):
        # in-process backends model spares as promotion tokens; the
        # promote path (rebuild dead ids only, plan unchanged) is
        # identical
        km = fit(x, n_workers=3, executor=executor, checkpoint_every=2,
                 hot_spares=1,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3
        assert km.dist_promotions_ == 1

    def test_exhausted_spares_fall_back_to_shrink_expand(self, x, ref):
        # two losses, one spare: the first promotes, the second finds
        # the pool still re-warming or empty and shrinks — then regrows
        faults = WorkerFaultInjector([WorkerFaultPlan(CRASH, 0, 3),
                                      WorkerFaultPlan(CRASH, 1, 5)])
        km = fit(x, n_workers=3, executor="serial", checkpoint_every=2,
                 hot_spares=1, target_workers=3, worker_faults=faults)
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3          # back at target either way
        assert km.dist_promotions_ + km.dist_expands_ >= 2


class TestSpawnReExpand:
    """The acceptance scenario: kill -> shrink -> spawn -> re-expand ->
    converge, finishing at the original target fleet size."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_kill_then_reexpand_to_target(self, x, ref, executor):
        km = fit(x, n_workers=3, executor=executor, checkpoint_every=2,
                 target_workers=3,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3          # re-expanded, not shrunk
        assert km.dist_expands_ == 1
        kinds = [e["kind"] for e in km.dist_trace_]
        assert kinds == ["crash", "restore", "shrink", "expand"]
        (expand,) = [e for e in km.dist_trace_ if e["kind"] == "expand"]
        assert expand["members"] == [0, 1, 2]   # original ids restored

    def test_spawn_hook_gates_expansion(self, x, ref):
        asked = []

        def hook(n):
            asked.append(n)
            return 0                       # budget: no new workers

        y0 = x[:K].copy()
        ref0 = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                        max_iter=10, init_centroids=y0).fit(x)
        cfg = KMeansConfig(n_clusters=K, n_workers=3, seed=3, max_iter=10,
                           checkpoint_every=2, target_workers=3)
        coord = Coordinator(
            cfg, spawn_hook=hook,
            worker_faults=WorkerFaultInjector.crash_at(1, 4))
        res = coord.fit(x, y0)
        assert np.array_equal(res.centroids, ref0.cluster_centers_)
        assert res.plan.n_workers == 2     # expansion suppressed ...
        assert res.expands == 0
        assert asked and all(n == 1 for n in asked)   # ... but asked for

    def test_spawn_hook_never_consulted_for_promotion(self, x):
        def hook(n):
            raise AssertionError("promotion must not consult spawn_hook")

        y0 = x[:K].copy()
        cfg = KMeansConfig(n_clusters=K, n_workers=2, seed=3, max_iter=10,
                           checkpoint_every=2, hot_spares=1)
        coord = Coordinator(
            cfg, spawn_hook=hook, executor="serial",
            worker_faults=WorkerFaultInjector.crash_at(0, 3))
        res = coord.fit(x, y0)
        assert res.promotions == 1

    @pytest.mark.parametrize("executor", ["process", "serial", "thread"])
    def test_kill_spawn_recovery_persists_only_snapshots(self, x, tmp_path,
                                                         executor):
        # the subprocess acceptance test (and its in-process twins): a
        # killed worker's replacement boots onto the same shard rows and
        # rebuilds its norms itself; the coordinator's snapshots are the
        # only files the fit writes
        y0 = x[:K].copy()
        ref0 = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                        max_iter=10, init_centroids=y0).fit(x)
        cfg = KMeansConfig(n_clusters=K, n_workers=2, seed=3, max_iter=10,
                           checkpoint_every=2, target_workers=2,
                           executor=executor)
        coord = Coordinator(
            cfg, checkpoint=CheckpointStore(tmp_path),
            worker_faults=WorkerFaultInjector.crash_at(0, 3))
        res = coord.fit(x, y0)
        assert np.array_equal(res.centroids, ref0.cluster_centers_)
        assert res.plan.n_workers == 2
        assert res.expands + res.promotions >= 1
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names and all(n.startswith("ckpt_") and n.endswith(".pkl")
                             for n in names), names


# -- random membership histories --------------------------------------

_FAULTS = st.lists(
    st.tuples(st.sampled_from([CRASH, STALL, WEDGE]),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=2, max_value=8)),
    min_size=0, max_size=2, unique_by=lambda t: (t[1], t[2]))


def _injector(history):
    plans = []
    for kind, wid, it in history:
        if kind == STALL:
            plans.append(WorkerFaultPlan(STALL, wid, it, stall_s=0.6))
        elif kind == WEDGE:
            plans.append(WorkerFaultPlan(WEDGE, wid, it,
                                         wedge_s=SHORT_WEDGE))
        else:
            plans.append(WorkerFaultPlan(CRASH, wid, it))
    return WorkerFaultInjector(plans)


class TestMembershipHistoryProperty:
    """Hypothesis: ANY interleaving of kills, stalls and wedges —
    promoted, shrunk, re-expanded, possibly repeatedly — produces the
    single-worker fit bit for bit."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(history=_FAULTS, hot_spares=st.integers(0, 1))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_histories_bit_identical(self, x, ref, executor,
                                                history, hot_spares):
        km = fit(x, n_workers=3, executor=executor, checkpoint_every=2,
                 target_workers=3, hot_spares=hot_spares,
                 round_timeout=0.15, heartbeat_interval=HEARTBEAT,
                 worker_faults=_injector(history))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3          # always healed back to target

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(history=st.lists(
        st.tuples(st.sampled_from([CRASH, WEDGE]),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=2, max_value=8)),
        min_size=1, max_size=2, unique_by=lambda t: (t[1], t[2])))
    def test_process_histories_bit_identical(self, x, ref, history):
        km = fit(x, n_workers=3, executor="process", checkpoint_every=2,
                 target_workers=3, hot_spares=1,
                 heartbeat_interval=HEARTBEAT,
                 worker_faults=_injector(history))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3


class TestOperandHoist:
    """Satellites: the blocked transpose and the accumulator's bound
    operand are pure layout changes — bits never move."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (1024, 12),
                                       (5000, 64), (1537, 7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transpose_blocked_matches_plain_transpose(self, shape, dtype):
        rng = np.random.default_rng(0)
        x = rng.random(shape).astype(dtype)
        out = transpose_blocked(x)
        assert out.flags["C_CONTIGUOUS"]
        assert out.dtype == x.dtype
        assert np.array_equal(out, np.ascontiguousarray(x.T))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bound_operand_sums_and_checksums_bits_identical(self,
                                                             weighted):
        # the accumulator reads the bound transposed operand instead of
        # re-transposing per chunk — the sums and the checksums formed
        # off the same staged rows keep their bits
        rng = np.random.default_rng(2)
        x = rng.random((997, 9), dtype=np.float64).astype(np.float32)
        labels = rng.integers(0, K, size=997)
        w = rng.random(997) if weighted else None
        out = []
        for x_t in (None, transpose_blocked(x)):
            acc = StreamedAccumulator(K, 9)
            acc.bind_weights(w)
            acc.bind_source_t(x_t)
            for lo in range(0, 997, 300):
                acc.feed(x[lo:lo + 300], labels[lo:lo + 300])
            out.append((acc.packed(), acc.checksums()))
        (plain, plain_c), (bound, bound_c) = out
        assert np.array_equal(plain, bound)
        assert np.array_equal(plain_c.view(np.uint64),
                              bound_c.view(np.uint64))
        assert np.array_equal(plain,
                              accumulate_oneshot(x, labels, K,
                                                 sample_weight=w))


class TestRestartInFlight:
    """Recovery restarts the executor with a round sent but not (fully)
    collected; the restart must discard that round, not replay it."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_restart_discards_uncollected_round(self, executor):
        ex = make_executor(executor)
        ex.start(_ping_factory, (0, 1))
        try:
            ex.send_round(np.zeros(4), 1, {})
            ex.restart(_ping_factory, (0, 1))
            out = ex.run_round(np.zeros(4), 2, {})
            assert [r[2] for r in out] == [2, 2]   # no stale round 1
        finally:
            ex.shutdown()

    def test_restart_abandons_wedged_round_quickly(self):
        # the uncollected round holds a child that would sleep 600 s:
        # restart must escalate past it after the join grace (shortened
        # here), not drain it
        import time

        ex = make_executor("process")
        ex.JOIN_TIMEOUT = 0.5
        ex.start(_sleepy_factory, (0, 1))
        try:
            ex.send_round(np.zeros(4), 1, {0: {"sleep_s": 600.0}})
            time.sleep(0.1)                # let the sleeper start
            t0 = time.monotonic()
            ex.restart(_sleepy_factory, (0, 1))
            out = ex.run_round(np.zeros(4), 2, {})
            assert time.monotonic() - t0 < 15.0
            assert [r[2] for r in out] == [2, 2]
        finally:
            ex.shutdown()


class TestConfigValidation:
    def test_knob_bounds(self):
        with pytest.raises(ValueError):
            KMeansConfig(target_workers=0)
        with pytest.raises(ValueError):
            KMeansConfig(hot_spares=-1)
        with pytest.raises(ValueError):
            KMeansConfig(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            KMeansConfig(n_workers=2, target_workers=3)

    def test_fleet_manager_bounds(self):
        with pytest.raises(ValueError):
            FleetManager(target_workers=0)
        with pytest.raises(ValueError):
            FleetManager(hot_spares=-1)
        with pytest.raises(ValueError):
            FleetManager(heartbeat_interval=-1.0)

    def test_knobs_reach_the_fleet(self):
        cfg = KMeansConfig(n_workers=3, target_workers=2, hot_spares=1,
                           heartbeat_interval=2.5)
        coord = Coordinator(cfg)
        assert coord.fleet.target_workers == 2
        assert coord.fleet.hot_spares == 1
        assert coord.fleet.heartbeat_interval == 2.5
        assert coord.fleet.manages_membership

    def test_default_fleet_is_inert(self):
        coord = Coordinator(KMeansConfig(n_workers=2))
        assert not coord.fleet.manages_membership

    def test_estimator_exposes_selfheal_attrs(self, x, ref):
        km = fit(x, n_workers=2, hot_spares=1, heartbeat_interval=5.0)
        assert_same_fit(km, ref)
        assert km.dist_promotions_ == 0
        assert km.dist_expands_ == 0
        assert km.dist_heartbeat_failures_ == 0
