"""The coordinator's round loop and the adaptive round deadline.

Every executor runs one sequential round loop: send, stream-merge,
update, tail.  It must stay bit-identical to the serial backend, send
exactly one round per iteration (no round is ever sent ahead of
convergence), and recover from a real worker death.
``round_timeout="auto"`` arms the executor deadline from a trailing
median of observed round times and must catch a genuine stall without
hand tuning.
"""

import numpy as np
import pytest

from repro.core.api import FTKMeans
from repro.core.config import KMeansConfig
from repro.dist.coordinator import Coordinator
from repro.dist.executors import make_executor
from repro.dist.faults import WorkerFaultInjector
from repro.obs.trace import TraceRecorder


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((900, 16)).astype(np.float32)
    return x


def _cfg(**kw):
    base = dict(n_clusters=6, mode="fast", n_workers=3, max_iter=6,
                tol=0.0, seed=0)
    base.update(kw)
    return KMeansConfig(**base)


def _y0(x, n):
    return x[:n].copy()


class TestRoundLoop:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_bit_identical_to_serial(self, data, executor):
        x = data
        serial = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        coord = Coordinator(_cfg(executor=executor))
        res = coord.fit(x, _y0(x, 6))
        assert np.array_equal(serial.centroids, res.centroids)
        assert np.array_equal(serial.labels, res.labels)
        assert serial.inertia_history == res.inertia_history

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_collect_without_send_raises(self, data, executor):
        """Every backend honours the split-phase contract: collecting
        with no round in flight is a typed misuse, not an
        AttributeError/KeyError from uninitialised state."""
        from repro.core.variants import _resolve_tile  # noqa: F401
        from repro.dist.plan import ShardPlan
        from repro.dist.worker import build_worker
        from functools import partial

        x = data
        cfg = _cfg(executor=executor)
        plan = ShardPlan.build(x.shape[0], 2, 256)
        ex = make_executor(executor)
        ex.start(partial(build_worker, x=x, plan=plan, cfg=cfg,
                         n_clusters=6), plan.worker_ids)
        try:
            with pytest.raises(RuntimeError, match="without a sent round"):
                ex.collect_round()
        finally:
            ex.shutdown()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_no_round_sent_past_convergence(self, data, executor,
                                            monkeypatch):
        """A tol-converging fit sends exactly one round per iteration,
        and every broadcast happens between rounds, directly under the
        fit span — never from inside a round's update/tail."""
        x = data
        cls = type(make_executor(executor))
        original = cls.send_round
        sent = []

        def send_round(self, y, iteration, directives):
            sent.append(iteration)
            return original(self, y, iteration, directives)

        monkeypatch.setattr(cls, "send_round", send_round)
        tracer = TraceRecorder()
        res = Coordinator(_cfg(executor=executor, tol=1e-3, max_iter=30),
                          tracer=tracer).fit(x, _y0(x, 6))
        assert res.converged and res.n_iter < 30
        assert sent == list(range(1, res.n_iter + 1))
        bcasts = [s for s in tracer.spans if s.name == "broadcast"]
        assert len(bcasts) == res.n_iter
        assert {s.parent for s in bcasts} == {"fit"}
        serial = Coordinator(_cfg(executor="serial", tol=1e-3, max_iter=30)
                             ).fit(x, _y0(x, 6))
        assert serial.n_iter == res.n_iter
        assert np.array_equal(serial.centroids, res.centroids)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_injected_crash_recovers_to_clean_bits(self, data, executor):
        """A fault-injecting fit runs the same round loop as a clean
        one, and its recovery still lands on the clean bits."""
        x = data
        clean = Coordinator(_cfg(executor=executor)).fit(x, _y0(x, 6))
        coord = Coordinator(
            _cfg(executor=executor, checkpoint_every=2),
            worker_faults=WorkerFaultInjector.crash_at(1, 3))
        res = coord.fit(x, _y0(x, 6))
        assert res.recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)
        assert np.array_equal(clean.labels, res.labels)

    def test_real_crash_without_injector_recovers(self, data):
        """A genuine worker death on a fit with no fault injector
        surfaces from the collect and runs ordinary recovery."""
        x = data
        clean = Coordinator(_cfg(executor="thread")).fit(x, _y0(x, 6))
        coord = Coordinator(_cfg(executor="thread", checkpoint_every=1))
        # kill one worker's round mid-fit without a fault injector
        fired = {"done": False}
        orig = coord.executor.__class__.send_round

        def sabotage(self, y, iteration, directives):
            if iteration == 4 and not fired["done"]:
                fired["done"] = True
                from repro.dist.faults import CRASH, WorkerFaultPlan
                directives = dict(directives)
                directives[0] = {"crash": WorkerFaultPlan(CRASH, 0, 4)}
            return orig(self, y, iteration, directives)

        coord.executor.send_round = sabotage.__get__(coord.executor)
        res = coord.fit(x, _y0(x, 6))
        assert res.recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)


class TestAdaptiveDeadline:
    def test_config_accepts_auto(self):
        cfg = _cfg(round_timeout="auto")
        assert cfg.round_timeout == "auto"
        with pytest.raises(ValueError):
            _cfg(round_timeout="later")
        with pytest.raises(ValueError):
            _cfg(round_timeout=-1.0)

    def test_fixed_float_behaviour_unchanged(self, data):
        x = data
        res = Coordinator(_cfg(executor="serial",
                               round_timeout=30.0)).fit(x, _y0(x, 6))
        ref = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        assert np.array_equal(ref.centroids, res.centroids)

    def test_auto_arms_deadline_from_observed_rounds(self, data):
        """After the warm-up rounds the executor deadline is a multiple
        of the trailing median — present, positive and floored."""
        x = data
        coord = Coordinator(_cfg(executor="serial", round_timeout="auto"))
        assert coord.adaptive_timeout
        assert coord.executor.round_timeout is None  # cold start: unarmed
        coord.fit(x, _y0(x, 6))
        armed = coord.executor.round_timeout
        assert armed is not None
        assert armed >= Coordinator.ADAPTIVE_FLOOR_S

    def test_auto_detects_a_stall(self, data):
        """A worker stalling far past the adaptive deadline is caught
        and recovered, without any hand-tuned budget."""
        x = data
        clean = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        coord = Coordinator(
            _cfg(executor="serial", round_timeout="auto",
                 checkpoint_every=1),
            worker_faults=WorkerFaultInjector.stall_at(
                0, 4, stall_s=Coordinator.ADAPTIVE_FLOOR_S + 0.3))
        res = coord.fit(x, _y0(x, 6))
        assert res.stall_recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)

    def test_auto_deadline_rewarms_after_recovery(self, data):
        """Recovery invalidates the round-time history (an elastic
        shrink makes honest rounds slower): the deadline disarms and
        the post-recovery fit completes without phantom stalls."""
        x = data
        clean = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        coord = Coordinator(
            _cfg(executor="serial", round_timeout="auto",
                 checkpoint_every=1, elastic=True, n_workers=3),
            worker_faults=WorkerFaultInjector.stall_at(
                0, 4, stall_s=Coordinator.ADAPTIVE_FLOOR_S + 0.3))
        # deadline would be armed when the stall fires; after recovery
        # the history must be gone so the (larger-shard) survivors get
        # a fresh warm-up instead of the stale pre-shrink median
        res = coord.fit(x, _y0(x, 6))
        assert res.stall_recoveries == 1 and res.shrinks == 1
        # exactly one recovery: no phantom-stall spiral on the survivors
        assert res.recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)

    def test_auto_bit_identical_on_clean_fit(self, data):
        x = data
        ref = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        res = Coordinator(_cfg(executor="thread",
                               round_timeout="auto")).fit(x, _y0(x, 6))
        assert np.array_equal(ref.centroids, res.centroids)
        assert np.array_equal(ref.labels, res.labels)

    def test_estimator_accepts_auto(self, data):
        x = data
        km = FTKMeans(n_clusters=5, n_workers=2, executor="thread",
                      round_timeout="auto", max_iter=4, tol=0.0,
                      seed=0).fit(x)
        single = FTKMeans(n_clusters=5, max_iter=4, tol=0.0,
                          seed=0).fit(x)
        assert np.array_equal(km.cluster_centers_, single.cluster_centers_)
