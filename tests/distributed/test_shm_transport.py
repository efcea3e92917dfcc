"""Zero-copy shared-memory data plane: bit-identity against the pipe
transport for any fleet × membership history, seqlock stamp
validation, pipe traffic demoted to control tokens, and kill-anywhere
segment cleanup of ``/dev/shm``."""

import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FTKMeans
from repro.core.config import KMeansConfig
from repro.dist import WorkerFaultInjector, WorkerFaultPlan
from repro.dist.faults import CRASH, WEDGE
from repro.dist.shm import (
    SEGMENT_PREFIX,
    ShmSession,
    StaleGenerationError,
    attach_array,
    read_broadcast,
    write_slot,
)
from repro.obs.trace import TraceRecorder

M, N_FEATURES, K = 1537, 12, 7

HEARTBEAT = 0.0005
SHORT_WEDGE = 0.5


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


def shm_entries(prefix=SEGMENT_PREFIX):
    try:
        return [e for e in os.listdir("/dev/shm") if e.startswith(prefix)]
    except OSError:  # pragma: no cover - non-Linux fallback
        return []


class TestConfigValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            KMeansConfig(transport="bogus")

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_explicit_shm_needs_process_executor(self, executor):
        with pytest.raises(ValueError, match="requires executor='process'"):
            KMeansConfig(transport="shm", executor=executor)

    def test_auto_resolution(self):
        cfg = KMeansConfig()
        assert cfg.resolved_transport("process") == "shm"
        assert cfg.resolved_transport("serial") == "pipe"
        assert cfg.resolved_transport("thread") == "pipe"
        pinned = KMeansConfig(transport="pipe", executor="process")
        assert pinned.resolved_transport("process") == "pipe"

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_fits_report_pipe(self, x, executor):
        km = fit(x, n_workers=2, executor=executor)
        assert km.dist_transport_ == "pipe"
        assert km.dist_broadcast_bytes_ == 0
        assert km.dist_gather_bytes_ == 0


class TestBitIdentity:
    """The shm fit must equal the pipe fit — and the single-worker
    fit — bit for bit; the zero-copy plane is a transport, not a
    numerics change."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_shm_equals_pipe_and_single(self, x, ref, workers):
        shm = fit(x, n_workers=workers, executor="process",
                  transport="shm")
        pipe = fit(x, n_workers=workers, executor="process",
                   transport="pipe")
        assert shm.dist_transport_ == "shm"
        assert pipe.dist_transport_ == "pipe"
        assert_same_fit(shm, pipe)
        assert_same_fit(shm, ref)

    def test_auto_resolves_to_shm_on_process(self, x, ref):
        km = fit(x, n_workers=2, executor="process")
        assert km.dist_transport_ == "shm"
        assert_same_fit(km, ref)

    def test_weighted_fit_bit_identical(self, x):
        rng = np.random.default_rng(7)
        w = rng.integers(1, 4, size=x.shape[0]).astype(np.float64)
        base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=10)
        single = FTKMeans(**base).fit(x, sample_weight=w)
        km = FTKMeans(**base, n_workers=3, executor="process",
                      transport="shm").fit(x, sample_weight=w)
        assert_same_fit(km, single)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workers=st.integers(min_value=2, max_value=4))
    def test_fleet_widths_bit_identical(self, x, ref, workers):
        km = fit(x, n_workers=workers, executor="process",
                 transport="shm")
        assert_same_fit(km, ref)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(history=st.lists(
        st.tuples(st.sampled_from([CRASH, WEDGE]),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=2, max_value=8)),
        min_size=1, max_size=2, unique_by=lambda t: (t[1], t[2])))
    def test_membership_histories_bit_identical(self, x, ref, history):
        plans = [WorkerFaultPlan(kind, wid, it,
                                 wedge_s=SHORT_WEDGE if kind == WEDGE
                                 else 0.0)
                 for kind, wid, it in history]
        km = fit(x, n_workers=3, executor="process", transport="shm",
                 checkpoint_every=2, target_workers=3, hot_spares=1,
                 heartbeat_interval=HEARTBEAT,
                 worker_faults=WorkerFaultInjector(plans))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3


class TestByteCounters:
    """The pipes under shm carry control tokens, not payloads — and the
    counters land in the metrics registry and the span metadata."""

    def test_shm_moves_gather_off_the_pipes(self, x):
        pipe = fit(x, n_workers=3, executor="process", transport="pipe")
        shm = fit(x, n_workers=3, executor="process", transport="shm")
        assert pipe.dist_gather_bytes_ > 4 * shm.dist_gather_bytes_
        # labels alone dwarf any control token: the pipe gather must
        # account for them, the shm acks must stay token-sized
        assert pipe.dist_gather_bytes_ > M * 8
        rounds = shm.n_iter_ + 1
        assert shm.dist_gather_bytes_ / (rounds * 3) <= 4096

    def test_shm_broadcast_is_token_sized(self, x):
        shm = fit(x, n_workers=2, executor="process", transport="shm")
        rounds = shm.n_iter_ + 1
        assert shm.dist_broadcast_bytes_ / (rounds * 2) <= 4096

    def test_counters_reach_metrics_registry(self, x):
        km = fit(x, n_workers=2, executor="process", transport="shm")
        assert km.dist_metrics_["dist.broadcast_bytes"] == \
            km.dist_broadcast_bytes_
        assert km.dist_metrics_["dist.gather_bytes"] == \
            km.dist_gather_bytes_

    def test_spans_carry_payload_bytes(self, x):
        tr = TraceRecorder()
        km = fit(x, n_workers=2, executor="process", transport="shm",
                 tracer=tr)
        bcasts = [s for s in tr.spans if s.name == "broadcast"]
        # results are gathered as they arrive, under the compute span
        gathers = [s for s in tr.spans if s.name == "compute"]
        assert bcasts and gathers
        assert all("payload_bytes" in s.meta for s in bcasts + gathers)
        assert sum(s.meta["payload_bytes"] for s in bcasts) == \
            km.dist_broadcast_bytes_
        assert sum(s.meta["payload_bytes"] for s in gathers) == \
            km.dist_gather_bytes_


class TestSeqlock:
    """Generation stamps are validated on every read: a stale buffer is
    a hard :class:`StaleGenerationError`, never a silent wrong round."""

    def _session(self, rows=32, n=4, k=3):
        rng = np.random.default_rng(0)
        x = rng.random((rows, n), dtype=np.float64).astype(np.float32)
        return ShmSession(x), x

    def test_broadcast_round_trip_and_stale_rejected(self):
        sess, x = self._session()
        try:
            y = x[:3].astype(np.float32)
            ref, gen = sess.publish(y, iteration=0)
            assert np.array_equal(read_broadcast(ref, gen), y)
            with pytest.raises(StaleGenerationError, match="generation"):
                read_broadcast(ref, gen + 1)
            _, gen2 = sess.publish(y + 1, iteration=1)
            assert gen2 == gen + 1
            with pytest.raises(StaleGenerationError):
                read_broadcast(ref, gen)     # old token, new buffer
        finally:
            sess.close()

    def test_slot_round_trip_and_stale_rejected(self):
        sess, x = self._session()
        try:
            plan = SimpleNamespace(shards=[SimpleNamespace(
                worker_id=0, lo=0, hi=x.shape[0])])
            sess.make_slots(plan, n_clusters=3, n_features=4,
                            dtype=np.float32)
            result = SimpleNamespace(
                iteration=5,
                labels=np.arange(x.shape[0], dtype=np.int64),
                best=np.full(x.shape[0], 2.5, dtype=np.float32),
                partial=np.ones((3, 5), dtype=np.float64))
            write_slot(sess.slot_ref(0), result, generation=9)
            out = sess.read_slot(0, expected_generation=9)
            assert np.array_equal(out["labels"], result.labels)
            assert np.array_equal(out["best"], result.best)
            assert np.array_equal(out["partial"], result.partial)
            assert out["iteration"] == 5
            with pytest.raises(StaleGenerationError, match="worker 0"):
                sess.read_slot(0, expected_generation=10)
        finally:
            sess.close()

    def test_slot_copies_do_not_alias_the_segment(self):
        sess, x = self._session()
        try:
            plan = SimpleNamespace(shards=[SimpleNamespace(
                worker_id=0, lo=0, hi=x.shape[0])])
            sess.make_slots(plan, n_clusters=3, n_features=4,
                            dtype=np.float32)
            result = SimpleNamespace(
                iteration=0,
                labels=np.zeros(x.shape[0], dtype=np.int64),
                best=np.zeros(x.shape[0], dtype=np.float32),
                partial=np.zeros((3, 5), dtype=np.float64))
            write_slot(sess.slot_ref(0), result, generation=1)
            out = sess.read_slot(0, expected_generation=1)
            # a faster overlapped round may rewrite the slot while the
            # ABFT check still holds the previous partials
            result.partial += 7
            write_slot(sess.slot_ref(0), result, generation=2)
            assert np.all(out["partial"] == 0)
        finally:
            sess.close()

    def test_mid_fit_broadcast_shape_change_rejected(self):
        sess, x = self._session()
        try:
            sess.publish(x[:3], iteration=0)
            with pytest.raises(ValueError, match="shape changed"):
                sess.publish(x[:4], iteration=1)
        finally:
            sess.close()

    def test_attach_array_is_zero_copy(self):
        sess, x = self._session()
        try:
            view = attach_array(sess.data_ref)
            assert np.array_equal(view, x)
            assert view.base is not None   # a view over the segment
        finally:
            sess.close()


class TestCleanup:
    """kill-anywhere must leave no stranded ``/dev/shm`` segments."""

    def test_fit_leaves_no_segments(self, x):
        fit(x, n_workers=2, executor="process", transport="shm")
        # segment names embed the creator pid — the coordinator runs in
        # this process, so this audits exactly this test's segments
        assert shm_entries(f"{SEGMENT_PREFIX}-{os.getpid()}-") == []

    def test_session_close_is_idempotent(self):
        rng = np.random.default_rng(0)
        sess = ShmSession(rng.random((16, 3)).astype(np.float32))
        prefix = sess.data_ref.name.rsplit("-", 1)[0]
        assert shm_entries(prefix)
        sess.close()
        sess.close()
        assert shm_entries(prefix) == []

    def test_sigkill_mid_fit_unlinks_segments(self, tmp_path):
        """SIGKILL the coordinator mid-fit: the workers exit on pipe
        EOF and the resource tracker — which outlives them all —
        unlinks every segment the coordinator registered."""
        script = (
            "import numpy as np\n"
            "from repro.core.api import FTKMeans\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random((120000, 32), dtype=np.float64)"
            ".astype('float32')\n"
            "FTKMeans(n_clusters=32, variant='tensorop', seed=0,\n"
            "         n_workers=2, executor='process', transport='shm',\n"
            "         max_iter=500, tol=0.0).fit(x)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(os.path.join(os.path.dirname(__file__),
                                              "..", "..", "src"))
                             + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                start_new_session=True)
        prefix = f"{SEGMENT_PREFIX}-{proc.pid}-"
        try:
            # wait for boot to finish: data + broadcast + one slot per
            # worker.  Killing during the very first segment's creation
            # can race the child's resource-tracker *spawn* (a CPython
            # property, not our cleanup path); once all segments exist
            # their registrations have long drained and the kill may
            # land anywhere in the remaining rounds.
            deadline = time.monotonic() + 60.0
            while len(shm_entries(prefix)) < 4:
                assert proc.poll() is None, \
                    "fit finished before the shm segments appeared"
                assert time.monotonic() < deadline, \
                    "shm segments did not all appear within 60 s"
                time.sleep(0.005)
            time.sleep(0.2)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30.0
            while shm_entries(prefix):
                assert time.monotonic() < deadline, (
                    f"stranded segments after SIGKILL: "
                    f"{shm_entries(prefix)}")
                time.sleep(0.05)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
        assert shm_entries(prefix) == []


class TestBootStats:
    def test_cold_spawns_recorded(self, x):
        km = fit(x, n_workers=3, executor="process", transport="shm")
        stats = km.dist_boot_stats_
        assert stats["cold_spawn"]["count"] == 3
        assert stats["cold_spawn"]["total_s"] > 0
        assert stats["cold_spawn"]["max_s"] >= stats["cold_spawn"]["mean_s"]

    def test_spare_promotion_recorded(self, x, ref):
        km = fit(x, n_workers=2, executor="process", transport="shm",
                 checkpoint_every=2, hot_spares=1,
                 worker_faults=WorkerFaultInjector.crash_at(0, 2))
        assert_same_fit(km, ref)
        stats = km.dist_boot_stats_
        assert stats["spare_promote"]["count"] >= 1
