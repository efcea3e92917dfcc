"""The process executor's one round path: pipes carry every round, the
shared-memory dataset segment holds ``x``.  Bit-identity against the
single-worker fit for any fleet × membership history, the ``OSError``
fallback to row-carrying factories, pipe byte counters, and
kill-anywhere cleanup of ``/dev/shm`` and of the worker processes."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FTKMeans
from repro.dist import WorkerFaultInjector, WorkerFaultPlan
from repro.dist import coordinator as coordinator_mod
from repro.dist.executors import ProcessExecutor
from repro.dist.faults import CRASH, WEDGE
from repro.dist.shm import SEGMENT_PREFIX, ShmSession, attach_array
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


def session_members(sid):
    """(pid, state) of every live process in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # fields after the parenthesised comm: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            members.append((int(entry), fields[0]))
    return members


@pytest.fixture
def spy_start(monkeypatch):
    """Record, at every process-executor start, the factory's dataset
    keywords and the coordinator's live ``/dev/shm`` segments."""
    seen = []
    original = ProcessExecutor.start

    def start(self, factory, worker_ids):
        seen.append({
            "data_ref": factory.keywords.get("data_ref"),
            "has_rows": factory.keywords.get("x") is not None,
            "segments": shm_entries(f"{SEGMENT_PREFIX}-{os.getpid()}-")})
        return original(self, factory, worker_ids)

    monkeypatch.setattr(ProcessExecutor, "start", start)
    return seen


@pytest.fixture
def no_segment(monkeypatch):
    """Make dataset-segment creation fail as on a full ``/dev/shm``."""
    def unavailable(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(coordinator_mod, "ShmSession", unavailable)


class TestBitIdentity:
    """A process fit must equal the single-worker fit bit for bit; the
    dataset segment is a boot-time channel, not a numerics change."""

    def test_process_fit_shares_the_dataset(self, x, ref, spy_start):
        km = fit(x, n_workers=2, executor="process")
        assert_same_fit(km, ref)
        (start,) = spy_start
        assert start["data_ref"] is not None
        assert not start["has_rows"]
        # the dataset only: workers sum nothing, so they need neither
        # the weights nor the coordinator's transposed merge operand
        assert [name.rsplit("-", 1)[1]
                for name in start["segments"]] == ["x"]

    def test_weighted_fit_bit_identical(self, x):
        rng = np.random.default_rng(7)
        w = rng.integers(1, 4, size=x.shape[0]).astype(np.float64)
        base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=10)
        single = FTKMeans(**base).fit(x, sample_weight=w)
        km = FTKMeans(**base, n_workers=3,
                      executor="process").fit(x, sample_weight=w)
        assert_same_fit(km, single)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workers=st.integers(min_value=2, max_value=4))
    def test_fleet_widths_bit_identical(self, x, ref, workers):
        km = fit(x, n_workers=workers, executor="process")
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
        km = fit(x, n_workers=3, executor="process",
                 checkpoint_every=2, target_workers=3, hot_spares=1,
                 heartbeat_interval=HEARTBEAT,
                 worker_faults=WorkerFaultInjector(plans))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3


class TestSegmentFallback:
    """With ``/dev/shm`` unusable the fit warns, the factories carry
    the rows, and nothing else changes."""

    def test_fallback_warns_and_stays_bit_identical(self, x, ref,
                                                    no_segment, spy_start):
        with pytest.warns(RuntimeWarning, match="dataset segment"):
            km = fit(x, n_workers=2, executor="process")
        assert_same_fit(km, ref)
        (start,) = spy_start
        assert start["data_ref"] is None
        assert start["has_rows"]
        assert start["segments"] == []

    def test_fallback_survives_crash_and_promotion(self, x, ref,
                                                   no_segment, spy_start):
        with pytest.warns(RuntimeWarning, match="dataset segment"):
            km = fit(x, n_workers=2, executor="process",
                     checkpoint_every=2, hot_spares=1,
                     worker_faults=WorkerFaultInjector.crash_at(0, 2))
        assert_same_fit(km, ref)
        assert km.dist_recoveries_ == 1
        assert km.dist_boot_stats_["spare_promote"]["count"] >= 1
        assert all(s["segments"] == [] for s in spy_start)


class TestByteCounters:
    """The pipes carry the pickled round payloads — and the counters
    land on the estimator, per fit, and in the span metadata."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_fits_move_no_pipe_bytes(self, x, executor):
        km = fit(x, n_workers=2, executor=executor)
        assert km.dist_broadcast_bytes_ == 0
        assert km.dist_gather_bytes_ == 0

    def test_counters_count_round_payloads(self, x):
        km = fit(x, n_workers=2, executor="process")
        # every round ships the full centroid set to each worker and
        # brings back every shard row's label and distance
        assert km.dist_broadcast_bytes_ > 2 * km.n_iter_ * K * N_FEATURES * 4
        assert km.dist_gather_bytes_ > km.n_iter_ * M * (8 + 4)

    def test_counters_are_per_fit(self, x):
        # a refit reports its own bytes, not a running total
        km = fit(x, n_workers=2, executor="process")
        first = (km.dist_broadcast_bytes_, km.dist_gather_bytes_)
        km.fit(x)
        assert (km.dist_broadcast_bytes_, km.dist_gather_bytes_) == first

    def test_spans_carry_payload_bytes(self, x):
        tr = TraceRecorder()
        km = fit(x, n_workers=2, executor="process", tracer=tr)
        bcasts = [s for s in tr.spans if s.name == "broadcast"]
        # results are gathered as they arrive, under the compute span
        gathers = [s for s in tr.spans if s.name == "compute"]
        assert bcasts and gathers
        assert all("payload_bytes" in s.meta for s in bcasts + gathers)
        assert sum(s.meta["payload_bytes"] for s in bcasts) == \
            km.dist_broadcast_bytes_
        assert sum(s.meta["payload_bytes"] for s in gathers) == \
            km.dist_gather_bytes_


class TestCleanup:
    """kill-anywhere must leave no stranded ``/dev/shm`` segments and
    no stranded worker processes."""

    def test_attach_array_is_zero_copy(self):
        rng = np.random.default_rng(0)
        data = rng.random((32, 4)).astype(np.float32)
        sess = ShmSession(data)
        try:
            view = attach_array(sess.data_ref)
            assert np.array_equal(view, data)
            assert view.base is not None   # a view over the segment
        finally:
            sess.close()

    def test_fit_leaves_no_segments(self, x):
        fit(x, n_workers=2, executor="process")
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

    def test_sigkill_mid_fit_drains_session(self, tmp_path):
        """SIGKILL the coordinator mid-fit: the workers exit on pipe
        EOF, and the resource tracker — which outlives them all —
        unlinks the dataset segment and exits too, so the whole
        process session drains."""
        script = (
            "import numpy as np\n"
            "from repro.core.api import FTKMeans\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random((120000, 32), dtype=np.float64)"
            ".astype('float32')\n"
            "FTKMeans(n_clusters=32, variant='tensorop', seed=0,\n"
            "         n_workers=2, executor='process',\n"
            "         max_iter=500, tol=0.0).fit(x)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(os.path.join(os.path.dirname(__file__),
                                              "..", "..", "src"))
                             + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                start_new_session=True)
        prefix = f"{SEGMENT_PREFIX}-{proc.pid}-"
        try:
            # wait for boot to finish: the dataset segment plus a
            # session of coordinator, resource tracker and both
            # workers.  Killing during the segment's creation can race
            # the child's resource-tracker *spawn* (a CPython property,
            # not our cleanup path); once the workers are up the
            # registration has long drained and the kill may land
            # anywhere in the remaining rounds.
            deadline = time.monotonic() + 60.0
            while not (shm_entries(prefix)
                       and len(session_members(proc.pid)) >= 4):
                assert proc.poll() is None, \
                    "fit finished before the fleet booted"
                assert time.monotonic() < deadline, \
                    "fleet did not boot within 60 s"
                time.sleep(0.005)
            time.sleep(0.2)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # workers exit on pipe EOF; once they are gone the tracker
            # sees EOF too, unlinks the segment and exits
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, (
                    f"session still alive 30 s after SIGKILL: "
                    f"{session_members(proc.pid)}")
                time.sleep(0.05)
            deadline = time.monotonic() + 30.0
            while shm_entries(prefix):
                assert time.monotonic() < deadline, (
                    f"stranded segments after SIGKILL: "
                    f"{shm_entries(prefix)}")
                time.sleep(0.05)
        finally:
            try:                 # safety net: never leak the fleet
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.poll() is None:  # pragma: no cover
                proc.wait(timeout=30)
        assert shm_entries(prefix) == []


class TestBootStats:
    def test_cold_spawns_recorded(self, x):
        km = fit(x, n_workers=3, executor="process")
        stats = km.dist_boot_stats_
        assert stats["cold_spawn"]["count"] == 3
        assert stats["cold_spawn"]["total_s"] > 0
        assert stats["cold_spawn"]["max_s"] >= stats["cold_spawn"]["mean_s"]

    def test_spare_promotion_recorded(self, x, ref):
        km = fit(x, n_workers=2, executor="process",
                 checkpoint_every=2, hot_spares=1,
                 worker_faults=WorkerFaultInjector.crash_at(0, 2))
        assert_same_fit(km, ref)
        stats = km.dist_boot_stats_
        assert stats["spare_promote"]["count"] >= 1

    def test_default_recovery_cold_spawns_only_the_lost_id(self, x, ref):
        # the rebuild is in place: survivors keep their children, so the
        # fit boots W children plus one replacement, nothing else
        km = fit(x, n_workers=3, executor="process", checkpoint_every=2,
                 worker_faults=WorkerFaultInjector.crash_at(1, 4))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 3
        assert set(km.dist_boot_stats_) == {"cold_spawn"}
        assert km.dist_boot_stats_["cold_spawn"]["count"] == 3 + 1

    def test_elastic_stall_shrink_retargets_warm_children(self, x, ref):
        # a stall past the deadline kills its child; the shrink
        # re-targets the two survivors' warm children instead of
        # booting a second cold batch
        km = fit(x, n_workers=3, executor="process", checkpoint_every=2,
                 elastic=True, round_timeout=1.0,
                 worker_faults=WorkerFaultInjector.stall_at(
                     1, 4, stall_s=100.0))
        assert_same_fit(km, ref)
        assert km.n_workers_ == 2
        stats = km.dist_boot_stats_
        assert stats["cold_spawn"]["count"] == 3
        assert stats["reconfigure"]["count"] == 2
