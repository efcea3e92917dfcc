"""Checkpoint/restart: crash-at-k recovery converges to the same bits."""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro import FTKMeans
from repro.dist import (
    CheckpointStore,
    WorkerCrash,
    WorkerFaultInjector,
    WorkerFaultPlan,
)
from repro.dist.faults import CRASH
from repro.obs import EventBus

M, N_FEATURES, K = 1537, 12, 7


@pytest.fixture(scope="module")
def x():
    rng = np.random.default_rng(0)
    return rng.random((M, N_FEATURES), dtype=np.float64).astype(np.float32)


def fit(x, **kw):
    base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=10,
                n_workers=2)
    base.update(kw)
    return FTKMeans(**base).fit(x)


class TestCheckpointStore:
    def test_memory_roundtrip_and_pruning(self):
        store = CheckpointStore(keep=2)
        for it in (0, 2, 4, 6):
            store.save(it, {"iteration": it, "v": it * 10})
        assert store.iterations == [4, 6]
        it, state = store.load_latest()
        assert it == 6 and state["v"] == 60

    def test_disk_roundtrip_and_pruning(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", keep=2)
        for it in (0, 3, 5):
            store.save(it, {"y": np.arange(it + 1)})
        assert store.iterations == [3, 5]
        it, state = store.load_latest()
        assert it == 5 and np.array_equal(state["y"], np.arange(6))
        assert len(list((tmp_path / "ckpt").glob("ckpt_*.pkl"))) == 2

    def test_snapshots_never_alias_live_state(self):
        store = CheckpointStore()
        y = np.zeros(4)
        store.save(1, {"y": y})
        y[:] = 99.0
        _, state = store.load_latest()
        assert np.array_equal(state["y"], np.zeros(4))

    def test_snapshot_consistent_at_save_time(self, tmp_path):
        """The caller may mutate the live state right after save():
        the disk snapshot holds the state as it was at the call."""
        store = CheckpointStore(tmp_path)
        live = {"iteration": 7, "y": np.full(64, 7.0)}
        store.save(7, live)
        live["y"][:] = -1.0
        _, state = store.load_latest()
        np.testing.assert_array_equal(state["y"], np.full(64, 7.0))

    def test_write_error_raises_from_save(self, tmp_path):
        # a failed write surfaces on the save that asked for it
        store = CheckpointStore(tmp_path)
        store.save(0, {"v": 0})
        store.directory = tmp_path / "vanished"
        with pytest.raises(OSError):
            store.save(1, {"v": 1})

    def test_empty_store_loads_none(self):
        assert CheckpointStore().load_latest() is None

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {})
        store.clear()
        assert store.load_latest() is None

    @staticmethod
    def _strand_tmp(tmp_path, name):
        """A tmp file aged past the live-writer grace window."""
        import os
        import time

        p = tmp_path / name
        p.write_bytes(b"partial")
        old = time.time() - 2 * CheckpointStore.TMP_SWEEP_AGE_S
        os.utime(p, (old, old))
        return p

    def test_stray_tmp_swept_on_init(self, tmp_path):
        # a crash between write and replace strands a tmp file the
        # pruning glob can never touch; a fresh store sweeps it
        self._strand_tmp(tmp_path, "ckpt_00000003.abc123.tmp")
        store = CheckpointStore(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert store.load_latest() is None   # tmp never restorable

    def test_clear_sweeps_tmp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"v": 1})
        self._strand_tmp(tmp_path, "ckpt_00000009.dead.tmp")
        store.clear()
        assert not list(tmp_path.iterdir())

    def test_killed_saver_leaves_only_complete_checkpoints(self, tmp_path):
        """A process SIGKILLed while it saves ~16 MB states in a loop
        strands at most a tmp file: every surviving ckpt_*.pkl
        unpickles to a complete snapshot, and a fresh store on the
        directory restores."""
        n = 2_000_000  # float64: 16 MB per state
        script = textwrap.dedent(f"""
            import numpy as np
            from repro.dist.checkpoint import CheckpointStore
            store = CheckpointStore({str(tmp_path)!r}, keep=2)
            big = np.arange({n}, dtype=np.float64)
            for i in range(1000):
                store.save(i, {{"iteration": i, "y": big + i}})
        """)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("ckpt_*.pkl")):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # let the next save get under way, then kill mid-stream
            time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)
            proc.stderr.close()
        assert proc.returncode == -signal.SIGKILL
        files = sorted(tmp_path.glob("ckpt_*.pkl"))
        assert files
        for p in files:
            state = pickle.loads(p.read_bytes())  # must not raise
            np.testing.assert_array_equal(
                state["y"],
                np.arange(n, dtype=np.float64) + state["iteration"])
        it, state = CheckpointStore(tmp_path).load_latest()
        assert state["iteration"] == it

    def test_sweep_spares_a_live_writers_tmp(self, tmp_path):
        # fresh tmp files may be a concurrent writer mid-save on a
        # shared directory: the age guard must leave them alone
        live = tmp_path / "ckpt_00000004.live.tmp"
        live.write_bytes(b"mid-save")
        CheckpointStore(tmp_path)
        assert live.exists()

    def test_save_leaves_no_tmp_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for it in range(4):
            store.save(it, {"v": it})
        assert store.iterations == [2, 3]
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_negative_iteration_rejected(self, tmp_path, on_disk):
        store = CheckpointStore(tmp_path if on_disk else None)
        with pytest.raises(ValueError, match="iteration"):
            store.save(-1, {"v": -1})
        assert store.iterations == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("keep", [0, -1])
    def test_keep_must_be_positive(self, keep):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(keep=keep)

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_keep_one_holds_only_the_newest(self, tmp_path, on_disk):
        store = CheckpointStore(tmp_path if on_disk else None, keep=1)
        for it in range(5):
            store.save(it, {"v": it})
            # pruning runs inside save, before it returns
            assert store.iterations == [it]
        assert store.load_latest() == (4, {"v": 4})

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_resave_replaces_the_snapshot(self, tmp_path, on_disk):
        # a replay after a restore saves the same iteration again
        store = CheckpointStore(tmp_path if on_disk else None)
        store.save(3, {"v": "first"})
        store.save(3, {"v": "replayed"})
        assert store.iterations == [3]
        assert store.load_latest() == (3, {"v": "replayed"})
        if on_disk:
            assert [p.name for p in tmp_path.iterdir()] == ["ckpt_00000003.pkl"]

    def test_reopened_store_restores_prior_snapshots(self, tmp_path):
        # durable on return: a new store on the directory (a restarted
        # coordinator process) sees every save the old one made
        first = CheckpointStore(tmp_path, keep=3)
        for it in (0, 2, 4, 6):
            first.save(it, {"y": np.full(3, float(it))})
        again = CheckpointStore(tmp_path, keep=3)
        assert again.iterations == [2, 4, 6]
        it, state = again.load_latest()
        assert it == 6
        np.testing.assert_array_equal(state["y"], np.full(3, 6.0))

    def test_iterations_ignore_foreign_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(5, {"v": 5})
        for name in ("ckpt_latest.pkl", "ckpt_.pkl", "notes.txt",
                     "other_00000009.pkl"):
            (tmp_path / name).write_bytes(b"not a snapshot")
        assert store.iterations == [5]
        assert store.load_latest() == (5, {"v": 5})

    def test_failed_write_keeps_the_previous_snapshot(self, tmp_path,
                                                      monkeypatch):
        bus = EventBus()
        store = CheckpointStore(tmp_path, event_bus=bus)
        store.save(1, {"v": 1})

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            store.save(2, {"v": 2})
        monkeypatch.undo()
        # the failed tmp is unlinked, the older snapshot still restores,
        # and only the durable save was announced
        assert not list(tmp_path.glob("*.tmp"))
        assert store.iterations == [1]
        assert store.load_latest() == (1, {"v": 1})
        assert [e.fields["iteration"] for e in bus.history] == [1]

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_save_publishes_one_event(self, tmp_path, on_disk):
        bus = EventBus()
        store = CheckpointStore(tmp_path if on_disk else None, event_bus=bus)
        state = {"y": np.arange(8.0)}
        store.save(4, state)
        (ev,) = bus.history
        assert (ev.kind, ev.source) == ("checkpoint_save", "checkpoint")
        nbytes = len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        assert ev.fields == {"iteration": 4, "nbytes": nbytes,
                             "mode": "disk" if on_disk else "memory"}
        if on_disk:
            assert (tmp_path / "ckpt_00000004.pkl").stat().st_size == nbytes

    def test_async_writer_is_gone(self):
        import repro.dist.checkpoint as checkpoint_mod

        assert not hasattr(checkpoint_mod, "_DaemonWriter")
        store = CheckpointStore()
        assert not hasattr(store, "flush")
        assert not hasattr(store, "sync")


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_it", [1, 5, 9])
    def test_crash_at_k_recovers_to_same_centroids(self, x, crash_it):
        clean = fit(x, checkpoint_every=2)
        crashed = fit(x, checkpoint_every=2,
                      worker_faults=WorkerFaultInjector.crash_at(1, crash_it))
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)
        assert np.array_equal(crashed.labels_, clean.labels_)
        assert crashed.inertia_ == clean.inertia_
        assert crashed.dist_recoveries_ == 1
        assert crashed.counters_.worker_crashes == 1
        assert crashed.counters_.checkpoint_restores == 1
        kinds = [e["kind"] for e in crashed.dist_trace_]
        assert kinds.count("crash") == 1 and kinds.count("restore") == 1

    def test_restore_resumes_from_latest_checkpoint(self, x):
        crashed = fit(x, checkpoint_every=3,
                      worker_faults=WorkerFaultInjector.crash_at(0, 8))
        restore = [e for e in crashed.dist_trace_
                   if e["kind"] == "restore"][0]
        assert restore["iteration"] == 6   # newest checkpoint before 8

    def test_no_checkpoint_restarts_from_scratch(self, x):
        clean = fit(x, checkpoint_every=0)
        crashed = fit(x, checkpoint_every=0,
                      worker_faults=WorkerFaultInjector.crash_at(0, 4))
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)
        restore = [e for e in crashed.dist_trace_
                   if e["kind"] == "restore"][0]
        assert restore["iteration"] == 0

    def test_process_executor_survives_real_worker_death(self, x):
        clean = fit(x, max_iter=8, executor="process", checkpoint_every=2)
        crashed = fit(x, max_iter=8, executor="process", checkpoint_every=2,
                      worker_faults=WorkerFaultInjector.crash_at(0, 4))
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)
        assert crashed.dist_recoveries_ == 1

    def test_recovery_bit_exact_under_seu_injection(self, x):
        cfg = dict(variant="ft", p_inject=0.3, checkpoint_every=2,
                   max_iter=8)
        clean = fit(x, **cfg)
        crashed = fit(x, **cfg,
                      worker_faults=WorkerFaultInjector.crash_at(1, 6))
        # per-round injector streams are keyed by (seed, worker,
        # iteration), so the replay re-injects the identical SEUs
        assert clean.counters_.errors_injected > 0
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_disk_checkpoints(self, x, tmp_path, executor):
        # each save is durable when it returns, so the restore always
        # reads a complete snapshot, whatever the executor
        cfg = dict(max_iter=6, executor=executor, checkpoint_every=2)
        clean = fit(x, **cfg)
        crashed = fit(x, **cfg, checkpoint_dir=tmp_path,
                      worker_faults=WorkerFaultInjector.crash_at(1, 5))
        assert crashed.dist_recoveries_ == 1
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)
        assert np.array_equal(crashed.labels_, clean.labels_)
        assert list(tmp_path.glob("ckpt_*.pkl"))
        assert crashed.dist_checkpoint_save_s_ > 0.0

    def test_iteration_zero_snapshot_goes_through_the_store(self, x,
                                                             tmp_path):
        # no periodic checkpoints: the store still holds the fit's
        # iteration-0 snapshot, recovery's only restore point
        fit(x, max_iter=3, checkpoint_every=0, checkpoint_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_00000000.pkl"]

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_disk_restore_from_iteration_zero(self, x, tmp_path, executor):
        # the on-disk iteration-0 snapshot is the only restore point;
        # replaying from it lands on the clean fit's bits
        cfg = dict(max_iter=5, executor=executor, checkpoint_every=0)
        clean = fit(x, **cfg)
        crashed = fit(x, **cfg, checkpoint_dir=tmp_path,
                      worker_faults=WorkerFaultInjector.crash_at(0, 3))
        restore = [e for e in crashed.dist_trace_
                   if e["kind"] == "restore"][0]
        assert restore["iteration"] == 0
        assert crashed.dist_recoveries_ == 1
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)
        assert np.array_equal(crashed.labels_, clean.labels_)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_00000000.pkl"]

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_fit_publishes_a_save_per_snapshot(self, x, tmp_path, on_disk):
        bus = EventBus()
        km = fit(x, max_iter=6, tol=0.0, checkpoint_every=2, event_bus=bus,
                 checkpoint_dir=tmp_path if on_disk else None)
        saves = [e.fields for e in bus.history if e.kind == "checkpoint_save"]
        expected = [0] + [it for it in range(1, km.n_iter_ + 1)
                          if it % 2 == 0]
        assert [f["iteration"] for f in saves] == expected
        assert {f["mode"] for f in saves} == {"disk" if on_disk
                                              else "memory"}
        if on_disk:
            # keep=2: the two newest snapshots survive the fit
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                f"ckpt_{it:08d}.pkl" for it in expected[-2:]]

    def test_recovery_budget_exhausts(self, x):
        # two scheduled crashes of the same (worker, iteration): the
        # second fires on the replay and exceeds max_recoveries=1
        faults = WorkerFaultInjector([WorkerFaultPlan(CRASH, 0, 2),
                                      WorkerFaultPlan(CRASH, 0, 2)])
        from repro.dist import Coordinator
        from repro.core.config import KMeansConfig

        cfg = KMeansConfig(n_clusters=K, n_workers=2, seed=3, max_iter=6)
        coord = Coordinator(cfg, worker_faults=faults, max_recoveries=1)
        y0 = x[:K].copy()
        with pytest.raises(WorkerCrash):
            coord.fit(x, y0)

    def test_reused_checkpoint_dir_never_leaks_old_fit(self, x, tmp_path):
        # a crash in fit B must not restore fit A's snapshots
        fit(x, checkpoint_every=2, checkpoint_dir=tmp_path)
        rng = np.random.default_rng(9)
        x2 = rng.random((M, N_FEATURES), dtype=np.float64).astype(np.float32)
        clean = fit(x2, checkpoint_every=2)
        crashed = fit(x2, checkpoint_every=2, checkpoint_dir=tmp_path,
                      worker_faults=WorkerFaultInjector.crash_at(0, 1))
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)

    def test_multi_crash_counters_are_monotonic(self, x):
        faults = WorkerFaultInjector([WorkerFaultPlan(CRASH, 0, 3),
                                      WorkerFaultPlan(CRASH, 1, 6)])
        clean = fit(x, checkpoint_every=2)
        crashed = fit(x, checkpoint_every=2, worker_faults=faults)
        assert crashed.dist_recoveries_ == 2
        assert crashed.counters_.worker_crashes == 2
        assert crashed.counters_.checkpoint_restores == 2
        assert np.array_equal(crashed.cluster_centers_,
                              clean.cluster_centers_)

    def test_fault_tallies_survive_a_later_restore(self, x):
        # a stall fires at iteration 3 (committed), a crash at
        # iteration 4 restores the iteration-2 checkpoint: the one-shot
        # stall never replays, so its tally must not vanish with the
        # restored counter snapshot
        from repro.dist.faults import STALL

        faults = WorkerFaultInjector([
            WorkerFaultPlan(STALL, 0, 3, stall_s=0.001),
            WorkerFaultPlan(CRASH, 1, 4),
        ])
        km = fit(x, checkpoint_every=2, worker_faults=faults)
        assert km.counters_.worker_stalls == 1
        assert km.counters_.worker_crashes == 1

    def test_counters_describe_committed_trajectory_only(self, x):
        # rolled-back iterations must not double-count work
        clean = fit(x, checkpoint_every=2)
        crashed = fit(x, checkpoint_every=2,
                      worker_faults=WorkerFaultInjector.crash_at(1, 3))
        assert (crashed.counters_.checksum_tests
                == clean.counters_.checksum_tests)


class TestAbandonedDrainAnswers:
    """A crash and a stall in one round on ``process`` with no round
    deadline: the drain bound (``DRAIN_TIMEOUT``) abandons the
    stalling child's answer without killing it.  Recovery must never
    read that stale answer — not as a round result after an in-place
    promotion, nor as the ready handshake of a shrink's re-targeted
    child — under any recovery policy."""

    SHAPE, N_CLUSTERS = (6000, 16), 5

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        return rng.standard_normal(self.SHAPE).astype(np.float32)

    def _fit(self, x, **kw):
        base = dict(n_clusters=self.N_CLUSTERS, seed=3, max_iter=6,
                    tol=0.0, init="random")
        base.update(kw)
        return FTKMeans(**base).fit(x)

    @pytest.mark.parametrize("policy", [
        {}, {"elastic": True}, {"target_workers": 3}, {"hot_spares": 1}],
        ids=["default", "elastic", "target_workers", "hot_spares"])
    def test_recovery_never_reads_an_abandoned_answer(self, data, policy,
                                                      monkeypatch):
        from repro.dist.executors import ProcessExecutor
        from repro.dist.faults import STALL

        monkeypatch.setattr(ProcessExecutor, "DRAIN_TIMEOUT", 0.5)
        single = self._fit(data)
        faults = WorkerFaultInjector([
            WorkerFaultPlan(CRASH, 0, 2),
            WorkerFaultPlan(STALL, 1, 2, stall_s=1.5)])
        km = self._fit(data, n_workers=3, executor="process",
                       checkpoint_every=1, worker_faults=faults, **policy)
        assert km.dist_recoveries_ == 1
        assert np.array_equal(km.cluster_centers_.view(np.uint32),
                              single.cluster_centers_.view(np.uint32))
        assert np.array_equal(km.labels_, single.labels_)
        assert km.inertia_history_ == single.inertia_history_
