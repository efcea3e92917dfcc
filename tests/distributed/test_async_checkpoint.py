"""Async checkpoint writer: flush barriers, crash consistency, recovery.

The contract: moving the write+fsync off the round loop changes *when*
a snapshot becomes durable, never *what* a reader can observe — every
read flushes first, every write keeps the atomic tmp+fsync+replace
protocol, and a process killed mid-stream leaves only complete,
restorable checkpoint files behind.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import FTKMeans
from repro.dist.checkpoint import CheckpointStore, _DaemonWriter
from repro.dist.faults import WorkerFaultInjector


def _state(i, size=64):
    return {"iteration": i, "y": np.full(size, float(i))}


class TestAsyncStore:
    def test_directory_store_defaults_async(self, tmp_path):
        assert CheckpointStore(tmp_path).sync is False
        assert CheckpointStore(tmp_path, sync=True).sync is True
        assert CheckpointStore().sync is True  # in-memory: nothing to hide

    def test_reads_flush_the_writer(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        for i in range(5):
            store.save(i, _state(i))
        # iterations/load_latest block on the barrier, so every
        # completed save is visible and pruned to `keep`
        assert store.iterations == [2, 3, 4]
        it, state = store.load_latest()
        assert it == 4
        np.testing.assert_array_equal(state["y"], np.full(64, 4.0))

    def test_snapshot_consistent_at_save_time(self, tmp_path):
        """The caller may mutate the live state right after save():
        the blob was pickled before save returned."""
        store = CheckpointStore(tmp_path)
        live = _state(7)
        store.save(7, live)
        live["y"][:] = -1.0
        _, state = store.load_latest()
        np.testing.assert_array_equal(state["y"], np.full(64, 7.0))

    def test_clear_flushes_and_empties(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(3):
            store.save(i, _state(i))
        store.clear()
        assert store.iterations == []
        assert list(Path(tmp_path).glob("ckpt_*.pkl")) == []

    def test_write_error_surfaces(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, _state(0))
        store.flush()
        # make the next background write fail at replace time
        store.directory = Path(tmp_path) / "vanished"
        with pytest.raises(OSError):
            store.save(1, _state(1))
            store.flush()

    def test_sync_mode_unchanged(self, tmp_path):
        store = CheckpointStore(tmp_path, sync=True)
        store.save(3, _state(3))
        # no barrier needed: the file is already there
        assert (Path(tmp_path) / "ckpt_00000003.pkl").exists()

    def test_save_flush_cycles_never_orphan_a_blob(self, tmp_path):
        """Each flush lets the writer drain and exit, so every next
        save lands exactly in the writer's dying window — the respawn
        decision must be made on the lock-guarded liveness flag, or a
        queued blob is orphaned and flush deadlocks."""
        import concurrent.futures

        store = CheckpointStore(tmp_path, keep=2)

        def hammer():
            for i in range(300):
                store.save(i, _state(i, size=4))
                store.flush()
            return store.iterations[-1]

        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            assert pool.submit(hammer).result(timeout=60) == 299


class TestDaemonWriter:
    def test_queue_bound_throttles_the_producer(self):
        """With ``QUEUE_MAX`` thunks queued behind a busy drain, the
        next submit blocks until the drain frees a slot; every thunk
        still runs, in order, on the named writer thread."""
        writer = _DaemonWriter()
        started, gate = threading.Event(), threading.Event()
        ran = []

        def thunk(i):
            def run():
                started.set()
                gate.wait(10)
                ran.append((i, threading.current_thread().name))
            return run

        writer.submit(thunk(0))
        assert started.wait(10)        # the drain holds thunk 0, busy
        for i in range(1, _DaemonWriter.QUEUE_MAX + 1):
            writer.submit(thunk(i))
        late = threading.Thread(
            target=writer.submit, args=(thunk(_DaemonWriter.QUEUE_MAX + 1),))
        late.start()
        late.join(0.2)
        assert late.is_alive()         # throttled on the full queue
        gate.set()
        late.join(10)
        writer.flush()
        assert [i for i, _ in ran] == list(range(_DaemonWriter.QUEUE_MAX + 2))
        assert {name for _, name in ran} == {_DaemonWriter.NAME}

    def test_failed_thunk_reraises_once_then_recovers(self):
        writer = _DaemonWriter()
        ran = []

        def fail():
            raise OSError("disk gone")

        writer.submit(fail)
        with pytest.raises(OSError, match="disk gone"):
            writer.flush()
        writer.flush()                 # the error is reported once
        writer.submit(lambda: ran.append(1))
        writer.flush()
        assert ran == [1]


class TestCrashConsistency:
    def test_killed_writer_leaves_only_complete_checkpoints(self, tmp_path):
        """A process that async-saves and hard-exits mid-stream strands
        at most a tmp file: every surviving ckpt_*.pkl unpickles to a
        complete snapshot."""
        script = textwrap.dedent(f"""
            import os, numpy as np
            from repro.dist.checkpoint import CheckpointStore, _DaemonWriter
            store = CheckpointStore({str(tmp_path)!r}, keep=10)
            # large states so the kill lands mid-write with high odds
            big = np.arange(2_000_000, dtype=np.float64)
            for i in range(8):
                store.save(i, {{"iteration": i, "y": big + i}})
            os._exit(0)   # no flush, no atexit: the writer dies mid-queue
        """)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        complete = 0
        for p in sorted(Path(tmp_path).glob("ckpt_*.pkl")):
            state = pickle.loads(p.read_bytes())  # must not raise
            i = state["iteration"]
            np.testing.assert_array_equal(
                state["y"], np.arange(2_000_000, dtype=np.float64) + i)
            complete += 1
        assert complete <= 8
        # a fresh store on the same directory restores cleanly (or sees
        # an empty store — both are consistent states)
        loaded = CheckpointStore(tmp_path).load_latest()
        if complete:
            assert loaded is not None

    def test_recovery_bit_exact_with_async_store(self, tmp_path):
        """Crash + restore through the async disk store lands on the
        clean fit's exact bits (the flush barrier guarantees the
        restore sees a durable snapshot)."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((700, 12)).astype(np.float32)

        def fit(faults=None, sync=False, directory=None):
            return FTKMeans(n_clusters=6, n_workers=2, executor="serial",
                            checkpoint_every=2, max_iter=6, tol=0.0,
                            seed=0, worker_faults=faults,
                            checkpoint_sync=sync,
                            checkpoint_dir=directory).fit(x)

        clean = fit()
        crashed = fit(faults=WorkerFaultInjector.crash_at(0, 4),
                      directory=tmp_path / "async")
        assert crashed.dist_recoveries_ == 1
        assert np.array_equal(clean.cluster_centers_,
                              crashed.cluster_centers_)
        assert np.array_equal(clean.labels_, crashed.labels_)
        sync = fit(faults=WorkerFaultInjector.crash_at(0, 4),
                   sync=True, directory=tmp_path / "sync")
        assert np.array_equal(clean.cluster_centers_,
                              sync.cluster_centers_)

    def test_checkpoint_overhead_attrs_populated(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((600, 8)).astype(np.float32)
        km = FTKMeans(n_clusters=4, n_workers=2, executor="serial",
                      checkpoint_every=1, max_iter=4, tol=0.0, seed=0,
                      checkpoint_dir=tmp_path).fit(x)
        assert km.dist_checkpoint_save_s_ > 0.0
        assert km.dist_checkpoint_flush_s_ >= 0.0
