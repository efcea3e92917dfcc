"""Tests for the figure runner and recorded series structure."""

import json

import numpy as np
import pytest

from repro.bench import figures, runner
from repro.bench.tables import format_figure


class TestFigureStructure:
    def test_fig7_has_all_series(self):
        res = figures.fig7_stepwise()
        assert set(res.series) == {"naive", "v1", "v2", "v3", "ftkmeans",
                                   "cuml"}
        for pts in res.series.values():
            assert len(pts) == 6  # K in 32..192 step 32

    def test_fig8_panel_series(self):
        res = figures.fig8_fig9_distance_vs_features(np.float32)
        names = set(res.series)
        for panel in ("K=8", "K=128"):
            for curve in ("cuml", "param1", "param2", "ftkmeans"):
                assert f"{panel}/{curve}" in names

    def test_fig12_grid_rows(self):
        res = figures.fig12_speedup_grid(np.float32)
        assert len(res.series) == 8          # N rows
        assert all(len(p) == 7 for p in res.series.values())  # K columns

    def test_fig17_includes_wu(self):
        res = figures.fig17_fig18_error_injection(np.float32)
        assert any(name.endswith("wu+inj") for name in res.series)

    def test_format_figure_renders_everything(self):
        res = figures.fig7_stepwise()
        text = format_figure(res, max_rows=3)
        assert "fig7" in text and "cuml" in text and "summary" in text

    def test_injection_probability_parameter(self):
        lo = figures.fig17_fig18_error_injection(np.float32, p_inject=0.1)
        hi = figures.fig17_fig18_error_injection(np.float32, p_inject=1.0)
        assert lo.summary["injection_overhead_pct_avg"] \
            < hi.summary["injection_overhead_pct_avg"]


class TestSmokeGate:
    """`python -m repro.bench.runner --smoke` is tier-1: a broken bench
    harness (or a record missing the per-stage split) must fail the
    suite.  Run at a tiny shape via the runner's argument passthrough so
    the gate stays fast."""

    def test_runner_smoke_invocation_records_stage_split(self, tmp_path):
        out = tmp_path / "bench.json"
        runner.main(["--smoke", "--out", str(out), "--dist-out", "-",
                     "--report", str(tmp_path / "perf.md"),
                     "--m", "1024", "--iters", "1"])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "fastpath_walltime/v4"
        (record,) = doc["entries"]
        assert record["schema"] == "fastpath_walltime/v4"
        assert record["config"]["m"] == 1024
        # the per-stage split the streamed-update PR added
        stages = record["stages"]
        for key in ("assign_per_iter_s", "update_streamed_per_iter_s",
                    "update_oneshot_per_iter_s",
                    "update_speedup_streamed_vs_oneshot"):
            assert key in stages, key
        assert len(stages["update_streamed_per_iter_s"]) == 1
        # baseline comparison + agreement diagnostics present
        assert record["unchunked"]["update_per_iter_s"]
        assert record["label_mismatch_frac"] <= 1e-3
        assert record["engine"]["update_chunks_fed"] >= 1
        # the fast-lane columns of schema v2: the TF32 bench rounds
        # block by block inside the stacked lane, so every chunk
        # batches; x fits the budget, so x_t hoists
        assert (record["engine"]["batched_chunks"]
                == record["engine"]["chunks_run"])
        assert record["engine"]["hoisted_transposed_operand"] is True
        assert record["unit_path_label_mismatch_frac"] == 0.0
        assert record["unit_path_bit_identical"] is True
        # the bound-pruned assignment record of schema v3: the loop
        # asserts bit-equality internally, so the record existing with
        # rows pruned proves the exactness contract held end to end
        pr = record["pruning"]
        assert pr["bit_identical"] is True
        assert pr["rows_pruned"] > 0
        assert pr["bounds_rebuilds"] == 0
        assert pr["final_active_frac"] < 1.0
        assert len(pr["active_frac_per_iter"]) == pr["iters"]
        assert len(pr["pruned_assign_per_iter_s"]) == pr["iters"]
        assert pr["assign_speedup"] > 0
        # its shuffled-row twin (gated by check_row_pruning): some rows
        # stay active to the end, and the shuffled layout prunes as the
        # contiguous one does
        tw = pr["shuffled"]
        assert tw["bit_identical_per_iter"] == [True] * tw["iters"]
        assert 0.0 < tw["contiguous_final_active_frac"] < 0.1
        assert abs(tw["final_active_frac"]
                   - tw["contiguous_final_active_frac"]) <= 0.01
        # the traced re-run of schema v4: bit-identity re-proved on
        # every bench run, with the per-stage span breakdown attached
        tr = record["trace"]
        assert tr["bit_identical_vs_untraced"] is True
        assert tr["spans"] >= 1 and tr["dropped"] == 0
        for stage in ("fit", "iteration", "assign_chunk", "gemm",
                      "update_feed", "operand_hoist"):
            assert stage in tr["stage_totals"], stage
        # the operand-hoist twin rode the smoke run (and passed the
        # runner's gate, which raises otherwise)
        assert "hoist_twin" in record
        # the runner also regenerated the perf report
        assert (tmp_path / "perf.md").exists()

    @pytest.mark.parametrize("key,bad", [
        ("hoisted_transposed_operand", False), ("operand_bytes", 0),
        ("reference_hoisted", True), ("bit_identical", False)])
    def test_hoist_twin_gate_fails_loudly(self, key, bad):
        good = {"config": {"chunk_bytes": 10}, "x_nbytes": 40,
                "hoisted_transposed_operand": True, "operand_bytes": 40,
                "reference_hoisted": False, "bit_identical": True}
        assert "hoist twin ok" in runner.check_hoist_twin(
            {"hoist_twin": good})
        with pytest.raises(SystemExit, match="HOIST REGRESSION"):
            runner.check_hoist_twin({"hoist_twin": {**good, key: bad}})

    @pytest.mark.parametrize("patch", [
        {"engine": {"batched_chunks": 0, "chunks_run": 6}},
        {"engine": {"batched_chunks": 5, "chunks_run": 6}},
        {"unit_path_bit_identical": False}])
    def test_fast_lane_gate_fails_loudly(self, patch):
        good = {"engine": {"batched_chunks": 6, "chunks_run": 6},
                "unit_path_bit_identical": True}
        assert "fast lane ok" in runner.check_fast_lane(good)
        with pytest.raises(SystemExit, match="FAST LANE REGRESSION"):
            runner.check_fast_lane({**good, **patch})

    @pytest.mark.parametrize("patch", [
        {"final_active_frac": 1.0},       # only emptied units pruned
        {"final_active_frac": 0.05},
        {"bit_identical_per_iter": [True, False, True]}])
    def test_row_pruning_gate_fails_loudly(self, patch):
        good = {"final_active_frac": 0.033,
                "contiguous_final_active_frac": 0.031,
                "bit_identical_per_iter": [True, True, True]}
        assert "row pruning ok" in runner.check_row_pruning(
            {"pruning": {"shuffled": good}})
        with pytest.raises(SystemExit, match="ROW PRUNING REGRESSION"):
            runner.check_row_pruning({"pruning": {"shuffled": {**good,
                                                               **patch}}})
        with pytest.raises(SystemExit, match="ROW PRUNING REGRESSION"):
            runner.check_row_pruning({"pruning": {}})

    def test_runner_smoke_appends_to_trajectory(self, tmp_path):
        out = tmp_path / "bench.json"
        for _ in range(2):
            runner.main(["--smoke", "--out", str(out), "--dist-out", "-",
                         "--report", str(tmp_path / "perf.md"),
                         "--m", "1024", "--iters", "1"])
        assert len(json.loads(out.read_text())["entries"]) == 2

    def test_runner_rejects_unknown_args_without_smoke(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--m", "1024"])
        capsys.readouterr()


class TestRegressionGate:
    """The smoke run compares the fresh fast-path record against the
    best prior same-shape entry and fails loudly past the slack."""

    @staticmethod
    def _entry(wall, m=1024, host="ci", chunk_bytes=20971520):
        return {"host": host,
                "config": {"m": m, "n_features": 64, "n_clusters": 64,
                           "iters": 1, "dtype": "float32",
                           "chunk_bytes": chunk_bytes},
                "engine": {"wall_s": wall}}

    def test_fresh_slow_record_fails(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(1.0)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v2",
             "entries": [self._entry(0.1)]}))
        with pytest.raises(SystemExit, match="PERF REGRESSION"):
            runner.check_fastpath_regression(fresh, out, slack=1.5)

    def test_fresh_fast_record_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(0.09)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v2",
             "entries": [self._entry(0.1)]}))
        verdict = runner.check_fastpath_regression(fresh, out, slack=1.5)
        assert "ok" in verdict

    def test_no_prior_shape_skips(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(1.0)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v2",
             "entries": [self._entry(0.1, m=999)]}))
        assert "skipped" in runner.check_fastpath_regression(fresh, out)

    def test_noise_floor_spares_tiny_walls(self, tmp_path):
        # 1 ms vs 8 ms is scheduler jitter at smoke shapes, not a
        # regression — the 0.1 s floor keeps the gate quiet
        out = tmp_path / "bench.json"
        fresh = self._entry(0.008)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v2",
             "entries": [self._entry(0.001)]}))
        assert "ok" in runner.check_fastpath_regression(fresh, out,
                                                        slack=1.5)

    def test_cross_host_and_config_never_compared(self, tmp_path):
        """A slow run on another machine — or a deliberately slower
        config — must not fail against the fast-lane best."""
        out = tmp_path / "bench.json"
        fresh = self._entry(1.0)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v2",
             "entries": [self._entry(0.1, host="fastbox"),
                         self._entry(0.1, chunk_bytes=1 << 20)]}))
        assert "skipped" in runner.check_fastpath_regression(fresh, out)

    def test_smoke_gate_end_to_end(self, tmp_path, capsys):
        """Two identical tiny smoke runs: the second sees the first as
        its prior and passes the gate."""
        out = tmp_path / "bench.json"
        for _ in range(2):
            runner.main(["--smoke", "--out", str(out), "--dist-out", "-",
                         "--report", str(tmp_path / "perf.md"),
                         "--m", "1024", "--iters", "1"])
        out_text = capsys.readouterr().out
        assert "regression check" in out_text
        assert "trend" in out_text
        assert "perf report" in out_text


class TestPruningGate:
    """The pruned-assignment record is gated on two axes: its wall
    against the best prior same-host, same-shape entry (with the usual
    noise floor), and its final active fraction — the workload is
    deterministic per shape, so a grown active set is a pruning-logic
    regression regardless of the clock."""

    @staticmethod
    def _entry(wall, frac=0.0, m=1024, host="ci", iters=12):
        return {"host": host,
                "config": {"m": m, "n_features": 64, "n_clusters": 64,
                           "iters": 1, "dtype": "float32",
                           "workers": 1, "chunk_bytes": 20971520},
                "pruning": {"iters": iters,
                            "pruned_assign_wall_s": wall,
                            "final_active_frac": frac}}

    def test_fresh_slow_record_fails(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(1.0)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v3",
             "entries": [self._entry(0.3)]}))
        with pytest.raises(SystemExit, match="PRUNING REGRESSION"):
            runner.check_pruning_regression(fresh, out, slack=1.5)

    def test_grown_active_frac_fails_despite_fast_wall(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(0.2, frac=0.8)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v3",
             "entries": [self._entry(0.3, frac=0.0)]}))
        with pytest.raises(SystemExit, match="active_frac"):
            runner.check_pruning_regression(fresh, out, slack=1.5)

    def test_fresh_fast_record_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(0.25)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v3",
             "entries": [self._entry(0.3)]}))
        assert "ok" in runner.check_pruning_regression(fresh, out,
                                                       slack=1.5)

    def test_noise_floor_spares_tiny_walls(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(0.08)
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v3",
             "entries": [self._entry(0.01)]}))
        assert "ok" in runner.check_pruning_regression(fresh, out,
                                                       slack=1.5)

    def test_pre_v3_and_cross_shape_entries_skipped(self, tmp_path):
        out = tmp_path / "bench.json"
        fresh = self._entry(1.0)
        legacy = self._entry(0.1)
        del legacy["pruning"]              # pre-v3 entries lack the record
        out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v3",
             "entries": [self._entry(0.1, host="fastbox"),
                         self._entry(0.1, m=999),
                         self._entry(0.1, iters=4),
                         legacy]}))
        assert "skipped" in runner.check_pruning_regression(fresh, out)


class TestDistSmokeGate:
    """`runner --smoke` also exercises the sharded layer: a tiny
    2-worker scaling + crash-recovery + elastic stall-then-shrink +
    kill-spawn-re-expand record must land in BENCH_dist.json with the
    bit-identity, recovery, shrink and selfheal columns intact."""

    def test_runner_smoke_records_dist_scaling(self, tmp_path):
        fp_out = tmp_path / "fastpath.json"
        dist_out = tmp_path / "dist.json"
        runner.main(["--smoke", "--out", str(fp_out),
                     "--dist-out", str(dist_out),
                     "--report", str(tmp_path / "perf.md"),
                     "--m", "1024", "--iters", "1"])
        doc = json.loads(dist_out.read_text())
        assert doc["schema"] == "dist_scaling/v10"
        (record,) = doc["entries"]
        assert record["schema"] == "dist_scaling/v10"
        workers = [row["workers"] for row in record["grid"]]
        assert workers == record["config"]["workers_grid"] == [1, 2]
        for row in record["grid"]:
            assert row["bit_identical_vs_single"] is True
            assert row["wall_s"] > 0
            assert "metrics" not in row   # v9 dropped the per-cell dumps
        rec = record["recovery"]
        assert rec["recoveries"] == 1
        assert rec["recovered_bit_identical"] is True
        for key in ("clean_wall_s", "crash_wall_s", "recovery_overhead_s",
                    "recovery_overhead_frac", "crash_iteration"):
            assert key in rec, key
        # the stall-then-shrink gate: the stalled worker sleeps far past
        # the deadline, so this record existing at all proves no hang
        el = record["elastic"]
        assert el["stall_recoveries"] == 1
        assert el["shrinks"] == 1
        assert el["workers_after_shrink"] == el["workers"] - 1
        assert el["recovered_bit_identical"] is True
        for key in ("round_timeout", "stall_iteration", "clean_wall_s",
                    "stall_wall_s", "shrink_overhead_s",
                    "shrink_overhead_frac"):
            assert key in el, key
        # the on-disk checkpoint overhead record (v9: one write path)
        ck = record["checkpoint"]
        assert ck["bit_identical_vs_clean"] is True
        assert ck["save_s"] > 0 and ck["wall_s"] > 0
        assert ck["saves"] == ck["rounds"] + 1
        for key in ("clean_wall_s", "save_per_checkpoint_s",
                    "overhead_per_round_s"):
            assert key in ck, key
        # the kill -> spawn -> re-expand self-healing record of v4:
        # the fit must finish back at its target fleet size
        sh = record["selfheal"]
        assert sh["recovered_bit_identical"] is True
        assert sh["re_expanded"] is True
        assert sh["workers_after"] == sh["target_workers"] == sh["workers"]
        assert sh["promotions"] + sh["expands"] >= 1
        assert sh["replayed_rounds"] >= 1
        for key in ("kill_iteration", "clean_wall_s", "kill_wall_s",
                    "heal_overhead_s", "heal_overhead_frac",
                    "recovered_round_overhead_s", "hot_spares",
                    "heartbeat_interval"):
            assert key in sh, key
        # the traced crash-recovery re-run of schema v5
        tr = record["trace"]
        assert tr["bit_identical_vs_untraced"] is True
        assert tr["spans"] >= 1 and tr["dropped"] == 0
        for stage in ("fit", "round", "compute", "merge", "update",
                      "recovery"):
            assert stage in tr["stage_totals"], stage
        # the reduce occupancy curve of schema v6: one stream cell per
        # sharded fleet width, every cell bit-identical
        red = record["reduce"]
        assert red["workers_grid"] == record["config"]["reduce_workers_grid"]
        assert red["single_wall_s"] > 0
        for row in red["curve"]:
            assert row["topology"] == "stream"
            assert row["bit_identical_vs_single"] is True
            assert row["reduce_busy_s"] >= 0
            assert "metrics" not in row
        assert [r["workers"] for r in red["curve"]] == [
            w for w in red["workers_grid"] if w > 1]
        # schema v8 dropped the transport record (one process round
        # path); the re-expand-visible boot stats stay on the selfheal
        # record
        assert "transport" not in record
        assert sh["boot_stats"]["cold_spawn"]["count"] >= 1
        # the BLAS thread budget of schema v10 (gated by
        # check_blas_budget): concurrent fleets stay within the cores
        assert record["cores"] >= 1
        for row in record["grid"]:
            assert row["blas_threads"] >= 1
            assert row["efficiency"] > 0
            if row["workers"] > 1:
                assert (row["workers"] * row["blas_threads"]
                        <= record["cores"])
        assert sh["workers"] * sh["blas_threads"] <= record["cores"]

    def test_dist_bench_cli_direct(self, tmp_path):
        from repro.bench import dist as dist_bench

        out = tmp_path / "dist.json"
        record = dist_bench.main(
            ["--smoke", "--m", "2048", "--clusters", "8", "--iters", "2",
             "--workers", "1,2", "--executor", "serial",
             "--out", str(out)])
        assert [r["m"] for r in record["grid"]] == [2048, 2048]
        assert json.loads(out.read_text())["entries"]


class TestNoPoisonedTrajectory:
    """A failed smoke run writes nothing: the records join their
    trajectories only after every gate passed, so one failure cannot
    fail the next run as a stale report."""

    @pytest.mark.parametrize("module,gate", [
        (runner, "check_fast_lane"),                # first gate
        (runner.analysis, "check_dist_trend")])     # last gate
    def test_forced_gate_failure_leaves_files_untouched(
            self, tmp_path, monkeypatch, module, gate):
        fp_out = tmp_path / "fastpath.json"
        dist_out = tmp_path / "dist.json"
        fp_out.write_text(json.dumps(
            {"schema": "fastpath_walltime/v4", "entries": []}))
        dist_out.write_text(json.dumps(
            {"schema": "dist_scaling/v10", "entries": []}))
        before = fp_out.read_bytes(), dist_out.read_bytes()

        def fail(*args, **kwargs):
            raise SystemExit(f"FORCED FAILURE in {gate}")

        monkeypatch.setattr(module, gate, fail)
        with pytest.raises(SystemExit, match="FORCED FAILURE"):
            runner.main(["--smoke", "--out", str(fp_out),
                         "--dist-out", str(dist_out), "--report", "-",
                         "--m", "1024", "--iters", "1"])
        assert (fp_out.read_bytes(), dist_out.read_bytes()) == before


class TestBlasBudgetGate:
    """Every multi-worker cell of the dist record must run W x BLAS
    threads <= cores and stay bit-identical; no wall clock."""

    @staticmethod
    def _record(threads=1, identical=True, heal_threads=1, cores=2):
        return {"cores": cores,
                "grid": [{"workers": 1, "m": 64, "blas_threads": 2,
                          "bit_identical_vs_single": True},
                         {"workers": 2, "m": 64, "blas_threads": threads,
                          "bit_identical_vs_single": identical}],
                "selfheal": {"workers": 2, "blas_threads": heal_threads,
                             "recovered_bit_identical": True}}

    def test_budgeted_fleet_passes(self):
        assert "blas budget ok" in runner.check_blas_budget(self._record())

    @pytest.mark.parametrize("patch", [
        {"threads": 2},                 # 2 workers x 2 threads on 2 cores
        {"heal_threads": 2},            # the process fleet oversubscribes
        {"threads": 0},                 # the count went unrecorded
        {"identical": False}])
    def test_violation_fails_loudly(self, patch):
        with pytest.raises(SystemExit, match="BLAS BUDGET REGRESSION"):
            runner.check_blas_budget(self._record(**patch))

    def test_single_worker_cells_are_not_fleets(self):
        # the W=1 row runs at the caller's count, wider than a share
        assert "ok" in runner.check_blas_budget(self._record(cores=4))

    def test_unreadable_count_skips(self, monkeypatch):
        monkeypatch.setattr(runner, "get_threads", lambda: None)
        assert "skipped" in runner.check_blas_budget(
            self._record(threads=2))


class TestSelfhealGate:
    """The selfheal record's per-recovered-round overhead is gated
    against the best prior same-host, same-shape entry — with a noise
    floor so spawn-jitter-sized overheads never trip it."""

    @staticmethod
    def _entry(overhead, m_grid=(16384,), host="ci", workers=2):
        return {"host": host,
                "config": {"m_grid": list(m_grid), "n_features": 32,
                           "n_clusters": 16, "iters": 3,
                           "dtype": "float32", "checkpoint_every": 2},
                "selfheal": {"workers": workers,
                             "recovered_round_overhead_s": overhead}}

    def test_fresh_slow_record_fails(self, tmp_path):
        out = tmp_path / "dist.json"
        fresh = self._entry(1.0)
        out.write_text(json.dumps(
            {"schema": "dist_scaling/v4",
             "entries": [self._entry(0.3)]}))
        with pytest.raises(SystemExit, match="SELFHEAL REGRESSION"):
            runner.check_selfheal_regression(fresh, out, slack=1.5)

    def test_fresh_fast_record_passes(self, tmp_path):
        out = tmp_path / "dist.json"
        fresh = self._entry(0.25)
        out.write_text(json.dumps(
            {"schema": "dist_scaling/v4",
             "entries": [self._entry(0.3)]}))
        assert "ok" in runner.check_selfheal_regression(fresh, out,
                                                        slack=1.5)

    def test_noise_floor_spares_tiny_overheads(self, tmp_path):
        # best prior 10 ms, fresh 80 ms: 8x worse but both are spawn
        # jitter — the 0.1 s floor keeps the gate quiet
        out = tmp_path / "dist.json"
        fresh = self._entry(0.08)
        out.write_text(json.dumps(
            {"schema": "dist_scaling/v4",
             "entries": [self._entry(0.01)]}))
        assert "ok" in runner.check_selfheal_regression(fresh, out,
                                                        slack=1.5)

    def test_cross_host_shape_and_v3_entries_skipped(self, tmp_path):
        out = tmp_path / "dist.json"
        fresh = self._entry(1.0)
        legacy_v3 = self._entry(0.1)
        del legacy_v3["selfheal"]          # pre-v4 entries lack the record
        out.write_text(json.dumps(
            {"schema": "dist_scaling/v4",
             "entries": [self._entry(0.1, host="fastbox"),
                         self._entry(0.1, m_grid=(999,)),
                         self._entry(0.1, workers=4),
                         legacy_v3]}))
        assert "skipped" in runner.check_selfheal_regression(fresh, out)


class TestReduceGate:
    """The reduce curve is gated on bit-identity and on the stream
    merge's occupancy at the widest fleet against the best prior
    same-host, same-shape stream cell (star/tree cells of older
    entries never count)."""

    @staticmethod
    def _entry(busy, host="ci", identical=True, extra=()):
        curve = [{"workers": 8, "topology": "stream",
                  "reduce_busy_s": busy,
                  "bit_identical_vs_single": identical}]
        curve += [{"workers": 8, "topology": t, "reduce_busy_s": 0.0,
                   "bit_identical_vs_single": True} for t in extra]
        return {"host": host,
                "config": {"m_grid": [16384], "n_features": 32,
                           "n_clusters": 16, "iters": 3,
                           "dtype": "float32", "checkpoint_every": 2},
                "reduce": {"workers_grid": [1, 8], "curve": curve}}

    def _write(self, tmp_path, entries):
        out = tmp_path / "dist.json"
        out.write_text(json.dumps({"schema": "dist_scaling/v7",
                                   "entries": entries}))
        return out

    def test_bit_mismatch_fails(self, tmp_path):
        fresh = self._entry(0.01, identical=False)
        out = self._write(tmp_path, [])
        with pytest.raises(SystemExit, match="bit-identical"):
            runner.check_reduce_scaling(fresh, out)

    def test_slow_stream_fails_against_prior_stream_only(self, tmp_path):
        fresh = self._entry(1.0)
        out = self._write(tmp_path, [
            self._entry(0.1, extra=("star", "tree")),
            self._entry(0.001, host="fastbox")])
        with pytest.raises(SystemExit, match="stream occupancy"):
            runner.check_reduce_scaling(fresh, out, slack=1.5)

    def test_noise_floor_spares_tiny_occupancy(self, tmp_path):
        fresh = self._entry(0.012)
        out = self._write(tmp_path, [self._entry(0.002)])
        assert "ok" in runner.check_reduce_scaling(fresh, out, slack=1.5)
