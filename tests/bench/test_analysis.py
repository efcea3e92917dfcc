"""Tests for the bench trajectory analytics (repro.bench.analysis)."""

import json
from pathlib import Path

import pytest

from repro.bench import analysis, runner
from repro.bench.fastpath import write_record

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _fp_entry(wall, *, host="ci", m=1024, schema=None, trace=None,
              extra=None):
    e = {"host": host, "bench": "fastpath_walltime",
         "config": {"m": m, "n_features": 64, "n_clusters": 64,
                    "iters": 1, "dtype": "float32", "workers": 1,
                    "chunk_bytes": 20971520},
         "engine": {"wall_s": wall}}
    if schema:
        e["schema"] = schema
    if trace:
        e["trace"] = trace
    if extra:
        e.update(extra)
    return e


def _fp_doc(walls, **kw):
    return {"schema": "fastpath_walltime/v1",
            "entries": [_fp_entry(w, **kw) for w in walls]}


class TestSchemaHelpers:
    def test_schema_version(self):
        assert analysis.schema_version("fastpath_walltime/v3") == 3
        assert analysis.schema_version("dist_scaling/v10") == 10
        assert analysis.schema_version(None) == 0
        assert analysis.schema_version("junk") == 0

    def test_schema_family(self):
        assert analysis.schema_family("fastpath_walltime/v1") \
            == "fastpath_walltime"
        assert analysis.schema_family("dist_scaling/v4") == "dist_scaling"
        assert analysis.schema_family("unknown/v1") is None

    def test_infer_fastpath_generations(self):
        assert analysis.infer_entry_schema({}, "fastpath_walltime") \
            == "fastpath_walltime/v1"
        assert analysis.infer_entry_schema(
            {"unit_path_bit_identical": True},
            "fastpath_walltime") == "fastpath_walltime/v2"
        assert analysis.infer_entry_schema(
            {"pruning": {}}, "fastpath_walltime") == "fastpath_walltime/v3"
        assert analysis.infer_entry_schema(
            {"trace": {}}, "fastpath_walltime") == "fastpath_walltime/v4"

    def test_infer_dist_generations(self):
        fam = "dist_scaling"
        assert analysis.infer_entry_schema({}, fam) == "dist_scaling/v1"
        assert analysis.infer_entry_schema({"elastic": {}}, fam) \
            == "dist_scaling/v2"
        assert analysis.infer_entry_schema({"checkpoint": {}}, fam) \
            == "dist_scaling/v3"
        assert analysis.infer_entry_schema({"selfheal": {}}, fam) \
            == "dist_scaling/v4"
        assert analysis.infer_entry_schema({"trace": {}}, fam) \
            == "dist_scaling/v5"
        assert analysis.infer_entry_schema({"reduce": {}}, fam) \
            == "dist_scaling/v6"
        assert analysis.infer_entry_schema({"transport": {}}, fam) \
            == "dist_scaling/v7"

    def test_migrate_entry_stamps_schema(self):
        out = analysis.migrate_entry(_fp_entry(1.0), "fastpath_walltime")
        assert out["schema"] == "fastpath_walltime/v1"
        assert out["schema_version"] == 1

    def test_migrate_rejects_wrong_family(self):
        e = _fp_entry(1.0, schema="dist_scaling/v4")
        with pytest.raises(analysis.SchemaError, match="does not belong"):
            analysis.migrate_entry(e, "fastpath_walltime")

    def test_migrate_rejects_future_schema(self):
        e = _fp_entry(1.0, schema="fastpath_walltime/v99")
        with pytest.raises(analysis.SchemaError, match="postdates"):
            analysis.migrate_entry(e, "fastpath_walltime")

    def test_migrate_rejects_configless_entry(self):
        with pytest.raises(analysis.SchemaError, match="config"):
            analysis.migrate_entry({"engine": {}}, "fastpath_walltime")


class TestLoader:
    def test_load_and_migrate(self, tmp_path):
        p = tmp_path / "t.json"
        doc = _fp_doc([1.0, 2.0])
        doc["entries"][1]["schema"] = "fastpath_walltime/v3"
        doc["entries"][1]["pruning"] = {}
        p.write_text(json.dumps(doc))
        traj = analysis.load_trajectory(p)
        assert traj.family == "fastpath_walltime"
        assert [e["schema_version"] for e in traj.entries] == [1, 3]
        assert traj.newest_schema == "fastpath_walltime/v3"
        assert traj.has_drift is True  # top-level still says v1

    def test_family_fallback_via_bench_key(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"entries": [_fp_entry(1.0)]}))
        assert analysis.load_trajectory(p).family == "fastpath_walltime"

    def test_bad_shapes_raise(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("[]")
        with pytest.raises(analysis.SchemaError):
            analysis.load_trajectory(p)
        p.write_text(json.dumps({"schema": "x", "entries": [{}]}))
        with pytest.raises(analysis.SchemaError):
            analysis.load_trajectory(p)
        with pytest.raises(analysis.SchemaError):
            analysis.load_trajectory(tmp_path / "missing.json")

    def test_dist_loader_accepts_v10_rejects_v11(self, tmp_path):
        p = tmp_path / "dist.json"

        def write(schema):
            p.write_text(json.dumps({
                "schema": schema,
                "entries": [{"bench": "dist_scaling", "schema": schema,
                             "config": {"m_grid": [1024]}}]}))

        write("dist_scaling/v10")
        traj = analysis.load_trajectory(p)
        assert traj.family == "dist_scaling"
        assert [e["schema_version"] for e in traj.entries] == [10]
        write("dist_scaling/v11")
        with pytest.raises(analysis.SchemaError, match="postdates"):
            analysis.load_trajectory(p)

    def test_host_normalization(self, tmp_path):
        p = tmp_path / "t.json"
        doc = {"schema": "fastpath_walltime/v1",
               "entries": [_fp_entry(1.0, host="slow"),
                           _fp_entry(3.0, host="slow"),
                           _fp_entry(0.1, host="fast")]}
        p.write_text(json.dumps(doc))
        traj = analysis.load_trajectory(p)
        assert traj.host_medians == {"slow": 2.0, "fast": 0.1}
        assert traj.normalized_wall(traj.entries[0]) == pytest.approx(0.5)
        assert traj.normalized_wall(traj.entries[2]) == pytest.approx(1.0)


class TestShippedTrajectories:
    """The committed BENCH files load, migrate and validate end to end
    across every schema generation they accumulated."""

    @pytest.mark.parametrize("name,family,legacy_versions", [
        ("BENCH_fastpath.json", "fastpath_walltime", (1, 2, 3)),
        ("BENCH_dist.json", "dist_scaling", (1, 2, 3, 4)),
    ])
    def test_shipped_file_loads_across_versions(self, name, family,
                                                legacy_versions):
        path = REPO_ROOT / name
        if not path.exists():
            pytest.skip(f"{name} not present in this checkout")
        traj = analysis.load_trajectory(path)
        assert traj.family == family
        assert len(traj.entries) >= len(legacy_versions)
        # the pre-schema-key era really is represented and inferred
        assert set(legacy_versions) <= set(traj.versions)
        for e in traj.entries:
            assert e["schema"].startswith(family + "/v")
            assert e["schema_version"] in range(
                1, analysis.SCHEMA_FAMILIES[family] + 1)
            assert traj.wall_of(e) is not None
        assert traj.hosts  # every entry carries a host

    def test_committed_report_matches_trajectories(self):
        """Tier-1 stale gate: docs/perf.md is a pure function of the
        committed BENCH files; regenerate and diff."""
        fp = REPO_ROOT / "BENCH_fastpath.json"
        dist = REPO_ROOT / "BENCH_dist.json"
        report = REPO_ROOT / "docs" / "perf.md"
        if not fp.exists() and not dist.exists():
            pytest.skip("no trajectory files in this checkout")
        assert report.exists(), (
            "docs/perf.md missing — run `python -m repro.bench.runner "
            "--smoke` and commit the regenerated report")
        assert not analysis.report_is_stale(report, fp, dist), (
            "docs/perf.md is stale — run `python -m repro.bench.runner "
            "--smoke` and commit the regenerated report")


class TestChangepoint:
    def test_detects_step(self):
        cp = analysis.detect_changepoint(
            [1.0, 1.1, 0.9, 1.0, 2.0, 2.1, 1.9, 2.0])
        assert cp is not None
        assert cp.index == 4
        assert cp.pre_mean == pytest.approx(1.0)
        assert cp.post_mean == pytest.approx(2.0)
        assert cp.shift == pytest.approx(2.0)
        assert cp.gain > 0.9

    def test_flat_noise_has_no_changepoint(self):
        assert analysis.detect_changepoint(
            [1.0, 1.05, 0.95, 1.02, 0.98, 1.01]) is None

    def test_short_series_has_no_changepoint(self):
        assert analysis.detect_changepoint([1.0, 2.0, 3.0]) is None
        assert analysis.detect_changepoint([]) is None

    def test_constant_series_has_no_changepoint(self):
        assert analysis.detect_changepoint([1.0] * 8) is None


class TestTrendGate:
    """The gated record is not in the file yet (``runner --smoke``
    writes it only after every gate passes): each case writes the
    priors and gates the last wall as the fresh record."""

    @staticmethod
    def _gate(tmp_path, walls):
        p = tmp_path / "t.json"
        doc = _fp_doc(walls)
        fresh = doc["entries"].pop()
        p.write_text(json.dumps(doc))
        return fresh, p

    def test_sustained_slowdown_fails(self, tmp_path):
        fresh, p = self._gate(tmp_path, [1.0, 1.05, 0.95, 1.0, 1.9, 2.0,
                                         2.1])
        with pytest.raises(SystemExit, match="TREND REGRESSION"):
            analysis.check_fastpath_trend(fresh, p)

    def test_flat_series_passes(self, tmp_path):
        fresh, p = self._gate(tmp_path, [1.0, 1.05, 0.95, 1.0, 1.02, 0.98])
        assert "ok" in analysis.check_fastpath_trend(fresh, p)

    def test_shift_within_slack_passes(self, tmp_path):
        # 1.0 -> 1.3 is a real changepoint but under the 1.5x slack
        fresh, p = self._gate(tmp_path, [1.0, 1.01, 0.99, 1.0, 1.3, 1.31,
                                         1.29, 1.3])
        verdict = analysis.check_fastpath_trend(fresh, p)
        assert "ok" in verdict and "changepoint" in verdict

    def test_noise_floor_spares_tiny_walls(self, tmp_path):
        # 10 ms -> 50 ms is a 5x shift but under the 0.1 s floor
        fresh, p = self._gate(tmp_path, [0.01, 0.011, 0.009, 0.01, 0.05,
                                         0.051, 0.049, 0.05])
        assert "ok" in analysis.check_fastpath_trend(fresh, p)

    def test_short_series_skips(self, tmp_path):
        fresh, p = self._gate(tmp_path, [1.0, 2.0])
        assert "skipped" in analysis.check_fastpath_trend(fresh, p)

    def test_fresh_wall_equal_to_last_prior_still_counts(self, tmp_path):
        # three priors plus a fresh record repeating the last wall make
        # a four-entry series: the fresh record is never mistaken for
        # an already-appended entry
        fresh, p = self._gate(tmp_path, [1.0, 1.0, 1.0, 1.0])
        assert "4 same-shape entries" in analysis.check_fastpath_trend(
            fresh, p)

    def test_other_hosts_and_shapes_excluded(self, tmp_path):
        p = tmp_path / "t.json"
        doc = {"schema": "fastpath_walltime/v1",
               "entries": [_fp_entry(1.0, host="other") for _ in range(6)]
               + [_fp_entry(9.0, m=999) for _ in range(6)]}
        p.write_text(json.dumps(doc))
        assert "skipped" in analysis.check_fastpath_trend(
            _fp_entry(5.0), p)

    def test_unreadable_file_skips(self, tmp_path):
        fresh = _fp_entry(1.0)
        assert "skipped" in analysis.check_fastpath_trend(
            fresh, tmp_path / "missing.json")

    def test_dist_trend_uses_recovery_wall(self, tmp_path):
        p = tmp_path / "d.json"
        entries = []
        for wall in [1.0, 1.02, 0.98, 1.0, 2.4, 2.5, 2.45]:
            entries.append({
                "host": "ci", "bench": "dist_scaling",
                "config": {"m_grid": [16384], "n_features": 32,
                           "n_clusters": 16, "iters": 3,
                           "dtype": "float32", "checkpoint_every": 2},
                "recovery": {"clean_wall_s": wall}})
        fresh = entries.pop()
        p.write_text(json.dumps({"schema": "dist_scaling/v1",
                                 "entries": entries}))
        with pytest.raises(SystemExit, match="TREND REGRESSION"):
            analysis.check_dist_trend(fresh, p)


class TestWriteRecordSchemaBump:
    def test_append_bumps_stale_top_level_schema(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(_fp_doc([1.0])))  # top-level v1
        write_record(_fp_entry(2.0, schema="fastpath_walltime/v4"),
                     p, schema="fastpath_walltime/v4")
        doc = json.loads(p.read_text())
        assert doc["schema"] == "fastpath_walltime/v4"
        assert len(doc["entries"]) == 2

    def test_append_never_downgrades(self, tmp_path):
        p = tmp_path / "t.json"
        doc = _fp_doc([1.0])
        doc["schema"] = "fastpath_walltime/v4"
        p.write_text(json.dumps(doc))
        write_record(_fp_entry(2.0), p, schema="fastpath_walltime/v2")
        assert json.loads(p.read_text())["schema"] == "fastpath_walltime/v4"


class TestReport:
    def _write_files(self, tmp_path):
        fp = tmp_path / "BENCH_fastpath.json"
        trace = {"wall_s": 0.5, "spans": 12, "dropped": 0,
                 "bit_identical_vs_untraced": True,
                 "stage_totals": {
                     "fit": {"wall_s": 0.5, "count": 1},
                     "gemm": {"wall_s": 0.2, "count": 4},
                     "assign_chunk": {"wall_s": 0.3, "count": 4},
                     "update_feed": {"wall_s": 0.1, "count": 4}}}
        doc = _fp_doc([1.0, 1.1])
        doc["entries"].append(
            _fp_entry(1.05, schema="fastpath_walltime/v4", trace=trace))
        fp.write_text(json.dumps(doc))
        return fp, tmp_path / "BENCH_dist.json"  # dist left missing

    def test_render_is_deterministic(self, tmp_path):
        fp, dist = self._write_files(tmp_path)
        a = analysis.render_perf_report(fp, dist)
        b = analysis.render_perf_report(fp, dist)
        assert a == b

    def test_report_contains_stage_breakdown(self, tmp_path):
        fp, dist = self._write_files(tmp_path)
        text = analysis.render_perf_report(fp, dist)
        assert "# Performance report" in text
        assert "distance GEMM" in text and "`gemm`" in text
        assert "observability.md" in text
        assert "unavailable" in text  # the missing dist file is reported

    def test_stale_detection_round_trip(self, tmp_path):
        fp, dist = self._write_files(tmp_path)
        report = tmp_path / "perf.md"
        assert analysis.report_is_stale(report, fp, dist)  # not written yet
        analysis.write_perf_report(report, fp, dist)
        assert not analysis.report_is_stale(report, fp, dist)
        # touching a trajectory re-stales the report
        doc = json.loads(fp.read_text())
        doc["entries"].append(_fp_entry(9.9))
        fp.write_text(json.dumps(doc))
        assert analysis.report_is_stale(report, fp, dist)

    def test_runner_stale_gate(self, tmp_path):
        fp, dist = self._write_files(tmp_path)
        report = tmp_path / "perf.md"
        with pytest.raises(SystemExit, match="STALE PERF REPORT"):
            runner.check_stale_report(report, fp, dist)
        analysis.write_perf_report(report, fp, dist)
        assert "ok" in runner.check_stale_report(report, fp, dist)
        report.write_text("edited by hand\n")
        with pytest.raises(SystemExit, match="STALE PERF REPORT"):
            runner.check_stale_report(report, fp, dist)

    def test_runner_stale_gate_skips_without_trajectories(self, tmp_path):
        assert "skipped" in runner.check_stale_report(
            tmp_path / "perf.md", tmp_path / "a.json", tmp_path / "b.json")
