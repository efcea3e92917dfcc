"""Metric catalogue and the per-layer reduction of one traced fit.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
that ``BENCHMARK.json`` declares; the tests hold the two in sync.  A
unit ending in ``-computed`` marks a count derived from the shapes and
counters of the work done, not read from hardware counters.

Where a layer does not run on a workload its metrics report 0 (counts)
or 0.0 (times, ratios), so every traced result carries every name.

What each per-layer metric should move (stated before measuring):

* ``init.s`` moves ``fit_s`` on cold-fit, not on converge-f64 (which
  warm-starts from ``init_centroids``).
* ``engine.*`` move ``fit_s`` and ``predict_rows_per_s`` on cold-fit;
  ``engine.operand_bytes`` moves ``peak_rss_mb``.
* ``bounds.*`` and ``engine.computed_frac`` move ``fit_s`` on
  converge-f64, not on cold-fit.
* ``update.*`` move ``fit_s``, most on converge-f64.
* ``abft.*`` and ``engine.fault_lane_chunks`` move ``fit_s`` and
  ``inertia_rel_err`` on ft-inject and stay 0 elsewhere.
* ``dist.*`` move ``fit_s`` on fleet-2w only; ``dist.speedup_vs_1w``
  is reported, never gated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["END_TO_END", "PER_LAYER", "layer_metrics", "median_metrics"]

#: (name, unit, better, bound)
END_TO_END = (
    ("fit_s", "s", "lower", 0.25),
    ("predict_rows_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better)
PER_LAYER = (
    ("validate.s", "s", "lower"),
    ("init.s", "s", "lower"),
    ("engine.begin_fit_s", "s", "lower"),
    ("engine.assign_s", "s", "lower"),
    ("engine.gemm_s", "s", "lower"),
    ("engine.fast_lane_frac", "ratio", "higher"),
    ("engine.gemm_gflop", "GFLOP-computed", "lower"),
    ("engine.gemm_gflops", "GFLOP/s", "higher"),
    ("engine.gemm_eff", "ratio", "higher"),
    ("engine.operand_bytes", "bytes", "lower"),
    ("engine.computed_frac", "ratio", "lower"),
    ("engine.fault_lane_chunks", "count", "lower"),
    ("bounds.s", "s", "lower"),
    ("bounds.certified_frac", "ratio", "higher"),
    ("bounds.useful_frac", "ratio", "higher"),
    ("update.s", "s", "lower"),
    ("update.feed_s", "s", "lower"),
    ("update.bytes", "bytes-computed", "lower"),
    ("update.gbs", "GB/s", "higher"),
    ("update.ops_per_byte", "ops/byte", "higher"),
    ("convergence.s", "s", "lower"),
    ("convergence.n_iter", "count", "lower"),
    ("abft.injected", "count", "lower"),
    ("abft.detected", "count", "higher"),
    ("abft.corrected", "count", "higher"),
    ("abft.escaped", "count", "lower"),
    ("abft.checksum_tests", "count", "lower"),
    ("abft.dmr_mismatches", "count", "lower"),
    ("abft.dmr_s", "s", "lower"),
    ("inertia_rel_err", "ratio", "lower"),
    ("dist.coord_fit_s", "s", "lower"),
    ("dist.boot_s", "s", "lower"),
    ("dist.worker_round_s", "s", "lower"),
    ("dist.wait_s", "s", "lower"),
    ("dist.merge_s", "s", "lower"),
    ("dist.update_s", "s", "lower"),
    ("dist.reduce_busy_s", "s", "lower"),
    ("dist.broadcast_bytes", "bytes", "lower"),
    ("dist.gather_bytes", "bytes", "lower"),
    ("dist.serial_frac", "ratio", "lower"),
    ("dist.speedup_vs_1w", "ratio", "higher"),
    ("obs.spans", "count", "lower"),
    ("obs.trace_overhead_s", "s", "lower"),
    ("api.unattributed_s", "s", "lower"),
    ("baseline.fit_s", "s", "lower"),
    ("ceiling.gemm_gflops", "GFLOP/s", "higher"),
    ("ceiling.stream_gbs", "GB/s", "higher"),
)


def _span_totals(spans) -> dict:
    totals: dict = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.wall_s
    return totals


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(probe, spans, km, fit_wall: float,
                  gemm_ceiling: float) -> dict:
    """Per-layer figures of one traced fit.

    ``probe`` is the fit's :class:`~probes.LayerProbe`, ``spans`` the
    estimator tracer's completed spans and ``km`` the fitted estimator.
    Run-level figures (trace overhead, ceilings, baseline, speed-up)
    are added by the caller.
    """
    n_clusters, n_features = km.cluster_centers_.shape
    totals = _span_totals(spans)
    c = km.counters_

    # engine counters as deltas over this fit, worker engines included
    chunks = batched = pass_rows = pruned = 0
    injecting = False
    for engine, before, rows in probe.engines:
        st = engine.stats
        chunks += st.chunks_run - before.chunks_run
        batched += st.batched_chunks - before.batched_chunks
        pass_rows += (st.assigns - before.assigns) * rows
        pruned += st.rows_pruned - before.rows_pruned
        injecting |= bool(getattr(engine.injector, "enabled", False))
    computed_rows = pass_rows - pruned
    gemm_gflop = 2.0 * n_features * n_clusters * computed_rows / 1e9
    gemm_s = totals.get("gemm", 0.0)
    gemm_gflops = _ratio(gemm_gflop, gemm_s)
    # with the rounded operand hoisted, a fault-planned chunk is the only
    # reason a full (unpruned) chunk leaves the stacked-matmul lane
    walked = sum(1 for s in spans if s.name == "gemm"
                 and not s.meta.get("batched") and "pruned" not in s.meta)

    fed_ops = probe.fed_rows * (n_features + 1)

    merge_under_compute = sum(s.wall_s for s in spans
                              if s.name == "merge" and s.parent == "compute")
    wait_s = totals.get("compute", 0.0) - merge_under_compute
    dist_run = bool(probe.total("dist.coord_fit"))

    return {
        "validate.s": probe.total("validate"),
        "init.s": probe.total("init"),
        "engine.begin_fit_s": probe.total("engine.begin_fit"),
        "engine.assign_s": probe.total("engine.assign"),
        "engine.gemm_s": gemm_s,
        "engine.fast_lane_frac": _ratio(batched, chunks),
        "engine.gemm_gflop": gemm_gflop,
        "engine.gemm_gflops": gemm_gflops,
        "engine.gemm_eff": _ratio(gemm_gflops, gemm_ceiling),
        "engine.operand_bytes": probe.operand_bytes,
        "engine.computed_frac": _ratio(computed_rows, pass_rows),
        "engine.fault_lane_chunks": walked if injecting else 0,
        "bounds.s": probe.total("bounds"),
        "bounds.certified_frac": _ratio(probe.certified_rows,
                                        probe.bounded_rows),
        "bounds.useful_frac": _ratio(pruned, probe.certified_rows),
        "update.s": probe.total("update"),
        "update.feed_s": probe.total("update.feed", parent="engine.assign"),
        "update.bytes": probe.fed_bytes,
        "update.gbs": _ratio(probe.fed_bytes / 1e9,
                             probe.total("update.feed")),
        "update.ops_per_byte": _ratio(fed_ops, probe.fed_bytes),
        "convergence.s": probe.total("convergence"),
        "convergence.n_iter": int(km.n_iter_),
        "abft.injected": int(c.errors_injected),
        "abft.detected": int(c.errors_detected),
        "abft.corrected": int(c.errors_corrected),
        "abft.escaped": int(c.errors_injected - c.errors_detected),
        "abft.checksum_tests": int(c.checksum_tests),
        "abft.dmr_mismatches": int(c.dmr_mismatches),
        "abft.dmr_s": probe.total("abft.dmr"),
        "dist.coord_fit_s": probe.total("dist.coord_fit"),
        "dist.boot_s": probe.total("dist.boot"),
        "dist.worker_round_s": probe.total("dist.worker_round"),
        "dist.wait_s": wait_s if dist_run else 0.0,
        "dist.merge_s": totals.get("merge", 0.0) if dist_run else 0.0,
        "dist.update_s": totals.get("update", 0.0) if dist_run else 0.0,
        "dist.reduce_busy_s": float(getattr(km, "dist_reduce_busy_s_", 0.0)),
        "dist.broadcast_bytes": int(getattr(km, "dist_broadcast_bytes_", 0)),
        "dist.gather_bytes": int(getattr(km, "dist_gather_bytes_", 0)),
        "dist.serial_frac": (1.0 - _ratio(wait_s, fit_wall)
                             if dist_run else 0.0),
        "obs.spans": len(spans),
        "api.unattributed_s": fit_wall - probe.top_level_s(),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Per-name median over the traced repeats of one run."""
    return {k: float(np.median([s[k] for s in samples]))
            for k in samples[0]}
