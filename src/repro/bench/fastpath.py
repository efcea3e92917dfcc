"""Wall-clock benchmark of the blocked streaming fast-path engine.

Unlike the figure harness — which charges an analytic *simulated* clock —
this module measures real host time, so subsequent PRs can track genuine
speedups of the hot loop.  It drives a multi-iteration Lloyd fit at a
configurable shape through the assignment **and** update stages:

* ``unchunked`` — the seed one-shot fast path (full M x N accumulator)
  plus the seed ``np.add.at`` update accumulation, kept as the
  regression baseline;
* ``engine``    — the chunked streaming :class:`FastPathEngine` with the
  centroid-update accumulation *fused* into its chunk loop (the
  production path since the streamed-update PR);
* ``stages``    — a per-stage split run: pure chunked assignment, then
  the ``oneshot`` (``np.add.at``) and ``streamed`` (chunked bincount)
  update accumulations timed on the same labels.  All three update
  implementations are bit-identical, so every run walks the same Lloyd
  trajectory.

Each run appends one record to ``BENCH_fastpath.json`` (a perf
trajectory: list of entries, newest last).  Run from the CLI::

    python -m repro.bench.fastpath                 # paper-ish shape
    python -m repro.bench.fastpath --smoke         # < 60 s gating run
    python -m repro.bench.runner --smoke           # same, via the runner
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.accumulate import (
    StreamedAccumulator,
    accumulate_oneshot,
    accumulate_streamed,
)
from repro.core.engine import FastPathEngine, unchunked_assign
from repro.core.tensorop import default_tensorop_tile
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import get_device
from repro.obs.trace import TraceRecorder, active_tracer

__all__ = ["run_fastpath_bench", "run_hoist_twin", "run_smoke",
           "write_record", "DEFAULT_RESULT_PATH", "SCHEMA", "main"]

#: perf-trajectory file, resolved against the working directory (the
#: repository root when run from a checkout; installs pass --out)
DEFAULT_RESULT_PATH = Path("BENCH_fastpath.json")

#: v4 added the traced pass (``trace`` key): the same fused fit run
#: once more under a :class:`~repro.obs.trace.TraceRecorder`, with the
#: per-stage wall breakdown (gemm / assign_chunk / update_feed /
#: bounds_refresh) stored in the record so ``docs/perf.md`` can be
#: regenerated from the trajectory file alone.  v3 added the
#: bound-pruned assignment comparison (``pruning`` key); v2 the
#: fault-free fast lane (``engine.batched_chunks``, per-unit-path
#: bit-identity check)
SCHEMA = "fastpath_walltime/v4"

#: shape of the acceptance benchmark (paper-scale-ish, CI-feasible)
FULL_SHAPE = dict(m=200_000, n_features=64, n_clusters=64, iters=8)

#: shape of the smoke/gating run (< 60 s wall clock including baseline)
SMOKE_SHAPE = dict(m=60_000, n_features=64, n_clusters=64, iters=3)

#: shape of the operand-hoist twin: small, run with a chunk budget
#: below ``x.nbytes`` (the budget that once declined the hoist)
HOIST_TWIN_SHAPE = dict(m=8192, n_features=32, n_clusters=16, iters=2)

#: iterations of the pruning comparison: the workload converges (and
#: the centroids bit-freeze) after ~3, so most of the loop runs in the
#: pruned regime — pruning pays per *converged* iteration, which is
#: where real fits spend their tails (the two active warm-up passes
#: carry the Hamerly refresh overhead, one extra O(M*K) min per pass)
PRUNE_ITERS = 12


def _divide(sums: np.ndarray, dtype) -> np.ndarray:
    """Packed (K, N+1) sums -> centroids; bit-identical to the seed
    ``reference_update`` tail (empty clusters keep zero rows)."""
    k = sums.shape[1] - 1
    counts = sums[:, k]
    out = np.zeros((sums.shape[0], k), dtype=np.float64)
    nz = counts > 0
    out[nz] = sums[nz, :k] / counts[nz, None]
    return out.astype(dtype)


def _lloyd_split(x, y0, n_clusters, iters, assign_fn):
    """Per-stage Lloyd loop: time assignment, then both (bit-identical)
    update accumulations on the same labels.

    The streamed result drives the trajectory; returns the first
    iteration's labels (both benchmark paths see identical centroids
    there, so comparing them measures pure assignment agreement without
    the tie-break cascade independent trajectories accumulate) and the
    final labels.
    """
    y = y0.copy()
    assign_s, upd_streamed_s, upd_oneshot_s = [], [], []
    labels = first_labels = None
    for it in range(iters):
        t0 = time.perf_counter()
        labels, _ = assign_fn(x, y)
        assign_s.append(time.perf_counter() - t0)
        if it == 0:
            first_labels = labels.copy()
        t0 = time.perf_counter()
        sums = accumulate_streamed(x, labels, n_clusters)
        upd_streamed_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        accumulate_oneshot(x, labels, n_clusters)  # baseline impl, timed
        upd_oneshot_s.append(time.perf_counter() - t0)
        y = _divide(sums, x.dtype)
    return {
        "assign_per_iter_s": assign_s,
        "update_streamed_per_iter_s": upd_streamed_s,
        "update_oneshot_per_iter_s": upd_oneshot_s,
        "first_labels": first_labels,
        "labels": labels.copy(),
    }


def _lloyd_fused(x, y0, n_clusters, iters, engine, tracer=None):
    """The production path: fused assign+accumulate per chunk, then the
    O(K·N) divide tail.  With a ``tracer`` the loop emits the same
    ``fit -> iteration`` outer spans the API path does, so bench traces
    share the engine taxonomy."""
    tr = active_tracer(tracer)
    acc = StreamedAccumulator(n_clusters, x.shape[1])
    y = y0.copy()
    fused_s, tail_s = [], []
    labels = first_labels = first_best = None
    t_all = time.perf_counter()
    with tr.span("fit", m=int(x.shape[0]), n_features=int(x.shape[1]),
                 n_clusters=int(n_clusters)):
        for it in range(iters):
            with tr.span("iteration", iteration=int(it)):
                acc.reset()
                t0 = time.perf_counter()
                labels, best = engine.assign(x, y, PerfCounters(),
                                             accumulator=acc)
                fused_s.append(time.perf_counter() - t0)
                if it == 0:
                    first_labels = labels.copy()
                    first_best = best.copy()
                t0 = time.perf_counter()
                y = _divide(acc.packed(), x.dtype)
                tail_s.append(time.perf_counter() - t0)
    total = time.perf_counter() - t_all
    return {
        "wall_s": total,
        "per_iter_s": fused_s,
        "update_tail_per_iter_s": tail_s,
        "first_labels": first_labels,
        "first_best": first_best,
        "labels": labels.copy(),
        "centroids": y,
    }


def _lloyd_unchunked(x, y0, n_clusters, iters, dtype, tf32):
    """The seed baseline: one-shot assignment + ``np.add.at`` update."""
    y = y0.copy()
    assign_s, update_s = [], []
    labels = first_labels = None
    t_all = time.perf_counter()
    for it in range(iters):
        t0 = time.perf_counter()
        labels, _ = unchunked_assign(x, y, dtype=dtype, tf32=tf32)
        assign_s.append(time.perf_counter() - t0)
        if it == 0:
            first_labels = labels.copy()
        t0 = time.perf_counter()
        sums = accumulate_oneshot(x, labels, n_clusters)
        update_s.append(time.perf_counter() - t0)
        y = _divide(sums, x.dtype)
    total = time.perf_counter() - t_all
    return {
        "wall_s": total,
        "per_iter_s": assign_s,
        "update_per_iter_s": update_s,
        "first_labels": first_labels,
        "labels": labels.copy(),
    }


def _pruning_workload(m, n_features, n_clusters, dt, seed,
                      wide_pair: bool = False):
    """A converging workload the bounds can prune: well-separated blobs
    laid out contiguously (frozen blobs empty whole GEMM units) and a
    near-converged warm start, so labels settle within ~2 iterations
    and the centroids bit-freeze right after.

    ``wide_pair`` draws the first two blobs as one wide blob (ten
    times the spread) around the first centre and starts their two
    centroids off its middle: the boundary between them keeps
    drifting, so those two centroids keep moving for many iterations
    while every other blob is unchanged and freezes as before."""
    rng = np.random.default_rng(seed + 1)
    centers = (rng.standard_normal((n_clusters, n_features)) * 6.0
               ).astype(dt)
    wide = 2 if wide_pair and n_clusters >= 2 else 0
    if wide:
        centers[1] = centers[0]
    per = m // n_clusters
    sizes = [per + 1 if i < m - per * n_clusters else per
             for i in range(n_clusters)]
    x = np.concatenate([
        centers[i] + rng.normal(scale=1.0 if i < wide else 0.1,
                                size=(sizes[i], n_features)).astype(dt)
        for i in range(n_clusters)])
    y0 = centers + rng.normal(scale=0.02, size=centers.shape).astype(dt)
    if wide:
        y0[0] += dt.type(0.2)
        y0[1] -= dt.type(0.1)
    return np.ascontiguousarray(x), np.ascontiguousarray(y0)


def _prune_lockstep(dev, dt, tile, tf32, chunk_bytes, x, y0, n_clusters,
                    iters: int, twin_x=None) -> dict:
    """Pruned vs unpruned assignment of ``x`` in lockstep on one
    trajectory (the unpruned labels drive the update), comparing the
    two bit for bit on every pass.  ``twin_x`` adds a third, pruned
    engine on another row order of ``x`` that sees the same centroids
    each pass; only its active fraction is recorded."""
    kw = dict(tile=tile, tf32=tf32, chunk_bytes=chunk_bytes)
    pruned = FastPathEngine(dev, dt, prune="auto", **kw)
    plain = FastPathEngine(dev, dt, prune="off", **kw)
    twin = (FastPathEngine(dev, dt, prune="auto", **kw)
            if twin_x is not None else None)
    u = np.uint32 if dt.itemsize == 4 else np.uint64
    pruned_s, plain_s, frac, twin_frac, same = [], [], [], [], []
    try:
        pruned.begin_fit(x, n_clusters)
        plain.begin_fit(x, n_clusters)
        if twin is not None:
            twin.begin_fit(twin_x, n_clusters)
        y = y0.copy()
        for _ in range(iters):
            t0 = time.perf_counter()
            lp, bp = pruned.assign(x, y, PerfCounters())
            pruned_s.append(time.perf_counter() - t0)
            frac.append(float(pruned.stats.last_active_frac))
            t0 = time.perf_counter()
            lu, bu = plain.assign(x, y, PerfCounters())
            plain_s.append(time.perf_counter() - t0)
            # the whole point: pruning must never move a bit
            same.append(bool(np.array_equal(lp, lu)
                             and np.array_equal(bp.view(u), bu.view(u))))
            if twin is not None:
                twin.assign(twin_x, y, PerfCounters())
                twin_frac.append(float(twin.stats.last_active_frac))
            y = _divide(accumulate_streamed(x, lu, n_clusters), dt)
        rows_pruned = pruned.stats.rows_pruned
        rebuilds = pruned.stats.bounds_rebuilds
    finally:
        for eng in (pruned, plain, twin):
            if eng is not None:
                eng.end_fit()
    return {
        "mode": "auto",
        "pruned_s": pruned_s,
        "plain_s": plain_s,
        "frac": frac,
        "twin_frac": twin_frac,
        "same": same,
        "rows_pruned": int(rows_pruned),
        "bounds_rebuilds": int(rebuilds),
    }


def _pruning_bench(dev, dt, tile, tf32, *, m, n_features, n_clusters,
                   chunk_bytes, seed,
                   iters: int = PRUNE_ITERS) -> dict:
    """Pruned vs unpruned assignment in lockstep on one trajectory.

    Both engines see the same centroids every iteration; labels and
    min-distances are asserted bit-equal per pass (the pruning
    exactness contract, re-proved on every bench run), so the timing
    difference is pure skipped work.
    """
    x, y0 = _pruning_workload(m, n_features, n_clusters, dt, seed)
    run = _prune_lockstep(dev, dt, tile, tf32, chunk_bytes, x, y0,
                          n_clusters, iters)
    assert all(run["same"])
    pruned_s, plain_s, frac = run["pruned_s"], run["plain_s"], run["frac"]
    return {
        "mode": run["mode"],
        "iters": iters,
        "pruned_assign_per_iter_s": pruned_s,
        "unpruned_assign_per_iter_s": plain_s,
        "pruned_assign_wall_s": sum(pruned_s),
        "unpruned_assign_wall_s": sum(plain_s),
        "active_frac_per_iter": frac,
        "final_active_frac": frac[-1],
        "rows_pruned": run["rows_pruned"],
        "bounds_rebuilds": run["bounds_rebuilds"],
        "assign_speedup": sum(plain_s) / max(1e-12, sum(pruned_s)),
        "bit_identical": True,
    }


def _row_pruning_twin(dev, dt, tile, tf32, *, m, n_features, n_clusters,
                      chunk_bytes, seed, iters: int = PRUNE_ITERS) -> dict:
    """The ``wide_pair`` pruning workload in shuffled and in contiguous
    row order, pruned, on one centroid trajectory.

    Every blob but the wide pair freezes by the third pass; the pair's
    two centroids keep moving through all ``iters``, so a fraction of
    the rows stays active to the end.  Both layouts see the same
    centroids each pass and a row's bounds depend on that row alone,
    so a pruned lane that skips certified rows wherever they sit
    computes as many rows in either layout (up to the partial tail
    unit, which runs whole when any of its rows is active) — while one
    that could only skip emptied GEMM units would compute nearly every
    unit of the shuffled layout, each of which holds rows of the wide
    pair.  The shuffled pass is compared bit for bit against an
    unpruned engine on every pass.
    """
    x, y0 = _pruning_workload(m, n_features, n_clusters, dt, seed,
                              wide_pair=True)
    xs = np.ascontiguousarray(
        x[np.random.default_rng(seed + 2).permutation(len(x))])
    run = _prune_lockstep(dev, dt, tile, tf32, chunk_bytes, xs, y0,
                          n_clusters, iters, twin_x=x)
    frac_s, frac_c = run["frac"], run["twin_frac"]
    return {
        "mode": run["mode"],
        "iters": iters,
        "active_frac_per_iter": frac_s,
        "final_active_frac": frac_s[-1],
        "contiguous_active_frac_per_iter": frac_c,
        "contiguous_final_active_frac": frac_c[-1],
        "rows_pruned": run["rows_pruned"],
        "bit_identical_per_iter": run["same"],
        "bit_identical": all(run["same"]),
    }


def run_hoist_twin(m: int = HOIST_TWIN_SHAPE["m"],
                   n_features: int = HOIST_TWIN_SHAPE["n_features"],
                   n_clusters: int = HOIST_TWIN_SHAPE["n_clusters"],
                   iters: int = HOIST_TWIN_SHAPE["iters"], *,
                   dtype="float32", device="a100", seed: int = 0) -> dict:
    """The fused fit at default knobs but a chunk budget below
    ``x.nbytes``, twice: as built, and with the engine's memory budget
    closed (the per-feed staging reference).  The first must hoist one
    x-sized transposed operand; both must produce the same bits."""
    dev = get_device(device)
    dt = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    x = rng.random((m, n_features), dtype=np.float64).astype(dt)
    y0 = x[rng.choice(m, size=n_clusters, replace=False)].copy()
    chunk_bytes = x.nbytes // 4
    u = np.uint32 if dt.itemsize == 4 else np.uint64

    def fit(operand_budget=None):
        charged = []
        engine = FastPathEngine(dev, dt, tile=default_tensorop_tile(dt),
                                tf32=dt == np.dtype(np.float32),
                                chunk_bytes=chunk_bytes,
                                alloc_hook=lambda n, b: charged.append((n, b)))
        if operand_budget is not None:
            engine.operand_budget = operand_budget
        try:
            engine.begin_fit(x, n_clusters)
            out = _lloyd_fused(x, y0, n_clusters, iters, engine)
            hoisted = engine._cache.x_t is not None
        finally:
            engine.end_fit()
        operand = sum(b for n, b in charged if n.startswith("operand_cache"))
        return out, hoisted, operand

    hoist, hoisted, operand_bytes = fit()
    staged, staged_hoisted, _ = fit(operand_budget=0)
    return {
        "config": {"m": m, "n_features": n_features,
                   "n_clusters": n_clusters, "iters": iters,
                   "dtype": str(dt), "chunk_bytes": chunk_bytes},
        "x_nbytes": int(x.nbytes),
        "hoisted_transposed_operand": hoisted,
        "operand_bytes": int(operand_bytes),
        "reference_hoisted": staged_hoisted,
        "bit_identical": bool(
            np.array_equal(hoist["labels"], staged["labels"])
            and np.array_equal(hoist["first_best"].view(u),
                               staged["first_best"].view(u))
            and np.array_equal(hoist["centroids"].view(u),
                               staged["centroids"].view(u))),
    }


def run_fastpath_bench(m: int = FULL_SHAPE["m"],
                       n_features: int = FULL_SHAPE["n_features"],
                       n_clusters: int = FULL_SHAPE["n_clusters"],
                       iters: int = FULL_SHAPE["iters"], *,
                       dtype="float32", device="a100",
                       chunk_bytes: int | None = None,
                       seed: int = 0, include_unchunked: bool = True) -> dict:
    """One wall-clock comparison run; returns the JSON-ready record."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    dev = get_device(device)
    dt = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    x = rng.random((m, n_features), dtype=np.float64).astype(dt)
    y0 = x[rng.choice(m, size=n_clusters, replace=False)].copy()
    tile = default_tensorop_tile(dt)
    tf32 = dt == np.dtype(np.float32)

    engine = FastPathEngine(dev, dt, tile=tile, tf32=tf32,
                            chunk_bytes=chunk_bytes)

    def engine_assign(xa, ya):
        return engine.assign(xa, ya, PerfCounters())

    try:
        engine.begin_fit(x, n_clusters)
        fused = _lloyd_fused(x, y0, n_clusters, iters, engine)
        # snapshot before the diagnostic split run doubles the counters:
        # the recorded stats must describe ONE fit, comparably across PRs
        fit_stats = (engine.stats.chunks_run, engine.stats.gemm_calls,
                     engine.stats.update_chunks_fed,
                     engine.stats.batched_chunks)
        hoisted_t = engine._cache.x_t is not None
        split = _lloyd_split(x, y0, n_clusters, iters, engine_assign)
    finally:
        engine.end_fit()

    # fast lane vs per-unit fault lane: one reference pass through an
    # engine forced onto the explicit unit walk must agree bit-for-bit
    # on first-iteration centroids
    ref_engine = FastPathEngine(dev, dt, tile=tile, tf32=tf32,
                                chunk_bytes=chunk_bytes, batch_chunks=False)
    try:
        ref_engine.begin_fit(x, n_clusters)
        ref_labels, ref_best = ref_engine.assign(x, y0, PerfCounters())
        unit_mismatch = float(np.mean(fused["first_labels"] != ref_labels))
        unit_bit_identical = bool(
            np.array_equal(fused["first_best"].view(np.uint32 if dt.itemsize == 4
                                                    else np.uint64),
                           ref_best.view(np.uint32 if dt.itemsize == 4
                                         else np.uint64)))
    finally:
        ref_engine.end_fit()

    prune_kw = dict(m=m, n_features=n_features, n_clusters=n_clusters,
                    chunk_bytes=chunk_bytes, seed=seed)
    pruning = _pruning_bench(dev, dt, tile, tf32, **prune_kw)
    pruning["shuffled"] = _row_pruning_twin(dev, dt, tile, tf32, **prune_kw)

    # -- traced pass: the same fused fit once more under the span
    # recorder, run *separately* so the headline engine wall above
    # stays comparable across PRs.  The per-stage breakdown lands in
    # the record (docs/perf.md is regenerated from it) and the
    # trajectory is asserted bit-identical — tracing must never move
    # a bit, re-proved on every bench run.
    recorder = TraceRecorder()
    traced_engine = FastPathEngine(dev, dt, tile=tile, tf32=tf32,
                                   chunk_bytes=chunk_bytes, tracer=recorder)
    try:
        traced_engine.begin_fit(x, n_clusters)
        traced = _lloyd_fused(x, y0, n_clusters, iters, traced_engine,
                              tracer=recorder)
    finally:
        traced_engine.end_fit()
    assert np.array_equal(traced["labels"], fused["labels"])
    trace_summary = {
        "wall_s": traced["wall_s"],
        "spans": len(recorder),
        "dropped": recorder.dropped,
        "bit_identical_vs_untraced": True,  # asserted above
        "stage_totals": recorder.stage_totals(),
    }

    record = {
        "bench": "fastpath_walltime",
        "schema": SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": platform.node(),
        "numpy": np.__version__,
        "config": {
            "m": m, "n_features": n_features, "n_clusters": n_clusters,
            "iters": iters, "dtype": str(dt), "device": dev.name,
            "chunk_bytes": engine.chunk_bytes, "seed": seed,
        },
        "engine": {
            "wall_s": fused["wall_s"],
            "per_iter_s": fused["per_iter_s"],
            "update_tail_per_iter_s": fused["update_tail_per_iter_s"],
            "chunks_run": fit_stats[0],
            "gemm_calls": fit_stats[1],
            "update_chunks_fed": fit_stats[2],
            "batched_chunks": fit_stats[3],
            "hoisted_transposed_operand": hoisted_t,
            "peak_scratch_bytes": engine.stats.peak_scratch_bytes,
        },
        # the fast lane's bit-identity contract, re-asserted per run
        "unit_path_label_mismatch_frac": unit_mismatch,
        "unit_path_bit_identical": unit_bit_identical,
        # bound-pruned vs unpruned assignment on the converging blob
        # workload (bit-equality asserted inside the loop), with the
        # shuffled-row twin under ``shuffled`` (runner's
        # check_row_pruning gates it)
        "pruning": pruning,
        # per-stage wall breakdown of the traced re-run (span recorder)
        "trace": trace_summary,
        "stages": {
            "assign_per_iter_s": split["assign_per_iter_s"],
            "update_streamed_per_iter_s": split["update_streamed_per_iter_s"],
            "update_oneshot_per_iter_s": split["update_oneshot_per_iter_s"],
            "update_speedup_streamed_vs_oneshot":
                sum(split["update_oneshot_per_iter_s"])
                / max(1e-12, sum(split["update_streamed_per_iter_s"])),
            # fusing the accumulation into the assignment loop vs running
            # the two stages back-to-back unfused
            "fused_saving_s":
                sum(split["assign_per_iter_s"])
                + sum(split["update_streamed_per_iter_s"])
                - sum(fused["per_iter_s"]),
        },
    }
    # bit-identical updates => every run walks the same trajectory
    assert np.array_equal(fused["labels"], split["labels"])
    if include_unchunked:
        base = _lloyd_unchunked(x, y0, n_clusters, iters, dt, tf32)
        record["unchunked"] = {
            "wall_s": base["wall_s"],
            "per_iter_s": base["per_iter_s"],
            "update_per_iter_s": base["update_per_iter_s"],
        }
        # full-fit wall-clock ratio: chunked+fused engine vs the seed
        # one-shot assignment + np.add.at update
        record["speedup_vs_unchunked"] = base["wall_s"] / fused["wall_s"]
        record["assign_speedup_vs_unchunked"] = (
            sum(base["per_iter_s"]) / sum(split["assign_per_iter_s"]))
        # marginal cost of the update when fused: fused-loop time minus
        # the pure-assignment time, plus the divide tail
        fused_update_cost = max(
            1e-12,
            sum(fused["per_iter_s"]) + sum(fused["update_tail_per_iter_s"])
            - sum(split["assign_per_iter_s"]))
        record["update_speedup_vs_unchunked"] = (
            sum(base["update_per_iter_s"]) / fused_update_cost)
        # cascade-free agreement (identical centroids on iteration 1);
        # the end-state number only diagnoses trajectory divergence
        record["label_mismatch_frac"] = float(
            np.mean(fused["first_labels"] != base["first_labels"]))
        record["label_mismatch_frac_final"] = float(
            np.mean(fused["labels"] != base["labels"]))
    return record


def run_smoke(**overrides) -> dict:
    """The < 60 s gating configuration (tier-1 friendly), plus the
    operand-hoist twin that ``runner --smoke`` gates."""
    kwargs = dict(SMOKE_SHAPE)
    kwargs.update(overrides)
    record = run_fastpath_bench(**kwargs)
    record["hoist_twin"] = run_hoist_twin(
        dtype=kwargs.get("dtype", "float32"),
        device=kwargs.get("device", "a100"), seed=kwargs.get("seed", 0))
    return record


def write_record(record: dict, path: Path | str = DEFAULT_RESULT_PATH, *,
                 schema: str = SCHEMA) -> Path:
    """Append one record to a perf-trajectory file.

    Shared by every wall-clock bench.  The top-level ``schema`` key
    always names the **newest** entry version present (per-entry
    ``schema`` keys preserve each record's own version) — appends used
    to keep the creation-time key forever, which is the drift
    :mod:`repro.bench.analysis` migrates away on load.
    """
    path = Path(path)
    doc = {"schema": schema, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if (not isinstance(loaded, dict)
                    or not isinstance(loaded.get("entries", []), list)):
                raise ValueError("trajectory shape is not {entries: [...]}")
            doc = loaded
        except (json.JSONDecodeError, OSError, ValueError):
            # never silently drop the cross-PR perf history: set the
            # unreadable file aside and start a fresh trajectory
            backup = path.with_name(path.name + ".corrupt")
            path.replace(backup)
            print(f"warning: {path.name} was unreadable; moved to "
                  f"{backup.name}")
    doc.setdefault("entries", []).append(record)
    # bump the top-level key to the newest version ever appended (never
    # downgrade it when an older-schema record is replayed in)
    from repro.bench.analysis import schema_version
    if schema_version(schema) >= schema_version(doc.get("schema")):
        doc["schema"] = schema
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _summarise(record: dict) -> str:
    cfg = record["config"]
    st = record["stages"]
    lines = [
        f"fastpath walltime  M={cfg['m']} N(features)={cfg['n_features']} "
        f"K={cfg['n_clusters']} iters={cfg['iters']} dtype={cfg['dtype']}",
        f"  chunk_bytes={cfg['chunk_bytes']} "
        f"chunks/pass={record['engine']['chunks_run'] // max(1, cfg['iters'])} "
        f"peak_scratch={record['engine']['peak_scratch_bytes']} B",
        f"  fast lane      : batched_chunks="
        f"{record['engine']['batched_chunks']}"
        f"/{record['engine']['chunks_run']} hoisted transpose "
        f"{record['engine']['hoisted_transposed_operand']} "
        f"unit-path bit-identical {record['unit_path_bit_identical']} "
        f"(mismatch {record['unit_path_label_mismatch_frac']:.2e})",
        f"  engine (fused) : {record['engine']['wall_s']:.3f} s",
        f"  stages/iter    : assign {np.mean(st['assign_per_iter_s']):.4f} s"
        f" | update streamed {np.mean(st['update_streamed_per_iter_s']):.4f} s"
        f" vs oneshot {np.mean(st['update_oneshot_per_iter_s']):.4f} s"
        f" ({st['update_speedup_streamed_vs_oneshot']:.2f}x)",
    ]
    pr = record["pruning"]
    lines.append(
        f"  pruning ({pr['mode']}): assign "
        f"{pr['pruned_assign_wall_s']:.3f} s vs unpruned "
        f"{pr['unpruned_assign_wall_s']:.3f} s "
        f"({pr['assign_speedup']:.2f}x) over {pr['iters']} iters, "
        f"active_frac {pr['active_frac_per_iter'][0]:.2f} -> "
        f"{pr['final_active_frac']:.2f}, "
        f"{pr['rows_pruned']} rows pruned")
    sh = pr["shuffled"]
    lines.append(
        f"  shuffled twin  : final active_frac "
        f"{sh['final_active_frac']:.3f} vs contiguous "
        f"{sh['contiguous_final_active_frac']:.3f}, "
        f"{sh['rows_pruned']} rows pruned, bit-identical "
        f"{sh['bit_identical']}")
    tw = record.get("hoist_twin")
    if tw:
        lines.append(
            f"  hoist twin     : x {tw['x_nbytes']} B > chunk_bytes "
            f"{tw['config']['chunk_bytes']} B, hoisted "
            f"{tw['hoisted_transposed_operand']} ({tw['operand_bytes']} B), "
            f"bit-identical to staging {tw['bit_identical']}")
    trc = record.get("trace")
    if trc:
        top = sorted(trc["stage_totals"].items(),
                     key=lambda kv: kv[1]["wall_s"], reverse=True)[:4]
        lines.append(
            f"  traced re-run  : {trc['wall_s']:.3f} s, {trc['spans']} spans"
            f" (bit-identical {trc['bit_identical_vs_untraced']}): "
            + ", ".join(f"{name} {tot['wall_s']:.3f} s"
                        for name, tot in top))
    if "unchunked" in record:
        lines.append(f"  unchunked      : {record['unchunked']['wall_s']:.3f} s")
        lines.append(
            f"  speedup        : {record['speedup_vs_unchunked']:.2f}x fit, "
            f"{record['assign_speedup_vs_unchunked']:.2f}x assignment, "
            f"{record['update_speedup_vs_unchunked']:.2f}x update "
            f"(label mismatch {record['label_mismatch_frac']:.2e})")
    return "\n".join(lines)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the streaming fast-path engine")
    parser.add_argument("--smoke", action="store_true",
                        help="small < 60 s configuration for CI gating")
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--features", type=int, default=None)
    parser.add_argument("--clusters", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--chunk-bytes", type=int, default=None)
    parser.add_argument("--dtype", default="float32")
    parser.add_argument("--out", default=str(DEFAULT_RESULT_PATH),
                        help="trajectory JSON to append to ('-' to skip)")
    args = parser.parse_args(argv)

    kwargs = dict(SMOKE_SHAPE if args.smoke else FULL_SHAPE)
    for key, val in (("m", args.m), ("n_features", args.features),
                     ("n_clusters", args.clusters), ("iters", args.iters)):
        if val is not None:
            kwargs[key] = val
    run = run_smoke if args.smoke else run_fastpath_bench
    record = run(chunk_bytes=args.chunk_bytes, dtype=args.dtype, **kwargs)
    print(_summarise(record))
    if args.out != "-":
        path = write_record(record, args.out)
        print(f"  recorded -> {path}")
    return record


if __name__ == "__main__":
    main()
