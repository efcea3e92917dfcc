"""Wall-clock scaling benchmark of the sharded multi-worker layer.

Drives full :class:`FTKMeans` fits through ``repro.dist`` over a
workers × M grid and records, per cell:

* real host wall time and per-iteration time;
* the *simulated* parallel makespan (the coordinator charges the
  slowest shard per round, so ``sim_time_s_`` models multi-device
  scaling even when the host serialises the workers);
* a bit-identity flag against the single-worker fast path (the
  determinism contract is re-asserted on every bench run);
* the widest BLAS thread count any worker ran at (``blas_threads``)
  and the parallel efficiency ``wall_speedup_vs_single / min(W,
  cores)``; ``runner --smoke`` gates W x ``blas_threads`` <= cores on
  every multi-worker cell.

A **recovery run** measures the fault-tolerance overhead: the same fit
with an injected worker crash mid-way (checkpoint/restart enabled)
against the clean sharded fit — the ``recovery`` record carries the
extra seconds, the relative overhead and the recovered-bit-identical
flag.

An **elastic run** measures the shrink-recovery path: a worker stalls
past the round deadline mid-fit (process executor, so the detector
really terminates the child) and the coordinator re-shards onto the
survivors instead of respawning — the ``elastic`` record carries the
detection + shrink overhead, the post-shrink worker count and the
bit-identity flag against the uninterrupted fit.

A **selfheal run** measures the full membership-recovery loop: a
worker is killed mid-fit with ``target_workers`` set and no spare
ready, so the fleet shrinks onto the survivors, cold-spawns a
replacement and re-expands back to the target before converging — the
``selfheal`` record carries the wall overhead, the per-recovered-round
overhead (gated by ``runner --smoke`` against the best prior same-shape
entry), the final fleet size and the bit-identity flag against the
single-worker fit.

A **reduce run** (schema v6) measures the coordinator-occupancy
scaling of the stream merge over a widening fleet: for each worker
count, one fit on the serial executor — arrivals are deterministic
there, so the curve measures reduce *work*, not host thread
scheduling — recording the coordinator's reduce-busy seconds
(``dist_reduce_busy_s_``) and the bit-identity flag.  ``runner
--smoke`` gates every cell's bit-identity and the widest fleet's
occupancy against the best prior entry.

A **checkpoint run** measures the per-round cost of durable on-disk
checkpoints: two otherwise identical fits — no ``checkpoint_every``
against ``checkpoint_every=1`` into a directory — with the
coordinator's own save cost (``dist_checkpoint_save_s_``) recorded
alongside the wall-clock delta and a bit-identity flag.

Each run appends one record to ``BENCH_dist.json``::

    python -m repro.bench.dist                # full grid
    python -m repro.bench.dist --smoke        # tiny < 30 s gating run
    python -m repro.bench.runner --smoke      # fastpath + dist smoke
"""

from __future__ import annotations

import argparse
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.fastpath import write_record
from repro.core.api import FTKMeans
from repro.core.blas import get_threads, host_cores
from repro.dist.faults import WorkerFaultInjector
from repro.obs.trace import TraceRecorder

__all__ = ["run_dist_bench", "run_smoke", "DEFAULT_RESULT_PATH", "main"]

#: perf-trajectory file of the distribution layer (sibling of
#: BENCH_fastpath.json, resolved against the working directory)
DEFAULT_RESULT_PATH = Path("BENCH_dist.json")

#: v10 added ``cores`` and, on every grid row and the ``selfheal``
#: record, ``blas_threads`` (plus ``efficiency`` on grid rows) — the
#: BLAS thread budget ``runner --smoke`` gates.
#: v9 made the ``checkpoint`` record two fits (no checkpoints vs
#: on-disk ``checkpoint_every=1``; every save is synchronous) and
#: dropped the per-cell ``metrics`` dumps from the grid and ``reduce``
#: rows and from the ``recovery`` record.
#: v8 dropped the ``transport`` record: the process executor has one
#: round path (pipes), so there is no second data plane to compare.
#: v7 added the ``transport`` record (shared-memory vs pipe data plane
#: on the process executor: walls, per-fit broadcast/gather pipe bytes,
#: bytes-reduction ratios and boot/attach walls) plus ``boot_stats`` on
#: the selfheal record — both gated by ``runner --smoke``.
#: v6 added the ``reduce`` scaling record (coordinator occupancy of
#: the merge over a widening fleet, with per-fit metrics deltas; early
#: entries carry star and tree cells too) — gated by ``runner --smoke``.
#: v5 added the traced crash-recovery pass (``trace`` key): the
#: recovery fit re-run under a :class:`~repro.obs.trace.TraceRecorder`
#: so the coordinator-side stage breakdown (compute / merge / update /
#: checkpoint / recovery; records before the worker partials were
#: dropped also carry ``abft_check``) lands in the record and
#: ``docs/perf.md`` regenerates from the trajectory file alone.
#: v2 added the ``elastic`` stall-then-shrink record; v3 the
#: ``checkpoint`` sync-vs-async overhead record; v4 the ``selfheal``
#: kill → spawn → re-expand record
SCHEMA = "dist_scaling/v10"

#: full grid (CI-feasible, a few minutes)
FULL_SHAPE = dict(m_grid=(60_000, 120_000), n_features=64, n_clusters=64,
                  iters=5, workers_grid=(1, 2, 4),
                  reduce_workers_grid=(1, 2, 4, 8, 16, 32))

#: smoke/gating configuration (< 30 s wall clock)
SMOKE_SHAPE = dict(m_grid=(16_384,), n_features=32, n_clusters=16, iters=3,
                   workers_grid=(1, 2), reduce_workers_grid=(1, 2, 8))


def _fit_once(x, y0, *, n_clusters, iters, workers, executor, seed,
              checkpoint_every=0, worker_faults=None, elastic=False,
              round_timeout=None, checkpoint_dir=None,
              target_workers=None, hot_spares=0, heartbeat_interval=None,
              tracer=None):
    """One timed sharded (or single-worker) fit; returns (model, wall)."""
    km = FTKMeans(n_clusters=n_clusters, variant="tensorop", mode="fast",
                  n_workers=workers, tracer=tracer,
                  executor=executor if workers > 1 else "serial",
                  checkpoint_every=checkpoint_every if workers > 1 else 0,
                  max_iter=iters, tol=0.0, seed=seed, init_centroids=y0,
                  worker_faults=worker_faults, elastic=elastic,
                  round_timeout=round_timeout,
                  checkpoint_dir=checkpoint_dir,
                  target_workers=target_workers if workers > 1 else None,
                  hot_spares=hot_spares if workers > 1 else 0,
                  heartbeat_interval=(heartbeat_interval
                                      if workers > 1 else None))
    t0 = time.perf_counter()
    km.fit(x)
    return km, time.perf_counter() - t0


def run_dist_bench(m_grid=FULL_SHAPE["m_grid"],
                   n_features: int = FULL_SHAPE["n_features"],
                   n_clusters: int = FULL_SHAPE["n_clusters"],
                   iters: int = FULL_SHAPE["iters"], *,
                   workers_grid=FULL_SHAPE["workers_grid"],
                   reduce_workers_grid=FULL_SHAPE["reduce_workers_grid"],
                   executor: str = "thread", dtype: str = "float32",
                   seed: int = 0, checkpoint_every: int = 2,
                   round_timeout: float = 1.5,
                   trace_out: str | None = None) -> dict:
    """One workers × M scaling run + recovery + elastic overhead; JSON
    record.  ``round_timeout`` bounds the elastic run's stall detection
    (the stalled child sleeps far past it and is terminated)."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    m_grid = tuple(int(v) for v in m_grid)
    workers_grid = tuple(int(v) for v in workers_grid)
    if not m_grid or min(m_grid) < 1:
        raise ValueError(f"bad m_grid {m_grid!r}")
    if not workers_grid or min(workers_grid) < 1:
        raise ValueError(f"bad workers_grid {workers_grid!r}")
    reduce_workers_grid = tuple(int(v) for v in reduce_workers_grid)
    if not reduce_workers_grid or min(reduce_workers_grid) < 1:
        raise ValueError(f"bad reduce_workers_grid {reduce_workers_grid!r}")
    rng = np.random.default_rng(seed)
    cores = host_cores()

    grid = []
    rec_data = None
    for m in m_grid:
        x = rng.random((m, n_features), dtype=np.float64).astype(dtype)
        y0 = x[rng.choice(m, size=n_clusters, replace=False)].copy()
        # the baseline is always a true single-worker run — even when
        # the grid omits workers=1 — so bit_identical_vs_single really
        # re-asserts the determinism contract on every bench run
        base = _fit_once(x, y0, n_clusters=n_clusters, iters=iters,
                         workers=1, executor=executor, seed=seed)
        for workers in workers_grid:
            if workers == 1:
                km, wall = base
            else:
                km, wall = _fit_once(x, y0, n_clusters=n_clusters,
                                     iters=iters, workers=workers,
                                     executor=executor, seed=seed)
            speedup = base[1] / max(1e-12, wall)
            row = {
                "workers": workers,
                "m": m,
                "executor": executor if workers > 1 else "serial",
                "wall_s": wall,
                "per_iter_s": wall / km.n_iter_,
                "sim_time_s": km.sim_time_s_,
                "assign_sim_time_s": km.assignment_time_s_,
                "n_iter": km.n_iter_,
                "inertia": km.inertia_,
                "bit_identical_vs_single": bool(
                    np.array_equal(km.labels_, base[0].labels_)
                    and np.array_equal(km.cluster_centers_,
                                       base[0].cluster_centers_)),
                "wall_speedup_vs_single": speedup,
                "efficiency": speedup / min(workers, cores),
                "blas_threads": (km.dist_blas_threads_ if workers > 1
                                 else get_threads() or 0),
                "sim_speedup_vs_single": (
                    base[0].sim_time_s_ / max(1e-12, km.sim_time_s_)),
            }
            grid.append(row)
        rec_data = (x, y0)  # recovery runs at the largest M

    # -- recovery overhead: crash one worker mid-fit ------------------
    x, y0 = rec_data
    rec_workers = (max(w for w in workers_grid if w > 1)
                   if any(w > 1 for w in workers_grid) else 2)
    crash_it = max(1, iters // 2 + 1)
    clean, clean_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor=executor, seed=seed, checkpoint_every=checkpoint_every)
    crashed, crash_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor=executor, seed=seed, checkpoint_every=checkpoint_every,
        worker_faults=WorkerFaultInjector.crash_at(0, crash_it))
    recovery = {
        "workers": rec_workers,
        "m": x.shape[0],
        "executor": executor,
        "checkpoint_every": checkpoint_every,
        "crash_iteration": crash_it,
        "clean_wall_s": clean_wall,
        "crash_wall_s": crash_wall,
        "recovery_overhead_s": crash_wall - clean_wall,
        "recovery_overhead_frac": (crash_wall - clean_wall)
        / max(1e-12, clean_wall),
        "recoveries": crashed.dist_recoveries_,
        "recovered_bit_identical": bool(
            np.array_equal(crashed.cluster_centers_,
                           clean.cluster_centers_)),
    }

    # -- traced pass: the crash-recovery fit once more under the span
    # recorder, run *separately* so the walls above stay comparable
    # across PRs.  The coordinator-side stage breakdown (compute /
    # merge / update / checkpoint / recovery) lands in
    # the record — docs/perf.md regenerates from it — and the result
    # is asserted bit-identical against the untraced crash run:
    # tracing must never move a bit, re-proved on every bench run.
    stream_sink = bool(trace_out) and str(trace_out).endswith(".jsonl")
    recorder = TraceRecorder(sink=trace_out if stream_sink else None)
    traced_fit, traced_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor=executor, seed=seed, checkpoint_every=checkpoint_every,
        worker_faults=WorkerFaultInjector.crash_at(0, crash_it),
        tracer=recorder)
    assert np.array_equal(traced_fit.cluster_centers_,
                          crashed.cluster_centers_)
    trace_summary = {
        "workers": rec_workers,
        "m": x.shape[0],
        "wall_s": traced_wall,
        "spans": len(recorder),
        "dropped": recorder.dropped,
        "bit_identical_vs_untraced": True,  # asserted above
        "stage_totals": recorder.stage_totals(),
    }
    if trace_out:
        if stream_sink:
            # spans were appended live as they closed; just seal the file
            recorder.close_sink()
            trace_summary["jsonl_trace_path"] = str(trace_out)
            trace_summary["sink_spans"] = recorder.sink_spans
        else:
            with open(trace_out, "w") as fh:
                recorder.to_chrome_trace(fh)
            trace_summary["chrome_trace_path"] = str(trace_out)

    # -- elastic shrink: stall one worker past the round deadline -----
    # process executor so the detector really terminates the child; the
    # stall sleeps far past the deadline, i.e. it would hang forever
    # without detection
    stall_it = crash_it
    el_clean, el_clean_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor="process", seed=seed, checkpoint_every=checkpoint_every,
        elastic=True, round_timeout=round_timeout)
    stalled, stall_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor="process", seed=seed, checkpoint_every=checkpoint_every,
        elastic=True, round_timeout=round_timeout,
        worker_faults=WorkerFaultInjector.stall_at(0, stall_it,
                                                   stall_s=600.0))
    elastic = {
        "workers": rec_workers,
        "m": x.shape[0],
        "executor": "process",
        "round_timeout": round_timeout,
        "checkpoint_every": checkpoint_every,
        "stall_iteration": stall_it,
        "clean_wall_s": el_clean_wall,
        "stall_wall_s": stall_wall,
        "shrink_overhead_s": stall_wall - el_clean_wall,
        "shrink_overhead_frac": (stall_wall - el_clean_wall)
        / max(1e-12, el_clean_wall),
        "recoveries": stalled.dist_recoveries_,
        "stall_recoveries": stalled.dist_stall_recoveries_,
        "shrinks": stalled.dist_shrinks_,
        "workers_after_shrink": stalled.n_workers_,
        "recovered_bit_identical": bool(
            np.array_equal(stalled.cluster_centers_,
                           el_clean.cluster_centers_)),
    }

    # -- checkpoint overhead: on-disk snapshots every round -----------
    # two otherwise identical fits at the recovery shape: the per-round
    # cost of durable checkpoint_every=1 writes against a no-checkpoint
    # baseline.  The coordinator's own save cost is the robust signal;
    # the wall-clock delta rides along.
    none_fit, none_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor=executor, seed=seed, checkpoint_every=0)
    with tempfile.TemporaryDirectory(prefix="bench_ckpt_") as d:
        ckpt_fit, ckpt_wall = _fit_once(
            x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
            executor=executor, seed=seed, checkpoint_every=1,
            checkpoint_dir=d)
    rounds = max(1, none_fit.n_iter_)
    # checkpoint_every=1 saves once per round PLUS the iteration-0
    # snapshot before the loop: normalise the save cost by the actual
    # save count, not the round count
    saves = rounds + 1
    checkpoint = {
        "workers": rec_workers,
        "m": x.shape[0],
        "executor": executor,
        "checkpoint_every": 1,
        "rounds": rounds,
        "saves": saves,
        "clean_wall_s": none_wall,
        "wall_s": ckpt_wall,
        "save_s": ckpt_fit.dist_checkpoint_save_s_,
        "save_per_checkpoint_s": ckpt_fit.dist_checkpoint_save_s_ / saves,
        "overhead_per_round_s": (ckpt_wall - none_wall) / rounds,
        "bit_identical_vs_clean": bool(
            np.array_equal(ckpt_fit.cluster_centers_,
                           none_fit.cluster_centers_)),
    }

    # -- self-healing: kill -> spawn -> re-expand -> converge ---------
    # process executor with membership management on but no spare
    # ready (hot_spares=0, target_workers set): the kill shrinks the
    # fleet onto the survivors to keep making progress, then a cold
    # spawn re-expands back to the target at the next round boundary —
    # the most expensive self-healing path (the promote-from-spare
    # path skips both the replan and the spawn).
    kill_it = crash_it
    heal_clean, heal_clean_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor="process", seed=seed, checkpoint_every=checkpoint_every,
        round_timeout=round_timeout, target_workers=rec_workers,
        heartbeat_interval=1.0)
    healed, heal_wall = _fit_once(
        x, y0, n_clusters=n_clusters, iters=iters, workers=rec_workers,
        executor="process", seed=seed, checkpoint_every=checkpoint_every,
        round_timeout=round_timeout, target_workers=rec_workers,
        heartbeat_interval=1.0,
        worker_faults=WorkerFaultInjector.crash_at(0, kill_it))
    # rounds re-run after the checkpoint restore: the kill at round r
    # restores to the last snapshot s and replays s+1..r, so the
    # per-recovered-round overhead normalises the wall delta by that
    # replay depth (plus the round the kill itself wasted)
    restores = [e["iteration"] for e in healed.dist_trace_
                if e["kind"] == "restore"]
    kills = [e["iteration"] for e in healed.dist_trace_
             if e["kind"] in ("crash", "stall_timeout")]
    replayed = sum(max(1, k - r) for k, r in zip(sorted(kills),
                                                 sorted(restores)))
    selfheal = {
        "workers": rec_workers,
        "m": x.shape[0],
        "executor": "process",
        "target_workers": rec_workers,
        "hot_spares": 0,
        "heartbeat_interval": 1.0,
        "checkpoint_every": checkpoint_every,
        "kill_iteration": kill_it,
        "clean_wall_s": heal_clean_wall,
        "kill_wall_s": heal_wall,
        "heal_overhead_s": heal_wall - heal_clean_wall,
        "heal_overhead_frac": (heal_wall - heal_clean_wall)
        / max(1e-12, heal_clean_wall),
        "replayed_rounds": replayed,
        "recovered_round_overhead_s": (heal_wall - heal_clean_wall)
        / max(1, replayed),
        "recoveries": healed.dist_recoveries_,
        "promotions": healed.dist_promotions_,
        "expands": healed.dist_expands_,
        "heartbeat_failures": healed.dist_heartbeat_failures_,
        "workers_after": healed.n_workers_,
        "re_expanded": bool(healed.n_workers_ == rec_workers),
        "recovered_bit_identical": bool(
            np.array_equal(healed.cluster_centers_,
                           base[0].cluster_centers_)),
        # per-kind boot/attach walls (cold_spawn vs spare_promote vs
        # reconfigure) — the re-expand spawn attaches to the dataset
        # segment instead of re-pickling the shard, so this is where
        # the boot-time win shows up
        "boot_stats": healed.dist_boot_stats_,
        "blas_threads": healed.dist_blas_threads_,
    }

    # -- reduce: coordinator occupancy over a widening fleet.  Serial
    # executor on purpose: arrivals are deterministic, so the curve
    # measures reduce work, not host thread scheduling
    reduce_curve = []
    single_wall = None
    for w in reduce_workers_grid:
        if w <= 1:
            _, single_wall = _fit_once(
                x, y0, n_clusters=n_clusters, iters=iters, workers=1,
                executor="serial", seed=seed)
            continue
        km_t, wall_t = _fit_once(
            x, y0, n_clusters=n_clusters, iters=iters, workers=w,
            executor="serial", seed=seed)
        reduce_curve.append({
            "workers": w,
            "workers_effective": km_t.n_workers_,
            "topology": "stream",
            "wall_s": wall_t,
            "reduce_busy_s": km_t.dist_reduce_busy_s_,
            "reduce_busy_per_round_s": (
                km_t.dist_reduce_busy_s_ / max(1, km_t.n_iter_)),
            "bit_identical_vs_single": bool(
                np.array_equal(km_t.labels_, base[0].labels_)
                and np.array_equal(km_t.cluster_centers_,
                                   base[0].cluster_centers_)),
        })
    reduce = {
        "m": x.shape[0],
        "executor": "serial",
        "workers_grid": list(reduce_workers_grid),
        "single_wall_s": single_wall,
        "curve": reduce_curve,
    }

    return {
        "bench": "dist_scaling",
        "schema": SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": platform.node(),
        "numpy": np.__version__,
        "cores": cores,
        "config": {
            "m_grid": list(m_grid), "n_features": n_features,
            "n_clusters": n_clusters, "iters": iters, "dtype": dtype,
            "executor": executor, "workers_grid": list(workers_grid),
            "seed": seed, "checkpoint_every": checkpoint_every,
            "round_timeout": round_timeout,
            "reduce_workers_grid": list(reduce_workers_grid),
        },
        "grid": grid,
        "recovery": recovery,
        "elastic": elastic,
        "checkpoint": checkpoint,
        "selfheal": selfheal,
        "trace": trace_summary,
        "reduce": reduce,
    }


def run_smoke(**overrides) -> dict:
    """The < 30 s gating configuration (tier-1 friendly)."""
    kwargs = dict(SMOKE_SHAPE)
    kwargs.update(overrides)
    return run_dist_bench(**kwargs)


def _summarise(record: dict) -> str:
    cfg = record["config"]
    lines = [
        f"dist scaling  M grid={cfg['m_grid']} "
        f"N(features)={cfg['n_features']} K={cfg['n_clusters']} "
        f"iters={cfg['iters']} executor={cfg['executor']}"]
    for row in record["grid"]:
        lines.append(
            f"  M={row['m']} workers={row['workers']}: "
            f"wall {row['wall_s']:.3f} s "
            f"({row['wall_speedup_vs_single']:.2f}x, efficiency "
            f"{row['efficiency']:.2f}, {row['blas_threads']} BLAS "
            f"threads) | sim "
            f"{row['sim_time_s']:.4f} s "
            f"({row['sim_speedup_vs_single']:.2f}x) | bit-identical "
            f"{row['bit_identical_vs_single']}")
    rec = record["recovery"]
    lines.append(
        f"  recovery (crash@{rec['crash_iteration']}, "
        f"ckpt={rec['checkpoint_every']}): +{rec['recovery_overhead_s']:.3f} s"
        f" ({rec['recovery_overhead_frac']:.1%}) over "
        f"{rec['clean_wall_s']:.3f} s clean, recovered-bit-identical "
        f"{rec['recovered_bit_identical']}")
    el = record["elastic"]
    lines.append(
        f"  elastic (stall@{el['stall_iteration']}, "
        f"deadline={el['round_timeout']} s): "
        f"+{el['shrink_overhead_s']:.3f} s ({el['shrink_overhead_frac']:.1%})"
        f", {el['workers']} -> {el['workers_after_shrink']} workers, "
        f"recovered-bit-identical {el['recovered_bit_identical']}")
    ck = record["checkpoint"]
    lines.append(
        f"  checkpoint (every round, on disk): "
        f"{ck['save_per_checkpoint_s'] * 1e3:.2f} ms/save, "
        f"{ck['overhead_per_round_s'] * 1e3:+.2f} ms/round over "
        f"{ck['clean_wall_s']:.3f} s clean, bit-identical "
        f"{ck['bit_identical_vs_clean']}")
    sh = record["selfheal"]
    lines.append(
        f"  selfheal (kill@{sh['kill_iteration']}, spawn+re-expand): "
        f"+{sh['heal_overhead_s']:.3f} s ({sh['heal_overhead_frac']:.1%}), "
        f"{sh['recovered_round_overhead_s']:.3f} s/recovered round, "
        f"back to {sh['workers_after']}/{sh['target_workers']} workers, "
        f"bit-identical {sh['recovered_bit_identical']}")
    trc = record.get("trace")
    if trc:
        top = sorted(trc["stage_totals"].items(),
                     key=lambda kv: kv[1]["wall_s"], reverse=True)[:4]
        lines.append(
            f"  traced re-run  : {trc['wall_s']:.3f} s, {trc['spans']} spans"
            f" (bit-identical {trc['bit_identical_vs_untraced']}): "
            + ", ".join(f"{name} {tot['wall_s']:.3f} s"
                        for name, tot in top))
        if trc.get("chrome_trace_path"):
            lines.append(f"  chrome trace   -> {trc['chrome_trace_path']}")
        if trc.get("jsonl_trace_path"):
            lines.append(
                f"  span stream    -> {trc['jsonl_trace_path']} "
                f"({trc['sink_spans']} spans streamed)")
    red = record.get("reduce")
    if red:
        for row in red["curve"]:
            lines.append(
                f"  reduce W={row['workers']}: busy "
                f"{row['reduce_busy_s'] * 1e3:.2f} ms (bit-identical "
                f"{row['bit_identical_vs_single']})")
    return "\n".join(lines)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(
        description="Wall-clock scaling benchmark of repro.dist")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny < 30 s configuration for CI gating")
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--features", type=int, default=None)
    parser.add_argument("--clusters", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--workers", default=None,
                        help="comma-separated workers grid, e.g. 1,2,4")
    parser.add_argument("--executor", default="thread",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--round-timeout", type=float, default=1.5,
                        help="stall-detection deadline (s) of the elastic "
                             "shrink-recovery run")
    parser.add_argument("--out", default=str(DEFAULT_RESULT_PATH),
                        help="trajectory JSON to append to ('-' to skip)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the traced run's spans to PATH: a "
                             "'.jsonl' suffix streams one span per line "
                             "as each closes (tailable mid-run), any "
                             "other suffix writes a post-hoc Chrome "
                             "trace JSON (chrome://tracing / Perfetto)")
    args = parser.parse_args(argv)

    kwargs = dict(SMOKE_SHAPE if args.smoke else FULL_SHAPE)
    if args.m is not None:
        kwargs["m_grid"] = (args.m,)
    for key, val in (("n_features", args.features),
                     ("n_clusters", args.clusters), ("iters", args.iters)):
        if val is not None:
            kwargs[key] = val
    if args.workers:
        kwargs["workers_grid"] = tuple(
            int(v) for v in args.workers.split(","))
    record = run_dist_bench(executor=args.executor,
                            round_timeout=args.round_timeout,
                            trace_out=args.trace_out, **kwargs)
    print(_summarise(record))
    if args.out != "-":
        path = write_record(record, args.out, schema=SCHEMA)
        print(f"  recorded -> {path}")
    return record


if __name__ == "__main__":
    main()
