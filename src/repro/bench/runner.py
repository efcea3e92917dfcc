"""Run every figure experiment in one pass (the full harness entry point).

``python -m repro.bench.runner`` regenerates all 15 figure/table
reproductions and prints them in paper order.

``python -m repro.bench.runner --smoke`` instead runs the wall-clock
gating benchmarks — the fast-path run (for ``BENCH_fastpath.json``)
followed by a tiny 2-worker sharded scaling + crash-recovery + elastic
stall-then-shrink + kill-spawn-re-expand self-healing run (for
``BENCH_dist.json``) — suitable as a tier-1 perf canary.  Both records
are appended to their trajectories only after every gate has passed,
so a failed run leaves the files as they were and cannot fail the next
run as a stale report.  The self-healing record's per-recovered-round
overhead and the fast-path record's bound-pruned assignment wall (plus
its final ``active_frac``) are gated against the best prior same-host,
same-shape entry just like the fast-path wall.  The reduce curve
(schema v6) is gated too: every cell must stay bit-identical to the
single-worker fit, and the stream merge's occupancy at the widest
fleet must not regress against the best prior entry.  The fast-path
record's operand-hoist twin — a small fit whose chunk budget is below
``x.nbytes`` — must hoist one x-sized transposed operand with the
staging path's bits (:func:`check_hoist_twin`), and every chunk of its
TF32 fit must take the stacked fast lane with the per-unit walk's bits
(:func:`check_fast_lane`).  The pruning record's shuffled-row twin
must match the unpruned engine bit for bit on every pass and end with
the active fraction of its contiguous layout
(:func:`check_row_pruning`).  Every multi-worker cell of the dist
record must have run W x BLAS threads <= cores and stay bit-identical
(:func:`check_blas_budget`).
``--trace-out``
forwards a trace output path to the dist smoke (a ``.jsonl`` suffix
streams spans live as each closes; any other suffix writes a post-hoc
Chrome trace JSON).
Unrecognised arguments after ``--smoke`` are forwarded to
:mod:`repro.bench.fastpath` (e.g. ``--m 2000 --iters 1`` for an even
quicker shape); the sharded smoke keeps its fixed tiny shape and is
skipped entirely with ``--dist-out -``.

The smoke run doubles as a **perf regression gate**: the fresh
fast-path record is compared against the best prior entry of the same
problem shape in the trajectory file, and the run fails loudly
(non-zero exit) when the fresh engine wall exceeds the best prior by
more than the slack factor — wall-clock noise across hosts is expected,
a genuine hot-loop regression is not.  ``--regression-slack`` tunes the
factor; ``--no-regression-check`` disables the gate.

On top of the best-entry gates, the smoke run **trend-gates** each
fresh record against the *whole* same-host, same-shape trajectory via
:mod:`repro.bench.analysis` changepoint detection — a slowdown that
creeps in over several runs moves the recent segment mean even when
every individual run clears the best-prior slack.  It also maintains
``docs/perf.md``: before running it fails if the committed report does
not match the committed trajectory files (stale report), and after
appending the fresh records it regenerates the report in place.
``--report`` moves the report ('-' skips both steps).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.bench import analysis, figures
from repro.bench.tables import print_figure
from repro.core.blas import get_threads

__all__ = ["all_figures", "check_blas_budget", "check_fast_lane",
           "check_fastpath_regression", "check_hoist_twin",
           "check_pruning_regression", "check_reduce_scaling",
           "check_row_pruning",
           "check_selfheal_regression", "check_stale_report", "main"]

#: fresh engine wall may exceed the best prior same-shape entry by at
#: most this factor before the smoke gate fails (hosts differ; real
#: regressions are well past this)
REGRESSION_SLACK = 1.5

#: config keys that must match for two records to be comparable —
#: the problem shape AND the perf-relevant engine configuration (a
#: deliberately slower config, e.g. a smaller chunk budget, must never
#: be judged against the fast-lane best).  Shared with the trend gates in
#: :mod:`repro.bench.analysis` so both gates slice the same series.
_SHAPE_KEYS = analysis.FASTPATH_SHAPE_KEYS

#: config keys of the dist smoke record that must match for two
#: ``selfheal`` entries to be comparable
_DIST_SHAPE_KEYS = analysis.DIST_SHAPE_KEYS


def check_fastpath_regression(record: dict, path, *,
                              slack: float = REGRESSION_SLACK) -> str:
    """Compare a fresh fast-path record against the trajectory's best.

    Scans ``path`` for prior entries from the **same host** whose
    problem shape and perf-relevant config match ``record`` (the fresh
    record is not in the file yet), takes the best (smallest) prior
    engine wall and raises :class:`SystemExit` when the fresh wall
    exceeds ``slack`` times it.  Entries recorded on other machines are
    never compared — cross-host wall clocks would fail honest runs on
    slower hardware.  A 0.1 s noise floor keeps millisecond-scale walls
    (tiny smoke shapes, where scheduler jitter dominates) from tripping
    the gate.  Returns a human-readable verdict line otherwise.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text()).get("entries", [])
    except (OSError, json.JSONDecodeError):
        return "regression check skipped: no readable trajectory"
    shape = {k: record["config"][k] for k in _SHAPE_KEYS}
    prior = [e for e in entries
             if e.get("host") == record.get("host")
             and all(e.get("config", {}).get(k) == v
                     for k, v in shape.items())]
    if not prior:
        return ("regression check skipped: no prior same-host entry at "
                "this shape/config")
    best = min(p["engine"]["wall_s"] for p in prior)
    fresh = record["engine"]["wall_s"]
    if fresh > slack * max(best, 0.1):
        raise SystemExit(
            f"PERF REGRESSION: fresh engine wall {fresh:.3f} s exceeds "
            f"{slack:.2f}x the best prior same-shape entry ({best:.3f} s) "
            f"in {path.name}")
    return (f"regression check ok: engine wall {fresh:.3f} s vs best "
            f"prior {best:.3f} s ({best / max(1e-12, fresh):.2f}x)")


def check_hoist_twin(record: dict) -> str:
    """Gate the operand-hoist twin of a fast-path record.

    Its fit ran with a chunk budget below ``x.nbytes``: it must still
    hoist exactly one x-sized transposed operand, the staging reference
    must not, and the two must agree bit for bit.  Raises
    :class:`SystemExit` otherwise; returns a verdict line.
    """
    tw = record["hoist_twin"]
    ok = (tw["config"]["chunk_bytes"] < tw["x_nbytes"]
          and tw["hoisted_transposed_operand"]
          and tw["operand_bytes"] == tw["x_nbytes"]
          and not tw["reference_hoisted"]
          and tw["bit_identical"])
    if not ok:
        raise SystemExit(f"HOIST REGRESSION: default-knob twin {tw}")
    return (f"hoist twin ok: {tw['operand_bytes']} B operand past a "
            f"{tw['config']['chunk_bytes']} B chunk budget, bit-identical")


def check_fast_lane(record: dict) -> str:
    """Gate the fast-lane columns of a fast-path record.

    The record's fit (TF32 on the float32 smoke) must dispatch every
    chunk through the stacked lane (``batched_chunks == chunks_run``),
    and the per-unit walk twin must agree with it bit for bit.  A
    structural gate: no wall clock, so no host-drift slack.  Raises
    :class:`SystemExit` otherwise; returns a verdict line.
    """
    eng = record["engine"]
    if (eng["batched_chunks"] != eng["chunks_run"]
            or not record["unit_path_bit_identical"]):
        raise SystemExit(
            f"FAST LANE REGRESSION: batched_chunks={eng['batched_chunks']} "
            f"of chunks_run={eng['chunks_run']}, unit-path bit-identical "
            f"{record['unit_path_bit_identical']}")
    return (f"fast lane ok: {eng['batched_chunks']}/{eng['chunks_run']} "
            f"chunks stacked, bit-identical to the unit walk")


def check_row_pruning(record: dict) -> str:
    """Gate the shuffled-row twin of the fast-path pruning record.

    The twin runs a partly converging blob workload in contiguous and
    in shuffled row order on one centroid trajectory; in the shuffled
    order every GEMM unit mixes clusters.  The shuffled run must stay
    bit-identical to the unpruned engine on every pass, and its final
    ``active_frac`` must sit within 0.01 of the contiguous layout's —
    the pruned lane skips certified rows wherever they sit, not only
    inside emptied units.  A structural gate: no wall clock, so no
    host-drift slack.  Raises :class:`SystemExit` otherwise; returns a
    verdict line.
    """
    tw = (record.get("pruning") or {}).get("shuffled")
    if not tw:
        raise SystemExit("ROW PRUNING REGRESSION: the pruning record has "
                         "no shuffled-row twin")
    fresh, ref = tw["final_active_frac"], tw["contiguous_final_active_frac"]
    if not all(tw["bit_identical_per_iter"]) or abs(fresh - ref) > 0.01:
        raise SystemExit(
            f"ROW PRUNING REGRESSION: shuffled twin bit-identical per pass "
            f"{tw['bit_identical_per_iter']}, final active_frac "
            f"{fresh:.3f} vs contiguous {ref:.3f}")
    return (f"row pruning ok: shuffled twin bit-identical on "
            f"{len(tw['bit_identical_per_iter'])} passes, final active_frac "
            f"{fresh:.3f} vs contiguous {ref:.3f}")


def check_pruning_regression(record: dict, path, *,
                             slack: float = REGRESSION_SLACK) -> str:
    """Gate the bound-pruned assignment record (schema v3+).

    Two checks against the best prior same-host, same-shape entry that
    carries a ``pruning`` record: the pruned assignment wall must not
    exceed ``slack`` times the best prior (with the usual 0.1 s noise
    floor), and the final ``active_frac`` must not have grown — the
    workload is deterministic per shape/seed, so a larger final active
    set means the bounds stopped proving rows (a pruning-logic
    regression, not wall-clock noise).  Returns a verdict line.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text()).get("entries", [])
    except (OSError, json.JSONDecodeError):
        return "pruning check skipped: no readable trajectory"
    pr = record.get("pruning")
    if not pr:
        return "pruning check skipped: record has no pruning entry"
    shape = {k: record["config"][k] for k in _SHAPE_KEYS}
    prior = [e["pruning"] for e in entries
             if e.get("host") == record.get("host")
             and e.get("pruning")
             and all(e.get("config", {}).get(k) == v
                     for k, v in shape.items())
             and e["pruning"].get("iters") == pr["iters"]]
    if not prior:
        return ("pruning check skipped: no prior same-host entry at "
                "this shape")
    best = min(p["pruned_assign_wall_s"] for p in prior)
    fresh = pr["pruned_assign_wall_s"]
    if fresh > slack * max(best, 0.1):
        raise SystemExit(
            f"PRUNING REGRESSION: pruned assignment wall {fresh:.3f} s "
            f"exceeds {slack:.2f}x the best prior same-shape entry "
            f"({best:.3f} s) in {path.name}")
    best_frac = min(p["final_active_frac"] for p in prior)
    if pr["final_active_frac"] > best_frac + 0.01:
        raise SystemExit(
            f"PRUNING REGRESSION: final active_frac "
            f"{pr['final_active_frac']:.3f} exceeds the best prior "
            f"same-shape entry ({best_frac:.3f}) in {path.name} — the "
            f"bounds prove fewer rows than they used to")
    return (f"pruning check ok: pruned assignment {fresh:.3f} s vs best "
            f"prior {best:.3f} s, final active_frac "
            f"{pr['final_active_frac']:.3f} (best {best_frac:.3f})")


def check_selfheal_regression(record: dict, path, *,
                              slack: float = REGRESSION_SLACK) -> str:
    """Gate the kill → spawn → re-expand recovery overhead.

    Compares the fresh dist record's per-recovered-round selfheal
    overhead against the best prior same-host, same-shape ``selfheal``
    entry in ``path`` (schema v4+); raises :class:`SystemExit` when the
    fresh overhead exceeds ``slack`` times it.  A 0.1 s noise floor
    keeps sub-100 ms overheads — dominated by process spawn jitter —
    from tripping the gate.  Returns a verdict line otherwise.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text()).get("entries", [])
    except (OSError, json.JSONDecodeError):
        return "selfheal check skipped: no readable trajectory"
    sh = record.get("selfheal")
    if not sh:
        return "selfheal check skipped: record has no selfheal entry"
    shape = {k: record["config"][k] for k in _DIST_SHAPE_KEYS}
    prior = [e["selfheal"] for e in entries
             if e.get("host") == record.get("host")
             and e.get("selfheal")
             and all(e.get("config", {}).get(k) == v
                     for k, v in shape.items())
             and e["selfheal"].get("workers") == sh["workers"]]
    if not prior:
        return ("selfheal check skipped: no prior same-host entry at "
                "this shape")
    best = min(p["recovered_round_overhead_s"] for p in prior)
    fresh = sh["recovered_round_overhead_s"]
    if fresh > slack * max(best, 0.1):
        raise SystemExit(
            f"SELFHEAL REGRESSION: recovered-round overhead {fresh:.3f} s "
            f"exceeds {slack:.2f}x the best prior same-shape entry "
            f"({best:.3f} s) in {path.name}")
    return (f"selfheal check ok: recovered-round overhead {fresh:.3f} s "
            f"vs best prior {best:.3f} s")


def check_reduce_scaling(record: dict, path, *,
                         slack: float = REGRESSION_SLACK) -> str:
    """Gate the reduce coordinator-occupancy curve (schema v6).

    Every curve cell of the fresh record must be bit-identical to the
    single-worker fit.  Then the stream merge's occupancy at the widest
    fleet is compared against the best prior same-host, same-shape
    stream entry with the usual slack; a 0.01 s noise floor keeps
    millisecond-scale occupancies from tripping on scheduler jitter.
    Raises :class:`SystemExit` on a violation, returns a verdict line
    otherwise.
    """
    red = record.get("reduce")
    if not red or not red.get("curve"):
        return "reduce check skipped: record has no reduce curve"
    bad = [f"W={r['workers']}" for r in red["curve"]
           if not r["bit_identical_vs_single"]]
    if bad:
        raise SystemExit(
            f"REDUCE REGRESSION: merges at {', '.join(bad)} are no "
            f"longer bit-identical to the single-worker fit")
    widest = max(r["workers"] for r in red["curve"])
    fresh = next(r["reduce_busy_s"] for r in red["curve"]
                 if r["workers"] == widest)
    path = Path(path)
    try:
        entries = json.loads(path.read_text()).get("entries", [])
    except (OSError, json.JSONDecodeError):
        return ("reduce check ok (fresh record only): no readable "
                "trajectory")
    shape = {k: record["config"][k] for k in _DIST_SHAPE_KEYS}
    prior = [row["reduce_busy_s"] for e in entries
             if e.get("host") == record.get("host")
             and all(e.get("config", {}).get(k) == v
                     for k, v in shape.items())
             and e.get("reduce", {}).get("workers_grid") == red["workers_grid"]
             for row in e["reduce"].get("curve", [])
             if row["workers"] == widest and row["topology"] == "stream"]
    if not prior:
        return ("reduce check ok (fresh record only): no prior "
                "same-host entry at this shape")
    best = min(prior)
    if fresh > slack * max(best, 0.01):
        raise SystemExit(
            f"REDUCE REGRESSION: stream occupancy at {widest} workers "
            f"{fresh * 1e3:.2f} ms exceeds {slack:.2f}x the best prior "
            f"same-shape entry ({best * 1e3:.2f} ms) in {path.name}")
    return (f"reduce check ok at {widest} workers: stream "
            f"{fresh * 1e3:.2f} ms (best prior {best * 1e3:.2f} ms)")


def check_blas_budget(record: dict) -> str:
    """Gate the BLAS thread budget of a dist record (schema v10).

    Every multi-worker grid cell, and the self-heal fit (a process
    fleet through a kill, a cold spawn and a re-expand), must have run
    its workers at W x ``blas_threads`` <= the host's cores and stayed
    bit-identical to the single-worker fit.  A structural gate: no wall
    clock, so no host-drift slack.  Skipped where this process cannot
    read the BLAS thread count.  Raises :class:`SystemExit` otherwise;
    returns a verdict line.
    """
    if get_threads() is None:
        return "blas budget check skipped: BLAS thread count not readable"
    cores = record.get("cores") or 0
    cells = [(f"W={r['workers']} M={r['m']}", r["workers"],
              r.get("blas_threads") or 0, r["bit_identical_vs_single"])
             for r in record["grid"] if r["workers"] > 1]
    sh = record.get("selfheal")
    if sh:
        cells.append(("selfheal", sh["workers"], sh.get("blas_threads") or 0,
                      sh["recovered_bit_identical"]))
    bad = [f"{name} ({w} x {t} threads, bit-identical {same})"
           for name, w, t, same in cells
           if not same or t < 1 or w * t > cores]
    if bad:
        raise SystemExit(
            f"BLAS BUDGET REGRESSION on {cores} cores: {', '.join(bad)}")
    return (f"blas budget ok: {len(cells)} fleets at workers x threads <= "
            f"{cores} cores, bit-identical")


def check_stale_report(report_path, fastpath_path, dist_path) -> str:
    """Fail when ``docs/perf.md`` lags the committed trajectory files.

    The report is a pure function of the two ``BENCH_*.json`` files
    (see :func:`repro.bench.analysis.render_perf_report`), so editing a
    trajectory — or the report — without regenerating is a plain
    string diff.  Raises :class:`SystemExit` on a mismatch; missing
    trajectory files skip the check (fresh checkouts with '-' outs).
    """
    fastpath_path, dist_path = Path(fastpath_path), Path(dist_path)
    if not fastpath_path.exists() and not dist_path.exists():
        return "stale-report check skipped: no trajectory files"
    if not Path(report_path).exists():
        raise SystemExit(
            f"STALE PERF REPORT: {report_path} does not exist but the "
            f"trajectory files do — run `python -m repro.bench.runner "
            f"--smoke` and commit the regenerated report")
    if analysis.report_is_stale(report_path, fastpath_path, dist_path):
        raise SystemExit(
            f"STALE PERF REPORT: {report_path} does not match the "
            f"committed trajectory files — run `python -m "
            f"repro.bench.runner --smoke` and commit the regenerated "
            f"report")
    return f"stale-report check ok: {report_path} matches the trajectories"


def all_figures() -> list:
    """Compute every FigureResult in paper order."""
    return [
        figures.fig7_stepwise(),
        figures.fig8_fig9_distance_vs_features(np.float32),
        figures.fig8_fig9_distance_vs_features(np.float64),
        figures.fig10_fig11_distance_vs_clusters(np.float32),
        figures.fig10_fig11_distance_vs_clusters(np.float64),
        figures.fig12_speedup_grid(np.float32),
        figures.fig12_speedup_grid(np.float64),
        figures.fig13_table1_selected_parameters(np.float32),
        figures.fig13_table1_selected_parameters(np.float64),
        figures.fig14_selection_map(np.float32),
        figures.fig15_fig16_ft_overhead(np.float32),
        figures.fig15_fig16_ft_overhead(np.float64),
        figures.fig17_fig18_error_injection(np.float32),
        figures.fig17_fig18_error_injection(np.float64),
        figures.fig19_t4_vs_features(),
        figures.fig20_t4_vs_clusters(),
        figures.fig21_t4_injection(),
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the < 60 s wall-clock fast-path benchmark "
                             "instead of the full figure harness")
    parser.add_argument("--out", default=None,
                        help="with --smoke: trajectory JSON to append to "
                             "(defaults to ./BENCH_fastpath.json; '-' skips)")
    parser.add_argument("--dist-out", default=None,
                        help="with --smoke: sharded-scaling trajectory JSON "
                             "(defaults to ./BENCH_dist.json; '-' skips the "
                             "sharded smoke run)")
    parser.add_argument("--regression-slack", type=float,
                        default=REGRESSION_SLACK,
                        help="with --smoke: allowed factor over the best "
                             "prior same-shape engine wall")
    parser.add_argument("--no-regression-check", action="store_true",
                        help="with --smoke: skip the perf regression gate")
    parser.add_argument("--report", default=str(analysis.DEFAULT_REPORT_PATH),
                        help="with --smoke: generated perf report path "
                             "('-' skips the stale check and regeneration)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --smoke: forward to the dist smoke as "
                             "the traced run's output path ('.jsonl' "
                             "streams spans live, else Chrome trace JSON)")
    args, extra = parser.parse_known_args(argv)
    if args.smoke:
        from repro.bench import dist as dist_bench
        from repro.bench import fastpath

        out = args.out or str(fastpath.DEFAULT_RESULT_PATH)
        dist_out = args.dist_out or str(dist_bench.DEFAULT_RESULT_PATH)
        gate = not args.no_regression_check
        # gate FIRST: a stale committed report must fail before the
        # fresh records legitimately change the trajectory files
        if args.report != "-" and gate:
            print("  " + check_stale_report(args.report, out, dist_out))
        # the benches write nothing: each gate compares against the
        # trajectory as it was, and the records join it only once every
        # gate has passed
        record = fastpath.main(["--smoke", "--out", "-"] + extra)
        print("  " + check_hoist_twin(record))
        print("  " + check_fast_lane(record))
        print("  " + check_row_pruning(record))
        if out != "-" and gate:
            print("  " + check_fastpath_regression(
                record, out, slack=args.regression_slack))
            print("  " + check_pruning_regression(
                record, out, slack=args.regression_slack))
            print("  " + analysis.check_fastpath_trend(record, out))
        dist_record = None
        if dist_out != "-":
            dist_record = dist_bench.main(
                ["--smoke", "--out", "-"]
                + (["--trace-out", args.trace_out] if args.trace_out
                   else []))
            print("  " + check_blas_budget(dist_record))
            if gate:
                print("  " + check_selfheal_regression(
                    dist_record, dist_out, slack=args.regression_slack))
                print("  " + check_reduce_scaling(
                    dist_record, dist_out, slack=args.regression_slack))
                print("  " + analysis.check_dist_trend(
                    dist_record, dist_out))
        if out != "-":
            print(f"  recorded -> {fastpath.write_record(record, out)}")
        if dist_record is not None:
            path = fastpath.write_record(dist_record, dist_out,
                                         schema=dist_bench.SCHEMA)
            print(f"  recorded -> {path}")
        if args.report != "-":
            path = analysis.write_perf_report(args.report, out, dist_out)
            print(f"  perf report -> {path}")
        return
    if extra:
        parser.error(f"unrecognised arguments: {' '.join(extra)}")
    for res in all_figures():
        print_figure(res, max_rows=8)
        print()


if __name__ == "__main__":
    main()
