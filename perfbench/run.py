"""Default-knob FTKMeans benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 -m perfbench.run --workload cold-fit --seed 0 --seconds 20 --trace 0

A run times repeated ``fit`` + ``predict`` calls of one workload
(``perfbench/workloads.py``) through the public API for ``--seconds``
seconds, after an untimed set-up, and checks every repeat's outputs.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics
(``perfbench/metrics.py``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries the run's details and host facts.

Set-up (``setup_s``) is the median of three set-ups, each in a fresh
interpreter: ``import repro`` plus a warm-up fit and ``predict`` of the
same workload at one eighth of its rows, which takes every code path
of the timed repeats.  The run itself then warms up once more, untimed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import checks, host
from .metrics import END_TO_END, PER_LAYER, layer_metrics, median_metrics
from .probes import LayerProbe
from .workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_SAMPLES = 3
WARMUP_ROW_DIVISOR = 8
PREDICTS_PER_REPEAT = 8


def warmup(workload: str, seed: int, rows: int | None = None) -> float:
    """Fit and predict the workload at a fraction of its rows, which
    takes every code path of the timed repeats; returns the wall."""
    from repro import FTKMeans

    rows = WORKLOADS[workload].rows if rows is None else rows
    small = make_inputs(workload, seed, rows=rows // WARMUP_ROW_DIVISOR)
    t0 = time.perf_counter()
    FTKMeans(**small.kwargs).fit(small.x).predict(small.x_new)
    return time.perf_counter() - t0


def setup_sample(workload: str, seed: int, rows: int | None) -> float:
    """``import repro`` plus the warm-up, in this (fresh) interpreter."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    return time.perf_counter() - t0 + warmup(workload, seed, rows)


def _fresh_setup(workload: str, seed: int, rows: int | None) -> float:
    """One :func:`setup_sample` in a new interpreter, as a user's first
    fit pays it."""
    cmd = [sys.executable, "-m", "perfbench.run", "--setup-sample",
           "--workload", workload, "--seed", str(seed)]
    if rows is not None:
        cmd += ["--rows", str(rows)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=170)
    return float(out.stdout.strip().splitlines()[-1])


def _outputs(km, predicted) -> dict:
    return {"labels": km.labels_, "centroids": km.cluster_centers_,
            "inertia": km.inertia_, "predicted": predicted}


class Run:
    """One invocation: set-up, references, timed repeats, checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, rows: int | None = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rows = rows
        self.failures: list[str] = []
        self.details: dict = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        samples = [_fresh_setup(self.workload, self.seed, self.rows)
                   for _ in range(SETUP_SAMPLES)]
        sys.path.insert(0, str(SRC))
        from repro import FTKMeans
        from repro.obs.trace import TraceRecorder

        self.FTKMeans, self.TraceRecorder = FTKMeans, TraceRecorder
        warmup(self.workload, self.seed, self.rows)
        self.details["setup_walls"] = samples
        return statistics.median(samples)

    def references(self) -> None:
        """Oracles computed once, before timing."""
        self.inputs = inp = make_inputs(self.workload, self.seed,
                                        rows=self.rows)
        self.ref = None
        self.ref_wall = 0.0
        self.baseline_s = 0.0
        if inp.reference_kwargs:
            km = self.FTKMeans(**inp.reference_kwargs)
            t0 = time.perf_counter()
            km.fit(inp.x)
            self.ref_wall = time.perf_counter() - t0
            self.ref = _outputs(km, km.predict(inp.x_new))
        if self.workload == "converge-f64":
            t0 = time.perf_counter()
            self.ref = checks.numpy_lloyd(inp.x, inp.kwargs["init_centroids"],
                                          inp.kwargs["max_iter"])
            self.baseline_s = time.perf_counter() - t0

    # -- one timed repeat -----------------------------------------------
    def repeat(self, traced: bool) -> dict:
        inp = self.inputs
        tracer = self.TraceRecorder() if traced else None
        km = self.FTKMeans(**inp.kwargs, tracer=tracer)
        probe = LayerProbe()
        with probe if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            km.fit(inp.x)
            fit_wall = time.perf_counter() - t0
        rec = {"traced": traced, "fit_s": fit_wall, "km": km}
        if traced:
            rec["layers"] = layer_metrics(probe, tracer.spans, km, fit_wall,
                                          self.gemm_ceiling)
        walls = []
        for _ in range(PREDICTS_PER_REPEAT):
            t0 = time.perf_counter()
            predicted = km.predict(inp.x_new)
            walls.append(time.perf_counter() - t0)
        rec["predict_s"] = walls
        rec["out"] = _outputs(km, predicted)
        return rec

    def check(self, rec: dict, first_digest: str | None) -> list[str]:
        out, km = rec["out"], rec["km"]
        rec["digest"] = checks.digest(out["labels"], out["centroids"],
                                      out["inertia"], out["predicted"])
        fails = []
        if first_digest is not None:
            fails += checks.check_repeat(first_digest, rec["digest"])
        if self.workload in ("cold-fit", "converge-f64"):
            fails += checks.check_predict(self.inputs.x_new, out["centroids"],
                                          out["predicted"])
        if self.workload == "converge-f64":
            fails += checks.check_oracle(out["labels"], out["inertia"],
                                         self.ref)
        if self.workload == "ft-inject":
            fails += checks.check_ft(km.counters_, out["inertia"],
                                     self.ref["inertia"])
        if self.workload == "fleet-2w":
            fails += checks.check_identical(out, self.ref)
        return fails

    # -- the run ----------------------------------------------------------
    def execute(self) -> dict:
        setup_s = self.setup()
        self.references()
        self.gemm_ceiling = 0.0
        if self.trace:
            from repro.core.engine import GEMM_UNIT_ROWS
            x = self.inputs.x
            self.gemm_ceiling = host.gemm_gflops(
                x.dtype, GEMM_UNIT_ROWS, x.shape[1],
                self.inputs.kwargs["n_clusters"])
        recs, walls, failed, first = [], [], 0, None
        t_start = time.perf_counter()
        while True:
            traced = self.trace and len(recs) % 2 == 1
            t_rep = time.perf_counter()
            try:
                rec = self.repeat(traced)
                fails = self.check(rec, first)
                first = first or rec["digest"]
            except Exception:  # a raising repeat counts as failed
                fails = [traceback.format_exc()]
                rec = None
            if fails:
                failed += 1
                self.failures += fails
                print("\n".join(fails), file=sys.stderr)
            recs.append(rec)
            walls.append(time.perf_counter() - t_rep)
            # start another repeat only if at least half of it fits in
            # the measuring time, so a run's length stays predictable
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * statistics.median(walls) >= self.seconds \
                    and (not self.trace or len(recs) >= 2):
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = [r for r in recs if r is not None]
        # untraced repeats always, traced ones too under --trace 1
        if not all(any(r["traced"] == kind for r in done)
                   for kind in {False, self.trace}):
            raise RuntimeError("too few repeats completed to report")
        engine = getattr(done[-1]["km"]._assigner, "engine", None)
        self.details.update(
            workload=self.workload, seed=self.seed, trace=int(self.trace),
            fit_walls=[r["fit_s"] for r in done],
            predict_walls=[w for r in done for w in r["predict_s"]],
            traced=[r["traced"] for r in done],
            digest=first, failures=self.failures[:5],
            reference_fit_s=self.ref_wall, host=host.host_facts(engine))
        if self.trace:
            metrics = self._per_layer(done)
        else:
            metrics = self._end_to_end(done, setup_s, peak_rss_mb)
        return {"correct": failed == 0, "attempted": len(recs),
                "failed": failed, "metrics": metrics}

    def _end_to_end(self, done, setup_s, peak_rss_mb) -> dict:
        fit_s = statistics.median(r["fit_s"] for r in done)
        predict_s = statistics.median(w for r in done for w in r["predict_s"])
        values = {"fit_s": fit_s,
                  "predict_rows_per_s": self.inputs.x_new.shape[0] / predict_s,
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _, _ in END_TO_END}

    def _per_layer(self, done) -> dict:
        traced = [r for r in done if r["traced"]]
        plain = [r for r in done if not r["traced"]]
        values = median_metrics([r["layers"] for r in traced])
        traced_s = statistics.median(r["fit_s"] for r in traced)
        plain_s = statistics.median(r["fit_s"] for r in plain)
        llc = host.llc_bytes()
        stream, stream_bytes = host.stream_gbs(llc)
        self.details.update(stream_array_bytes=stream_bytes, llc_bytes=llc,
                            stream_ge_4x_llc=bool(llc)
                            and stream_bytes >= 4 * llc,
                            gemm_ceiling_dtype=str(self.inputs.x.dtype))
        inertia = traced[-1]["out"]["inertia"]
        values.update({
            "inertia_rel_err": (checks.inertia_rel_err(
                inertia, self.ref["inertia"])
                if self.workload in ("ft-inject", "fleet-2w") else 0.0),
            "dist.speedup_vs_1w": (self.ref_wall / plain_s
                                   if self.workload == "fleet-2w" else 0.0),
            "obs.trace_overhead_s": traced_s - plain_s,
            "baseline.fit_s": self.baseline_s,
            "ceiling.gemm_gflops": self.gemm_ceiling,
            "ceiling.stream_gbs": stream,
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=None,
                    help="override the workload's row count (quick checks)")
    ap.add_argument("--setup-sample", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_sample:
        print(setup_sample(args.workload, args.seed, args.rows))
        return 0
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              rows=args.rows)
    result = run.execute()
    print(json.dumps({"details": run.details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
