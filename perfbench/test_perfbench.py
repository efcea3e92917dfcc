"""The benchmark's own tests, at tiny shapes.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import FTKMeans  # noqa: E402
from repro.gpusim.counters import PerfCounters  # noqa: E402

from perfbench import checks, run  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.probes import PROBES, LayerProbe  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

ROWS = 1536
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generators ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seed_deterministic(name):
    a, b = make_inputs(name, 3, rows=ROWS), make_inputs(name, 3, rows=ROWS)
    other = make_inputs(name, 4, rows=ROWS)
    for field in ("x", "x_new"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert getattr(a, field).tobytes() != getattr(other, field).tobytes()
    assert a.x.shape == (ROWS, 64)
    init_a = a.kwargs.get("init_centroids")
    if init_a is not None:
        assert np.array_equal(init_a, b.kwargs["init_centroids"])
    assert a.kwargs["seed"] == 3


def test_fleet_clusters_the_cold_fit_data():
    cold, fleet = (make_inputs(n, 5, rows=ROWS)
                   for n in ("cold-fit", "fleet-2w"))
    assert np.array_equal(cold.x, fleet.x)
    assert fleet.kwargs["n_workers"] == 2


# -- metric names -------------------------------------------------------

def test_benchmark_json_matches_the_catalogue(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


def test_every_metric_name_is_valid(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


# -- probes -------------------------------------------------------------

def test_probe_is_bit_neutral_and_restores_entry_points():
    from repro.obs.trace import TraceRecorder

    inp = make_inputs("converge-f64", 0, rows=ROWS)
    plain = FTKMeans(**inp.kwargs).fit(inp.x)
    before = [_target(m, o).__dict__[a] for m, o, a, _ in PROBES]
    with LayerProbe() as probe:
        traced = FTKMeans(**inp.kwargs, tracer=TraceRecorder()).fit(inp.x)
    assert [_target(m, o).__dict__[a] for m, o, a, _ in PROBES] == before
    assert plain.labels_.tobytes() == traced.labels_.tobytes()
    assert plain.cluster_centers_.tobytes() == \
        traced.cluster_centers_.tobytes()
    assert plain.inertia_ == traced.inertia_
    assert probe.total("engine.assign") > 0 and probe.fed_bytes > 0
    assert probe.engines and probe.bounded_rows > 0


def _target(module, owner):
    import importlib

    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


# -- whole runs at tiny shapes -------------------------------------------

@pytest.mark.parametrize("name,trace", [
    ("cold-fit", False), ("converge-f64", True), ("ft-inject", True),
    ("fleet-2w", True)])
def test_tiny_run_reports_every_metric(monkeypatch, spec, name, trace):
    monkeypatch.setattr(run, "_fresh_setup", lambda *a, **k: 0.5)
    monkeypatch.setattr(run.host, "STREAM_CAP_BYTES", 1 << 20)
    result = run.Run(name, 0, 0.01, trace, rows=ROWS).execute()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])


def test_cli_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--workload", "ft-inject",
         "--seed", "1", "--seconds", "0.01", "--trace", "0",
         "--rows", str(ROWS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m[0] for m in END_TO_END}


# -- each check fails on a corrupted result --------------------------------

@pytest.fixture(scope="module")
def fitted():
    inp = make_inputs("cold-fit", 1, rows=ROWS)
    km = FTKMeans(**inp.kwargs).fit(inp.x)
    out = {"labels": km.labels_, "centroids": km.cluster_centers_,
           "inertia": km.inertia_, "predicted": km.predict(inp.x_new)}
    return inp, km, out


def test_check_repeat(fitted):
    _, _, out = fitted
    d = checks.digest(**out)
    assert checks.check_repeat(d, d) == []
    bumped = dict(out, inertia=np.nextafter(out["inertia"], np.inf))
    assert checks.check_repeat(d, checks.digest(**bumped))


def test_check_predict(fitted):
    inp, _, out = fitted
    assert checks.check_predict(inp.x_new, out["centroids"],
                                out["predicted"]) == []
    bad = out["predicted"].copy()
    bad[:5] = (bad[:5] + 1) % out["centroids"].shape[0]
    assert checks.check_predict(inp.x_new, out["centroids"], bad)
    assert checks.check_predict(inp.x_new, out["centroids"], bad[:-1])


def test_check_identical(fitted):
    _, _, out = fitted
    assert checks.check_identical(out, out) == []
    labels = out["labels"].copy()
    labels[7] ^= 1
    assert checks.check_identical(dict(out, labels=labels), out)
    cents = out["centroids"].copy()
    cents[0, 0] = np.nextafter(cents[0, 0], np.inf)
    assert checks.check_identical(dict(out, centroids=cents), out)
    assert checks.check_identical(
        dict(out, inertia=np.nextafter(out["inertia"], 0)), out)


def test_check_ft():
    c = replace(PerfCounters(), errors_detected=3, errors_corrected=3)
    assert checks.check_ft(c, 100.0, 100.0) == []
    assert checks.check_ft(replace(c, errors_corrected=2), 100.0, 100.0)
    assert checks.check_ft(c, 100.0 * (1 + 2 * checks.INERTIA_REL_TOL),
                           100.0)


def test_check_oracle_and_numpy_lloyd():
    inp = make_inputs("converge-f64", 2, rows=ROWS)
    km = FTKMeans(**inp.kwargs).fit(inp.x)
    base = checks.numpy_lloyd(inp.x, inp.kwargs["init_centroids"],
                              inp.kwargs["max_iter"])
    assert checks.check_oracle(km.labels_, km.inertia_, base) == []
    labels = km.labels_.copy()
    labels[:5] = (labels[:5] + 1) % 64
    assert checks.check_oracle(labels, km.inertia_, base)
    assert checks.check_oracle(km.labels_, km.inertia_ * (1 + 1e-6), base)
