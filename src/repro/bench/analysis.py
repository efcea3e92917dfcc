"""Trajectory analytics over the ``BENCH_*.json`` perf files.

The wall-clock benches (:mod:`repro.bench.fastpath`,
:mod:`repro.bench.dist`) append one record per run to a *trajectory*
file — a growing cross-PR perf history whose entries span several
schema generations.  This module is the read side of that history, in
three layers:

* **Loader / migrator** — :func:`load_trajectory` parses a trajectory
  file into a :class:`Trajectory`, validating the document shape and
  migrating every entry to an explicit schema version.  Early entries
  were written before per-entry ``schema`` keys existed, and the
  top-level ``schema`` key kept its creation-time value across appends
  (``fastpath_walltime/v1`` over v3 entries); the migrator infers each
  legacy entry's version from the keys it carries and reports the
  drift instead of choking on it.

* **Trend detection** — :func:`detect_changepoint` finds a single
  mean-shift changepoint in a wall-clock series (least-squares
  segmentation, no dependencies beyond numpy), and
  :func:`check_fastpath_trend` / :func:`check_dist_trend` gate a fresh
  record against the *whole* same-host, same-shape trajectory: a
  regression that creeps in over several runs moves the recent
  segment mean even when each individual run stays under the
  best-prior slack, so this gate is additive to the best-entry checks
  in :mod:`repro.bench.runner`.

* **Report rendering** — :func:`render_perf_report` turns the
  trajectory files into ``docs/perf.md``: per-host normalised
  trajectory tables, trend verdicts, and the per-stage wall breakdown
  sourced from the traced re-runs (schema v4/v5 records carry
  ``trace.stage_totals`` from a :class:`~repro.obs.trace.TraceRecorder`
  pass).  The report is a **pure function of the committed files** —
  no timestamps, no environment — so ``runner --smoke`` can diff the
  rendered text against the committed report and fail on staleness.

The :class:`Trajectory` accessors are lazily-computed memoized
properties: parse once, derive views on demand.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SchemaError", "Trajectory", "Changepoint",
    "schema_version", "schema_family", "infer_entry_schema",
    "migrate_entry", "load_trajectory", "detect_changepoint",
    "check_fastpath_trend", "check_dist_trend",
    "render_perf_report", "write_perf_report", "report_is_stale",
    "FASTPATH_SHAPE_KEYS", "DIST_SHAPE_KEYS",
    "DEFAULT_REPORT_PATH", "TREND_SLACK",
]

#: newest schema generation per trajectory family (the versions the
#: benches write today; the loader accepts every generation up to it)
SCHEMA_FAMILIES = {"fastpath_walltime": 4, "dist_scaling": 10}

#: config keys that must match for two fast-path records to share a
#: trend series (problem shape + perf-relevant engine config; the
#: runner's best-entry gate uses the same keys)
FASTPATH_SHAPE_KEYS = ("m", "n_features", "n_clusters", "iters", "dtype",
                       "chunk_bytes")

#: config keys that must match for two dist records to share a series
DIST_SHAPE_KEYS = ("m_grid", "n_features", "n_clusters", "iters",
                   "dtype", "checkpoint_every")

#: the generated report (resolved against the working directory, i.e.
#: the repository root when run from a checkout)
DEFAULT_REPORT_PATH = Path("docs/perf.md")

#: the recent-segment mean may exceed the earlier-segment mean by at
#: most this factor before the trend gate fails (matches the runner's
#: best-entry slack: wall noise is expected, a sustained shift is not)
TREND_SLACK = 1.5

#: a changepoint must explain at least this fraction of the series
#: variance to count (guards against splitting pure noise)
_MIN_GAIN = 0.5

#: wall floor (s) below which trend shifts are scheduler jitter
_NOISE_FLOOR_S = 0.1


class SchemaError(ValueError):
    """A trajectory file or entry violates the documented shape."""


def schema_version(schema) -> int:
    """``"fastpath_walltime/v3"`` -> ``3``; missing/unparsable -> ``0``."""
    try:
        return int(str(schema).rsplit("/v", 1)[1])
    except (IndexError, ValueError):
        return 0


def schema_family(schema) -> str | None:
    """``"dist_scaling/v4"`` -> ``"dist_scaling"``; unknown -> ``None``."""
    fam = str(schema).rsplit("/v", 1)[0]
    return fam if fam in SCHEMA_FAMILIES else None


def infer_entry_schema(entry: dict, family: str) -> str:
    """Infer a legacy entry's schema version from the keys it carries.

    Entries written before the per-entry ``schema`` key existed are
    identified by the feature keys each generation introduced (the
    generations are strictly additive, so presence of the newest
    marker key decides).
    """
    if family == "fastpath_walltime":
        if "trace" in entry:
            version = 4
        elif "pruning" in entry:
            version = 3
        elif "unit_path_bit_identical" in entry:
            version = 2
        else:
            version = 1
    elif family == "dist_scaling":
        if "transport" in entry:
            version = 7
        elif "reduce" in entry:
            version = 6
        elif "trace" in entry:
            version = 5
        elif "selfheal" in entry:
            version = 4
        elif "checkpoint" in entry:
            version = 3
        elif "elastic" in entry:
            version = 2
        else:
            version = 1
    else:
        raise SchemaError(f"unknown trajectory family {family!r}")
    return f"{family}/v{version}"


def migrate_entry(entry: dict, family: str) -> dict:
    """Validate one entry and return a copy migrated to an explicit
    schema.

    The copy always carries ``schema`` (inferred for legacy entries)
    and ``schema_version`` (int, for cheap comparisons).  A declared
    per-entry schema must belong to ``family`` and must not postdate
    the newest generation this loader knows.
    """
    if not isinstance(entry, dict):
        raise SchemaError(f"trajectory entry is not an object: {entry!r}")
    if not isinstance(entry.get("config"), dict):
        raise SchemaError("trajectory entry has no config object")
    declared = entry.get("schema")
    if declared is not None:
        if schema_family(declared) != family:
            raise SchemaError(
                f"entry schema {declared!r} does not belong to the "
                f"{family!r} trajectory")
        version = schema_version(declared)
        if version > SCHEMA_FAMILIES[family]:
            raise SchemaError(
                f"entry schema {declared!r} postdates this loader "
                f"(newest known: v{SCHEMA_FAMILIES[family]})")
        schema = declared
    else:
        schema = infer_entry_schema(entry, family)
        version = schema_version(schema)
    out = dict(entry)
    out["schema"] = schema
    out["schema_version"] = version
    return out


class Trajectory:
    """One parsed ``BENCH_*.json`` file with lazily-derived views."""

    def __init__(self, path: Path, doc: dict, family: str):
        self.path = Path(path)
        self.doc = doc
        self.family = family

    # -- migration ----------------------------------------------------

    @cached_property
    def entries(self) -> list[dict]:
        """Every entry migrated to an explicit schema (file order)."""
        return [migrate_entry(e, self.family)
                for e in self.doc.get("entries", [])]

    @property
    def declared_schema(self) -> str:
        return self.doc.get("schema", "")

    @cached_property
    def newest_schema(self) -> str:
        """The newest per-entry schema present (what the top-level key
        *should* say)."""
        if not self.entries:
            return self.declared_schema
        return max((e["schema"] for e in self.entries), key=schema_version)

    @property
    def has_drift(self) -> bool:
        """True when the top-level key lags the entries it indexes."""
        return (schema_version(self.declared_schema)
                != schema_version(self.newest_schema))

    @cached_property
    def versions(self) -> tuple[int, ...]:
        return tuple(sorted({e["schema_version"] for e in self.entries}))

    @cached_property
    def hosts(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.get("host", "?"))
        return tuple(seen)

    # -- series extraction --------------------------------------------

    @property
    def shape_keys(self) -> tuple[str, ...]:
        return (FASTPATH_SHAPE_KEYS if self.family == "fastpath_walltime"
                else DIST_SHAPE_KEYS)

    def shape_of(self, entry: dict) -> tuple:
        cfg = entry.get("config", {})

        def freeze(v):
            return tuple(v) if isinstance(v, list) else v

        return tuple(freeze(cfg.get(k)) for k in self.shape_keys)

    def wall_of(self, entry: dict) -> float | None:
        """The headline scalar a trend series tracks.

        Fast-path: the fused engine wall.  Dist: the clean recovery
        wall (present since v1 and run at a fixed shape, unlike the
        grid rows, which vary per cell).
        """
        try:
            if self.family == "fastpath_walltime":
                return float(entry["engine"]["wall_s"])
            return float(entry["recovery"]["clean_wall_s"])
        except (KeyError, TypeError, ValueError):
            return None

    def series(self, host: str, shape: tuple) -> list[float]:
        """Same-host, same-shape wall series in trajectory order."""
        return [w for e in self.entries
                if e.get("host") == host and self.shape_of(e) == shape
                and (w := self.wall_of(e)) is not None]

    @cached_property
    def host_medians(self) -> dict[str, float]:
        """Median wall per host — the per-host normalisation baseline
        (cross-host clocks are not comparable; their ratios to each
        host's own median are)."""
        walls: dict[str, list[float]] = {}
        for e in self.entries:
            w = self.wall_of(e)
            if w is not None:
                walls.setdefault(e.get("host", "?"), []).append(w)
        return {h: float(np.median(v)) for h, v in walls.items()}

    def normalized_wall(self, entry: dict) -> float | None:
        """Entry wall over its host's median wall (dimensionless)."""
        w = self.wall_of(entry)
        base = self.host_medians.get(entry.get("host", "?"))
        if w is None or not base:
            return None
        return w / base

    @cached_property
    def latest_trace(self) -> dict | None:
        """The newest entry carrying a traced-pass breakdown."""
        for e in reversed(self.entries):
            trc = e.get("trace")
            if isinstance(trc, dict) and trc.get("stage_totals"):
                return e
        return None


def load_trajectory(path: Path | str, *,
                    family: str | None = None) -> Trajectory:
    """Parse + validate one trajectory file into a :class:`Trajectory`.

    ``family`` is normally derived from the top-level ``schema`` key;
    pass it explicitly for files whose top-level key is missing or
    unparsable (the entries' own ``bench`` keys are tried as a
    fallback before giving up).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read trajectory {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"trajectory {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise SchemaError(
            f"trajectory {path} is not a {{schema, entries: [...]}} object")
    if family is None:
        family = schema_family(doc.get("schema", ""))
    if family is None:
        for entry in doc["entries"]:
            if isinstance(entry, dict) and entry.get("bench") in SCHEMA_FAMILIES:
                family = entry["bench"]
                break
    if family not in SCHEMA_FAMILIES:
        raise SchemaError(
            f"cannot determine trajectory family of {path} "
            f"(top-level schema: {doc.get('schema')!r})")
    traj = Trajectory(path, doc, family)
    traj.entries  # force migration now: loading validates every entry
    return traj


# ---------------------------------------------------------------------------
# trend / changepoint detection
# ---------------------------------------------------------------------------

class Changepoint:
    """A single mean-shift split of a series (all costs least-squares)."""

    __slots__ = ("index", "pre_mean", "post_mean", "gain")

    def __init__(self, index: int, pre_mean: float, post_mean: float,
                 gain: float):
        self.index = index          #: first index of the post segment
        self.pre_mean = pre_mean
        self.post_mean = post_mean
        self.gain = gain            #: fraction of variance explained

    @property
    def shift(self) -> float:
        """post/pre mean ratio (> 1 means the series got slower)."""
        return self.post_mean / max(1e-12, self.pre_mean)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Changepoint(index={self.index}, "
                f"pre={self.pre_mean:.4f}, post={self.post_mean:.4f}, "
                f"shift={self.shift:.2f}x, gain={self.gain:.2f})")


def detect_changepoint(series, *, min_segment: int = 2,
                       min_gain: float = _MIN_GAIN) -> Changepoint | None:
    """Best single mean-shift changepoint of ``series``, or ``None``.

    Scans every split leaving at least ``min_segment`` points on each
    side and keeps the one minimising the summed within-segment squared
    error.  The split only counts when it explains at least
    ``min_gain`` of the total variance — a flat-but-noisy series has
    no changepoint, it has noise.
    """
    x = np.asarray(list(series), dtype=np.float64)
    n = x.size
    if n < 2 * min_segment:
        return None
    total = float(((x - x.mean()) ** 2).sum())
    best_i, best_cost = None, total
    for i in range(min_segment, n - min_segment + 1):
        a, b = x[:i], x[i:]
        cost = float(((a - a.mean()) ** 2).sum()
                     + ((b - b.mean()) ** 2).sum())
        if cost < best_cost:
            best_i, best_cost = i, cost
    if best_i is None or total <= 0.0:
        return None
    gain = 1.0 - best_cost / total
    if gain < min_gain:
        return None
    return Changepoint(best_i, float(x[:best_i].mean()),
                       float(x[best_i:].mean()), gain)


def _check_trend(traj: Trajectory, record: dict, *, slack: float,
                 label: str) -> str:
    """Shared trend gate: changepoint over the file's same-host
    same-shape series *extended by the fresh record*; fail when the
    recent segment is a sustained slowdown the fresh record belongs to.
    The fresh record is not in the file yet: ``runner --smoke`` writes
    it only once every gate has passed."""
    host = record.get("host")
    shape = traj.shape_of(migrate_entry(record, traj.family))
    fresh = traj.wall_of(record)
    if fresh is None:
        return f"{label} trend check skipped: record has no wall"
    series = traj.series(host, shape) + [fresh]
    if len(series) < 4:
        return (f"{label} trend check skipped: only {len(series)} "
                f"same-host entries at this shape")
    cp = detect_changepoint(series)
    if (cp is not None and cp.index <= len(series) - 1
            and cp.post_mean > slack * max(cp.pre_mean, _NOISE_FLOOR_S)):
        raise SystemExit(
            f"TREND REGRESSION: {label} wall shifted from "
            f"{cp.pre_mean:.3f} s to {cp.post_mean:.3f} s "
            f"({cp.shift:.2f}x, {cp.gain:.0%} of variance) over the "
            f"last {len(series) - cp.index} same-shape entries of "
            f"{traj.path.name} — a sustained slowdown, not one noisy run")
    if cp is not None:
        return (f"{label} trend check ok: changepoint at entry "
                f"{cp.index + 1}/{len(series)} ({cp.shift:.2f}x) within "
                f"slack over {len(series)} entries")
    return (f"{label} trend check ok: no changepoint over "
            f"{len(series)} same-shape entries")


def check_fastpath_trend(record: dict, path: Path | str, *,
                         slack: float = TREND_SLACK) -> str:
    """Trend-gate a fresh fast-path record against its whole series."""
    try:
        traj = load_trajectory(path, family="fastpath_walltime")
    except SchemaError as exc:
        return f"fastpath trend check skipped: {exc}"
    return _check_trend(traj, record, slack=slack, label="fastpath")


def check_dist_trend(record: dict, path: Path | str, *,
                     slack: float = TREND_SLACK) -> str:
    """Trend-gate a fresh dist record against its whole series."""
    try:
        traj = load_trajectory(path, family="dist_scaling")
    except SchemaError as exc:
        return f"dist trend check skipped: {exc}"
    return _check_trend(traj, record, slack=slack, label="dist")


# ---------------------------------------------------------------------------
# report rendering (docs/perf.md)
# ---------------------------------------------------------------------------

#: human labels of the traced stages, in report order: the fast-path
#: engine pass first, then the coordinator-side dist stages
_FASTPATH_STAGES = (
    ("gemm", "distance GEMM"),
    ("assign_chunk", "chunk assignment (incl. GEMM)"),
    ("update_feed", "centroid-update feed"),
    ("bounds_refresh", "bound maintenance"),
    ("iteration", "full iteration"),
)
_DIST_STAGES = (
    ("broadcast", "centroid broadcast"),
    ("compute", "worker compute (assign)"),
    ("gather", "partial gather"),
    ("merge", "partial merge"),
    ("update", "centroid update"),
    ("abft_check", "ABFT checksum verify"),
    ("checkpoint", "checkpoint save"),
    ("recovery", "crash recovery (restore + replan)"),
)


def _fmt(value, digits=3) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def _trajectory_section(traj: Trajectory | None, title: str,
                        error: str | None) -> list[str]:
    lines = [f"## {title}", ""]
    if traj is None:
        lines += [f"_unavailable: {error}_", ""]
        return lines
    versions = ", ".join(f"v{v}" for v in traj.versions) or "none"
    lines += [
        f"`{traj.path.name}` — {len(traj.entries)} entries "
        f"(schema {versions}; newest `{traj.newest_schema}`), "
        f"hosts: {', '.join(traj.hosts) or '—'}.",
        "",
        "| # | host | schema | wall (s) | × host median |",
        "|---:|---|---|---:|---:|",
    ]
    for i, e in enumerate(traj.entries):
        lines.append(
            f"| {i + 1} | {e.get('host', '?')} | v{e['schema_version']} "
            f"| {_fmt(traj.wall_of(e))} "
            f"| {_fmt(traj.normalized_wall(e), 2)} |")
    lines.append("")
    # per-host, per-shape trend verdicts over every series long enough
    # to segment
    seen: set[tuple] = set()
    for e in traj.entries:
        key = (e.get("host"), traj.shape_of(e))
        if key in seen:
            continue
        seen.add(key)
        series = traj.series(*key)
        if len(series) < 4:
            continue
        cp = detect_changepoint(series)
        if cp is None:
            lines.append(f"- host `{key[0]}`: no changepoint over "
                         f"{len(series)} same-shape entries "
                         f"(mean {_fmt(float(np.mean(series)))} s)")
        else:
            lines.append(
                f"- host `{key[0]}`: mean shift "
                f"{_fmt(cp.pre_mean)} s → {_fmt(cp.post_mean)} s "
                f"({cp.shift:.2f}x) at entry {cp.index + 1} of the "
                f"{len(series)}-entry same-shape series")
    if lines[-1] != "":
        lines.append("")
    return lines


def _stage_section(traj: Trajectory | None, stages, title: str) -> list[str]:
    lines = [f"## {title}", ""]
    entry = traj.latest_trace if traj is not None else None
    if entry is None:
        lines += ["_no traced entry in the trajectory yet — run "
                  "`python -m repro.bench.runner --smoke`_", ""]
        return lines
    trc = entry["trace"]
    totals = trc["stage_totals"]
    fit_wall = totals.get("fit", {}).get("wall_s", trc.get("wall_s"))
    lines += [
        f"From the traced re-run of entry {traj.entries.index(entry) + 1} "
        f"(`{entry['schema']}`, host `{entry.get('host', '?')}`): "
        f"{trc['spans']} spans, wall {_fmt(trc.get('wall_s'))} s, "
        f"bit-identical to the untraced run: "
        f"{trc.get('bit_identical_vs_untraced', '?')}.",
        "",
        "| stage | wall (s) | share of fit | spans |",
        "|---|---:|---:|---:|",
    ]
    for key, label in stages:
        tot = totals.get(key)
        if tot is None:
            continue
        share = (tot["wall_s"] / fit_wall) if fit_wall else None
        pct = "—" if share is None else f"{share:.1%}"
        lines.append(f"| {label} (`{key}`) | {_fmt(tot['wall_s'])} "
                     f"| {pct} | {tot['count']} |")
    extra = sorted(k for k in totals
                   if k not in dict(stages) and k != "fit")
    for key in extra:
        tot = totals[key]
        share = (tot["wall_s"] / fit_wall) if fit_wall else None
        pct = "—" if share is None else f"{share:.1%}"
        lines.append(f"| `{key}` | {_fmt(tot['wall_s'])} | {pct} "
                     f"| {tot['count']} |")
    lines.append("")
    return lines


def render_perf_report(fastpath_path: Path | str = "BENCH_fastpath.json",
                       dist_path: Path | str = "BENCH_dist.json") -> str:
    """Render ``docs/perf.md`` from the trajectory files.

    Deterministic: the text depends only on the two files' contents
    (no generation timestamps), so staleness is a plain string diff.
    """
    sections: dict[str, tuple[Trajectory | None, str | None]] = {}
    for name, path, family in (
            ("fastpath", fastpath_path, "fastpath_walltime"),
            ("dist", dist_path, "dist_scaling")):
        try:
            sections[name] = (load_trajectory(path, family=family), None)
        except SchemaError as exc:
            sections[name] = (None, str(exc))
    fast, fast_err = sections["fastpath"]
    dist, dist_err = sections["dist"]

    lines = [
        "# Performance report",
        "",
        "_Generated from `BENCH_fastpath.json` / `BENCH_dist.json` by_",
        "_`python -m repro.bench.runner --smoke` — do not edit by hand;_",
        "_the smoke run fails when this file lags the trajectory files._",
        "",
        "See [observability.md](observability.md) for the span taxonomy",
        "behind the stage tables and how the traced re-runs are kept",
        "bit-identical to the measured ones.",
        "",
    ]
    lines += _trajectory_section(
        fast, "Fast-path trajectory (fused engine wall)", fast_err)
    lines += _stage_section(
        fast, _FASTPATH_STAGES, "Fast-path per-stage breakdown")
    lines += _trajectory_section(
        dist, "Distributed trajectory (clean recovery-shape wall)",
        dist_err)
    lines += _stage_section(
        dist, _DIST_STAGES, "Coordinator per-stage breakdown "
        "(traced crash-recovery fit)")
    return "\n".join(lines).rstrip() + "\n"


def write_perf_report(report_path: Path | str = DEFAULT_REPORT_PATH,
                      fastpath_path: Path | str = "BENCH_fastpath.json",
                      dist_path: Path | str = "BENCH_dist.json") -> Path:
    """Render and write the report; returns the path written."""
    report_path = Path(report_path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(render_perf_report(fastpath_path, dist_path))
    return report_path


def report_is_stale(report_path: Path | str = DEFAULT_REPORT_PATH,
                    fastpath_path: Path | str = "BENCH_fastpath.json",
                    dist_path: Path | str = "BENCH_dist.json") -> bool:
    """True when the committed report does not match the committed
    trajectory files (or does not exist while they do)."""
    report_path = Path(report_path)
    rendered = render_perf_report(fastpath_path, dist_path)
    try:
        return report_path.read_text() != rendered
    except OSError:
        return True
