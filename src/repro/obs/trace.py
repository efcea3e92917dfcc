"""Bounded, low-overhead span tracer for the whole stack.

:class:`TraceRecorder` records **nested wall-clock spans** — the
coordinator's ``fit -> {broadcast, compute -> merge, recovery, round
-> {update, checkpoint}}`` tree and the engine's ``fit ->
iteration -> {assign_chunk, gemm, update_feed, bounds_refresh}`` tree —
into a bounded in-memory ring.  It is **off by default** everywhere:
every instrumentation site in the engine and the coordinator is gated
as ``tracer is not None and tracer.enabled``, so the disabled path
costs one attribute test and never calls into this module (the
overhead-neutrality tests in ``tests/obs`` assert exactly that with a
booby-trapped recorder).

Tracing never perturbs numerics: a span records *names and clocks
only* — no array is read, copied, or allocated on behalf of a span, so
every bit-identity suite passes unchanged with tracing enabled (also
asserted under hypothesis, including with SEU injection on).

Spans nest via an explicit per-recorder stack, so the recorder needs no
thread-local magic for the single-threaded coordinator/engine loops;
recording takes a lock, so a span recorded from another thread keeps
the ring consistent (ordering between threads is by completion, as with
any tracer).
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Span", "TraceRecorder", "NULL_TRACER", "active_tracer"]


@dataclass
class Span:
    """One completed timed region.

    Attributes
    ----------
    name:
        Stage name from the span taxonomy (``docs/observability.md``).
    t0, t1:
        perf_counter() timestamps at enter/exit.
    depth:
        Nesting depth at enter time (``fit`` is 0).
    parent:
        Name of the enclosing span ('' at the root).
    meta:
        Small scalar annotations (round index, chunk bounds, ...).
        Values are plain ints/floats/strings — never arrays.
    """

    name: str
    t0: float
    t1: float = 0.0
    depth: int = 0
    parent: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        d = {"name": self.name, "t0": self.t0, "t1": self.t1,
             "wall_s": self.wall_s, "depth": self.depth,
             "parent": self.parent}
        if self.meta:
            d["meta"] = dict(self.meta)
        return d


class _SpanHandle:
    """Context manager returned by :meth:`TraceRecorder.span`."""

    __slots__ = ("_rec", "_span")

    def __init__(self, rec: "TraceRecorder", span: Span):
        self._rec = rec
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._rec._finish(self._span)
        return None


class _NullHandle:
    """No-op handle for a disabled recorder (still usable as a span)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


_NULL_HANDLE = _NullHandle()


class TraceRecorder:
    """Bounded recorder of nested wall-clock spans.

    Parameters
    ----------
    enabled:
        Master switch.  Instrumentation sites check this flag (through
        the module-level idiom ``tracer is not None and
        tracer.enabled``) before doing anything else, so a disabled
        recorder — or no recorder at all — costs nothing per iteration.
    max_spans:
        Ring capacity; the oldest completed spans are dropped first.
        Bounded so a long fit can run with tracing on without the
        trace growing without limit.
    clock:
        Timestamp source (injectable for deterministic tests).
    sink:
        Optional streaming JSONL destination.  A path (str/PathLike) is
        opened lazily on the first completed span; a file-like object is
        written to directly and never closed by the recorder.  Each span
        is appended as one JSON line *as it closes* (inside
        :meth:`_finish` / :meth:`instant`) and flushed, so a trace
        survives a crash mid-fit and a tail of the file follows the run
        live — unlike the post-hoc :meth:`to_jsonl` export, which only
        sees spans still in the bounded ring.
    """

    def __init__(self, enabled: bool = True, *, max_spans: int = 100_000,
                 clock=time.perf_counter, sink=None):
        self.enabled = bool(enabled)
        self.max_spans = int(max_spans)
        self._clock = clock
        self._spans: deque[Span] = deque(maxlen=self.max_spans)
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self.dropped = 0
        self._sink = sink
        self._sink_fh = None
        self._owns_sink = False
        self.sink_spans = 0

    # -- recording ----------------------------------------------------

    def span(self, name: str, **meta):
        """Open a nested span; use as ``with tracer.span('gemm'): ...``.

        Returns a context manager.  When the recorder is disabled this
        returns a shared no-op handle without touching the clock.
        """
        if not self.enabled:
            return _NULL_HANDLE
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, t0=self._clock(),
                        depth=len(self._stack),
                        parent=parent.name if parent is not None else "",
                        meta=meta)
            self._stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        with self._lock:
            span.t1 = self._clock()
            # unwind to (and including) this span — robust to a worker
            # thread finishing out of stack order
            if span in self._stack:
                while self._stack:
                    top = self._stack.pop()
                    if top is span:
                        break
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)
            self._stream(span)

    def instant(self, name: str, **meta) -> None:
        """Record a zero-duration marker span."""
        if not self.enabled:
            return
        t = self._clock()
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = Span(
                name=name, t0=t, t1=t, depth=len(self._stack),
                parent=parent.name if parent is not None else "",
                meta=meta)
            self._spans.append(span)
            self._stream(span)

    # -- streaming sink -----------------------------------------------

    def _stream(self, span: Span) -> None:
        """Append one closed span to the sink (caller holds the lock)."""
        if self._sink is None:
            return
        if self._sink_fh is None:
            if hasattr(self._sink, "write"):
                self._sink_fh = self._sink
            else:
                self._sink_fh = open(self._sink, "a", encoding="utf-8")
                self._owns_sink = True
        self._sink_fh.write(json.dumps(span.to_dict(), sort_keys=True))
        self._sink_fh.write("\n")
        self._sink_fh.flush()
        self.sink_spans += 1

    def close_sink(self) -> None:
        """Flush and close a recorder-owned sink (no-op otherwise)."""
        with self._lock:
            fh = self._sink_fh
            self._sink_fh = None
            self._sink = None
            if fh is not None and self._owns_sink:
                fh.close()
            self._owns_sink = False

    # -- inspection ---------------------------------------------------

    @property
    def spans(self) -> list:
        """Completed spans, oldest first (copy)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._stack.clear()
            self.dropped = 0

    def stage_totals(self) -> dict:
        """Aggregate wall seconds and call counts per span name.

        Returns ``{name: {"wall_s": float, "count": int}}`` over all
        completed spans — the per-stage breakdown that feeds the bench
        records and ``docs/perf.md``.  Self-time is not subtracted;
        parent spans (``fit``, ``round``, ``iteration``) include their
        children, which the report renderer accounts for by grouping on
        depth.
        """
        totals: dict = {}
        for s in self.spans:
            agg = totals.setdefault(s.name, {"wall_s": 0.0, "count": 0})
            agg["wall_s"] += s.wall_s
            agg["count"] += 1
        return totals

    # -- export -------------------------------------------------------

    def to_jsonl(self, fh=None) -> str:
        """Serialise completed spans as JSON lines (one span per line)."""
        buf = fh if fh is not None else io.StringIO()
        for s in self.spans:
            buf.write(json.dumps(s.to_dict(), sort_keys=True))
            buf.write("\n")
        return "" if fh is not None else buf.getvalue()

    def to_chrome_trace(self, fh=None) -> str:
        """Serialise completed spans in Chrome trace-event JSON.

        The output loads directly into ``chrome://tracing`` / Perfetto:
        each span becomes one complete event (``"ph": "X"``) with
        microsecond ``ts``/``dur`` on the recorder's own clock origin,
        and its meta dict rides along as ``args``.  All spans land on
        one track (``pid``/``tid`` 0) — nesting is reconstructed by the
        viewer from timestamps, which is exactly how the recorder's
        depth field was derived in the first place.
        """
        events = []
        for s in self.spans:
            ev = {"ph": "X", "name": s.name, "ts": s.t0 * 1e6,
                  "dur": (s.t1 - s.t0) * 1e6, "pid": 0, "tid": 0}
            if s.meta:
                ev["args"] = dict(s.meta)
            events.append(ev)
        doc = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                         sort_keys=True)
        if fh is not None:
            fh.write(doc)
            return ""
        return doc


class _NullTracer:
    """Shared stand-in used when tracing is off.

    Instrumented code resolves its recorder once per pass through
    :func:`active_tracer`; when the caller passed no recorder — or a
    disabled one — the sites run against this object, whose ``span``
    returns a shared no-op handle without touching a clock.  The
    caller's *disabled* recorder is therefore never invoked at all
    (the overhead-neutrality tests booby-trap one to prove it).
    """

    enabled = False
    spans = ()

    def span(self, name: str, **meta):
        return _NULL_HANDLE

    def instant(self, name: str, **meta) -> None:
        return None

    def stage_totals(self) -> dict:
        return {}


NULL_TRACER = _NullTracer()


def active_tracer(tracer):
    """The gate idiom: ``tracer`` when enabled, else the shared null.

    Every instrumented subsystem calls this once at pass entry, so the
    per-span cost with tracing off is a no-op method call and nothing
    else — no clock read, no allocation, no lock.
    """
    if tracer is not None and tracer.enabled:
        return tracer
    return NULL_TRACER
