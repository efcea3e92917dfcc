"""Unified observability layer: trace spans, metrics, events.

Zero-dependency (stdlib-only) subsystem threaded through the engine,
the coordinator, the fleet, and the checkpoint store:

- :class:`~repro.obs.trace.TraceRecorder` — bounded nested wall-clock
  spans (off by default; numerics-neutral when on).
- :class:`~repro.obs.metrics.MetricsRegistry` — typed counters /
  gauges / histograms unifying ``PerfCounters``, ``EngineStats`` and
  the ``dist_*`` result fields, with snapshot/delta and JSONL export.
- :class:`~repro.obs.events.EventBus` — ordered, subscribable
  structured events of the distributed stack.

See ``docs/observability.md`` for the span taxonomy, the metric table
and the event schema.
"""

from repro.obs.events import Event, EventBus
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               dist_result_metric_names,
                               engine_stat_metric_names,
                               perf_counter_metric_names)
from repro.obs.trace import NULL_TRACER, Span, TraceRecorder, active_tracer

__all__ = [
    "Event", "EventBus",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "perf_counter_metric_names", "engine_stat_metric_names",
    "dist_result_metric_names",
    "NULL_TRACER", "Span", "TraceRecorder", "active_tracer",
]
