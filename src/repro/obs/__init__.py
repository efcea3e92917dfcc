"""Unified observability layer: trace spans and events.

Zero-dependency (stdlib-only) subsystem threaded through the engine,
the coordinator, the fleet, and the checkpoint store:

- :class:`~repro.obs.trace.TraceRecorder` — bounded nested wall-clock
  spans (off by default; numerics-neutral when on).
- :class:`~repro.obs.events.EventBus` — ordered, subscribable
  structured events of the distributed stack.

Fit counters live on the estimator itself (``counters_`` and the
``dist_*_`` attributes).  See ``docs/observability.md`` for the span
taxonomy, the counter surfaces and the event schema.
"""

from repro.obs.events import Event, EventBus
from repro.obs.trace import NULL_TRACER, Span, TraceRecorder, active_tracer

__all__ = [
    "Event", "EventBus",
    "NULL_TRACER", "Span", "TraceRecorder", "active_tracer",
]
