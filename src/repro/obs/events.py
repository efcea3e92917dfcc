"""Ordered, subscribable structured events for the distributed stack.

:class:`EventBus` is the subscription surface of the distributed
stack: the fleet manager publishes membership events, the coordinator
publishes recovery / restore / re-expand events, the checkpoint store
publishes save / flush events, and the heartbeat path publishes
liveness events — all through one bus with a
**total order** (a monotonically increasing ``seq`` stamped under the
publisher lock) and a bounded replayable history.

Events are plain :class:`Event` records: a ``kind`` string, a
``source`` subsystem tag (``fleet`` / ``coordinator`` / ``checkpoint``),
the order stamp, and a flat ``fields`` dict of scalars.  Subscribers
are called synchronously in subscription order on the publishing
thread; a subscriber that raises propagates to the publisher (a
failing subscriber fails the fit loudly rather than dropping events
silently).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Event", "EventBus"]


@dataclass(frozen=True)
class Event:
    """One structured event on the bus."""

    kind: str
    source: str
    seq: int
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "source": self.source,
                "seq": self.seq, **self.fields}


class EventBus:
    """Ordered pub/sub with bounded replayable history.

    Parameters
    ----------
    max_history:
        Events kept for :attr:`history` replay; oldest dropped first.
    """

    def __init__(self, *, max_history: int = 10_000):
        self._subscribers: list = []
        self._history: deque[Event] = deque(maxlen=int(max_history))
        self._lock = threading.Lock()
        self._seq = 0

    # -- pub/sub ------------------------------------------------------

    def subscribe(self, callback) -> object:
        """Register ``callback(event: Event)``; returns an unsubscribe token."""
        with self._lock:
            self._subscribers.append(callback)
        return callback

    def unsubscribe(self, token) -> None:
        with self._lock:
            try:
                self._subscribers.remove(token)
            except ValueError:
                pass

    def publish(self, kind: str, source: str = "", **fields) -> Event:
        """Stamp, record, and deliver one event; returns it."""
        with self._lock:
            self._seq += 1
            event = Event(kind=kind, source=source, seq=self._seq,
                          fields=fields)
            self._history.append(event)
            subscribers = list(self._subscribers)
        for cb in subscribers:
            cb(event)
        return event

    # -- inspection / export ------------------------------------------

    @property
    def history(self) -> list:
        """Published events, oldest first (copy)."""
        with self._lock:
            return list(self._history)

    def __len__(self) -> int:
        return len(self._history)

    def to_jsonl(self) -> str:
        """Serialise the retained history as JSON lines."""
        return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n"
                       for e in self.history)
