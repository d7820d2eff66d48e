"""Structured event log shared by nodes and connectors.

Events carry no wall-clock timestamps so that a run under a fixed seed
produces an identical log; ordering comes from a global sequence number.
An event is a named tuple, built on every packet. `NULL_LOG`, the log of
every component built without one, keeps nothing.
"""

from __future__ import annotations

import threading
from typing import NamedTuple


class Event(NamedTuple):
    seq: int
    component: str
    kind: str
    detail: dict


class EventLog:
    def __init__(self):
        self._events: list[Event] = []
        self._lock = threading.Lock()
        self._seq = 0

    def emit(self, component: str, kind: str, **detail) -> None:
        with self._lock:
            self._events.append(Event(self._seq, component, kind, detail))
            self._seq += 1

    def events(self, kind: str | None = None) -> list[Event]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def to_json(self) -> list[dict]:
        return [
            {"seq": e.seq, "component": e.component, "kind": e.kind, **e.detail}
            for e in self.events()
        ]


class _NullLog(EventLog):
    """A log that keeps nothing: `emit` drops the event."""

    def emit(self, component: str, kind: str, **detail) -> None:
        pass


NULL_LOG = _NullLog()
