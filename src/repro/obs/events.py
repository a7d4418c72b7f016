"""Process-wide structured event log: ring buffer + optional JSONL sink.

Lifecycle events (admission, coalesce, shard dispatch / re-dispatch,
speculation, cache hit/miss, worker backoff) and finished span
records all land here as flat dicts.  The in-memory ring keeps the last
few thousand events for post-mortem inspection (``repro stats``,
tests); when a request asks for a trace file
(``CompareOptions(trace_out=...)`` / ``repro compare --trace-out``) the
same rows are appended to a JSON-lines sink.

Emission is guarded the same way tracing is: ``EVENTS.record(...)``
costs one deque append under a lock, and the hot kernel path never
calls it — only control-plane code (service dispatcher, cluster
scheduler, the front-door cache) does.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, IO, Iterable

__all__ = ["EventLog", "EVENTS"]

_RING_SIZE = 4096


class EventLog:
    """Thread-safe ring of structured events with an optional sink."""

    def __init__(self, ring_size: int = _RING_SIZE) -> None:
        self._ring: deque[dict[str, Any]] = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self._sinks: list[IO[str]] = []

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; ``kind`` names the lifecycle moment."""
        event = {"ts": time.time(), "kind": kind, **fields}
        with self._lock:
            self._ring.append(event)
            for sink in self._sinks:
                try:
                    sink.write(json.dumps(event, sort_keys=True) + "\n")
                except (OSError, ValueError):
                    pass

    def extend(self, events: Iterable[dict[str, Any]]) -> None:
        """Append pre-built rows (e.g. span records) verbatim."""
        with self._lock:
            for event in events:
                self._ring.append(event)
                for sink in self._sinks:
                    try:
                        sink.write(json.dumps(event, sort_keys=True) + "\n")
                    except (OSError, ValueError):
                        pass

    def add_sink(self, fh: IO[str]) -> None:
        with self._lock:
            self._sinks.append(fh)

    def remove_sink(self, fh: IO[str]) -> None:
        with self._lock:
            try:
                self._sinks.remove(fh)
            except ValueError:
                pass

    def tail(self, n: int = 100, kind: str | None = None) -> list[dict[str, Any]]:
        """The most recent ``n`` events (optionally filtered by kind)."""
        with self._lock:
            rows = list(self._ring)
        if kind is not None:
            rows = [r for r in rows if r.get("kind") == kind]
        return rows[-n:]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


#: The process-wide log every tier records into.
EVENTS = EventLog()
