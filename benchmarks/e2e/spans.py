"""In-memory span recorder for the benchmark's outside-in trace.

Spans are opened by benchmark code around calls into the program's
layers; nothing here is imported by ``src/``.  Records stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Recorder:
    """Collects spans of one trace: name, start, end, causing span."""

    def __init__(self, trace_id: str, first_id: int = 1, root_parent: int | None = None):
        self.trace_id = trace_id
        self.records: list[dict] = []
        self._ids = itertools.count(first_id)
        self._root_parent = root_parent
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record one span; nests under the thread's open span.

        ``parent`` names the causing span for the first span a thread
        opens (a client thread started by a repetition span).
        """
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        elif parent is None:
            parent = self._root_parent
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "trace": self.trace_id,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                **attrs,
            }
            with self._lock:
                self.records.append(record)


class Off:
    """The untraced path: ``span()`` costs one attribute lookup."""

    records: list[dict] = []

    @staticmethod
    def span(name: str, parent: int | None = None, **attrs):
        return _NULL


def self_times(records: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover.

    Children of one span never overlap here except the client threads of
    a service round, whose parent is a repetition span that does no work
    of its own; its self time is clamped at zero.
    """
    covered: dict[int, float] = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            covered[r["parent"]] += r["end"] - r["start"]
    out: dict[str, float] = defaultdict(float)
    for r in records:
        out[r["name"]] += max(0.0, r["end"] - r["start"] - covered[r["id"]])
    return dict(out)


def write_jsonl(path, records: list[dict]) -> None:
    """One span per line, in start order."""
    with open(path, "w", encoding="utf-8") as handle:
        for r in sorted(records, key=lambda r: r["start"]):
            handle.write(json.dumps(r) + "\n")
