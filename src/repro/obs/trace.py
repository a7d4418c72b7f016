"""Request-scoped tracing: nested spans with monotonic timings.

The paper's argument is built on a stage-level cost breakdown (Fig. 2
profiles parsing / indexing / comparison before a line of GPU code is
justified).  This module gives the reproduction the same lens, live: a
:class:`Tracer` collects nested :class:`SpanRecord` rows for one request,
from ``Session.run`` down to the remote worker's kernel, and the records
stitch into a single tree keyed by one trace id.

Design constraints, in order:

1. **Zero overhead when off.**  Hot paths guard on
   :func:`current_tracer`, a single ``ContextVar.get`` that returns
   ``None`` without allocating.  No span object is ever created unless a
   tracer is active.
2. **Cross-process stitching.**  A trace context is two hex strings
   (trace id + parent span id).  The cluster coordinator ships them in
   the ``RUN_SHARD`` JSON header; the worker seeds a local tracer with
   them and returns its finished records in the ``SHARD_RESULT`` header,
   which the coordinator adopts.  Parent links then resolve across the
   process boundary.
3. **Stdlib only.**  ``time.monotonic`` for durations, ``time.time``
   for wall anchors, ``os.urandom`` for ids.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator, Mapping

__all__ = [
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "current_context",
    "activate",
    "span",
    "context_thread",
]


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


@dataclass(slots=True)
class SpanRecord:
    """One finished span: a named stage with monotonic timing.

    ``start`` is a wall-clock anchor (``time.time``) so spans from
    different processes order sensibly; ``duration`` comes from
    ``time.monotonic`` deltas and is the number to trust.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    duration: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            row["attrs"] = dict(self.attrs)
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=str(row["trace_id"]),
            span_id=str(row["span_id"]),
            parent_id=row.get("parent_id"),
            name=str(row["name"]),
            start=float(row["start"]),
            duration=float(row["duration"]),
            attrs=dict(row.get("attrs") or {}),
        )


class _ActiveSpan:
    """Bookkeeping for a span that is currently open (not a record yet)."""

    __slots__ = ("span_id", "name", "attrs", "_t0", "_wall")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.span_id = _new_id()
        self.name = name
        self.attrs = attrs
        self._wall = time.time()
        self._t0 = time.monotonic()

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the open span (e.g. result sizes)."""
        self.attrs.update(attrs)


# The active (tracer, parent span id) pair for the current task/thread.
# ``None`` is the permanent fast path: ContextVar.get with a default is a
# dict lookup, no allocation, no lock.
_CURRENT: ContextVar[tuple["Tracer", str | None] | None] = ContextVar(
    "repro_obs_trace", default=None
)


def current_tracer() -> "Tracer | None":
    """The active tracer, or ``None`` (the zero-cost off path)."""
    ctx = _CURRENT.get()
    return ctx[0] if ctx is not None else None


def current_context() -> tuple[str, str | None] | None:
    """``(trace_id, parent_span_id)`` for wire propagation, or ``None``."""
    ctx = _CURRENT.get()
    if ctx is None:
        return None
    return (ctx[0].trace_id, ctx[1])


@contextmanager
def activate(tracer: "Tracer", parent_id: str | None = None) -> Iterator[None]:
    """Make ``tracer`` the ambient tracer for the enclosed block.

    Used at request entry (``Session.run``) and on the worker side to
    re-establish a context received over the wire.
    """
    token = _CURRENT.set((tracer, parent_id))
    try:
        yield
    finally:
        _CURRENT.reset(token)


class _NoSpan:
    """What :func:`span` returns with no tracer ambient: one shared,
    stateless context manager, so the off path allocates no span."""

    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        pass


_NO_SPAN = _NoSpan()


def span(name: str, **attrs: Any) -> ContextManager[Any]:
    """A span under the ambient tracer, or the shared no-op without one."""
    ctx = _CURRENT.get()
    if ctx is None:
        return _NO_SPAN
    return ctx[0].span(name, **attrs)


def context_thread(
    target: Callable[..., Any], *args: Any, name: str | None = None
) -> threading.Thread:
    """An unstarted daemon thread that runs ``target(*args)`` in a copy of
    the creator's context.

    A plain ``threading.Thread`` starts with an empty context, so spans
    opened on it would lose the request's tracer and parent; every thread
    that does traced work on behalf of a request is made here.
    """
    return threading.Thread(
        target=copy_context().run, args=(target, *args), name=name, daemon=True
    )


class Tracer:
    """Collects the span records of one trace.

    Thread-safe: the service dispatcher and cluster scheduler finish
    spans from executor threads.  Records are append-only; ``records()``
    returns a snapshot.
    """

    __slots__ = ("trace_id", "_records", "_lock")

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or _new_id()
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_ActiveSpan]:
        """Open a nested span; it becomes the parent for the block."""
        ctx = _CURRENT.get()
        parent = ctx[1] if ctx is not None and ctx[0] is self else None
        active = _ActiveSpan(name, dict(attrs))
        token = _CURRENT.set((self, active.span_id))
        try:
            yield active
        finally:
            _CURRENT.reset(token)
            self._finish(active, parent)

    def _finish(self, active: _ActiveSpan, parent: str | None) -> None:
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=active.span_id,
            parent_id=parent,
            name=active.name,
            start=active._wall,
            duration=time.monotonic() - active._t0,
            attrs=active.attrs,
        )
        with self._lock:
            self._records.append(record)

    def adopt(self, rows: list[Mapping[str, Any]]) -> None:
        """Merge finished records from another process (same trace id)."""
        parsed = [SpanRecord.from_dict(r) for r in rows]
        with self._lock:
            self._records.extend(parsed)

    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    def as_dicts(self) -> list[dict[str, Any]]:
        return [r.as_dict() for r in self.records()]
