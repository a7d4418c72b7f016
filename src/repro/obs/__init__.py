"""Zero-dependency observability: tracing, the stage clock, events, export.

Four pieces, each usable alone:

* :mod:`repro.obs.trace` — request-scoped tracing.  A :class:`Tracer`
  produces nested spans with monotonic timings; :func:`span` opens one
  under the ambient tracer and returns a shared no-op when tracing is
  off (one ``ContextVar.get``, no allocation), and
  :func:`context_thread` carries the ambient tracer onto worker threads.
* :mod:`repro.obs.clock` — :class:`StageClock`, the one per-stage
  busy-time accumulator (pipeline stages, SDBMS components); its
  ``measure()`` is also the stage's span, so the Table 1 / Fig. 2
  decompositions and ``repro trace show`` read the same intervals.
* :mod:`repro.obs.events` — a process-wide structured :class:`EventLog`
  (ring buffer + optional JSON-lines sink) for lifecycle events and
  finished span records.
* :mod:`repro.obs.export` — one renderer from a live
  :class:`~repro.metrics.service.ServiceSnapshot` (service, cache,
  kernel and worker counters) to Prometheus text exposition format, plus
  the ``/metrics`` HTTP endpoint behind ``repro serve --metrics``;
  :mod:`repro.obs.metrics` holds the :class:`Histogram` it and
  ``ServiceMetrics`` share.
"""

from repro.obs.clock import StageClock
from repro.obs.events import EVENTS, EventLog
from repro.obs.export import MetricsServer, render_snapshot, snapshot_families
from repro.obs.metrics import Histogram
from repro.obs.render import load_trace_file, render_spans, render_trace_file
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    activate,
    context_thread,
    current_context,
    current_tracer,
    span,
)

__all__ = [
    "EVENTS",
    "EventLog",
    "MetricsServer",
    "render_snapshot",
    "snapshot_families",
    "Histogram",
    "StageClock",
    "load_trace_file",
    "render_spans",
    "render_trace_file",
    "SpanRecord",
    "Tracer",
    "activate",
    "context_thread",
    "current_context",
    "current_tracer",
    "span",
]
