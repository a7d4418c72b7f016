"""Async comparison service: the layer that turns the batch kernel into
an interactive system.

Architecture note
-----------------
A :class:`~repro.session.Session` answers *one* comparison as fast as
one warm executor can, through its one launch path (result cache,
collapse of identical pair lists, one launch at a time); everything in
this package is about answering *many concurrent* calls through one
session:

* :mod:`repro.service.core` — :class:`ComparisonService`: a queue in
  front of the session it owns (whose backend is warmed at startup):
  bounded admission with per-request timeout/cancellation, and the
  micro-batching coalescer (bounded by ``ServiceConfig.max_batch_pairs``);
* :mod:`repro.service.protocol` — the JSON-lines wire format (WKT
  polygons in, area arrays out);
* :mod:`repro.service.server` — ``repro serve``: the protocol over
  asyncio TCP or stdio, graceful drain on shutdown;
* :mod:`repro.service.client` — a small blocking client for scripts,
  smoke tests, and CI.

Service metrics (queue depth, batch occupancy, latency quantiles) live
with the other measurement code in :mod:`repro.metrics.service`.  Every
registered backend, the cluster included, slots in *behind* this queue:
the admission and coalescing layer only sees its session.
"""

from repro.service.client import ServiceClient
from repro.service.core import ComparisonService, ServiceConfig
from repro.service.server import serve

__all__ = ["ComparisonService", "ServiceConfig", "ServiceClient", "serve"]
