"""Async comparison service: the layer that turns the batch kernel into
an interactive system.

Architecture note
-----------------
Everything below this package answers *one* ``compare_pairs`` call as
fast as one executor can; everything in this package is about answering
*many concurrent* calls from one warm executor:

* :mod:`repro.service.core` — :class:`ComparisonService`: warm backend
  pool (warm multiprocess workers included), bounded admission
  queue with per-request timeout/cancellation, and the micro-batching
  coalescer (bounded by ``ServiceConfig.max_batch_pairs``);
* :mod:`repro.service.protocol` — the JSON-lines wire format (WKT
  polygons in, area arrays out);
* :mod:`repro.service.server` — ``repro serve``: the protocol over
  asyncio TCP or stdio, graceful drain on shutdown;
* :mod:`repro.service.client` — a small blocking client for scripts,
  smoke tests, and CI.

Service metrics (queue depth, batch occupancy, latency quantiles) live
with the other measurement code in :mod:`repro.metrics.service`.  The
planned distributed-sharding backend (ROADMAP) slots in *behind* this
queue: the service's admission and coalescing layer is transport-
agnostic, it only sees the :class:`repro.backends.Backend` protocol.
"""

from repro.service.client import ServiceClient
from repro.service.core import ComparisonService, ServiceConfig
from repro.service.server import serve

__all__ = ["ComparisonService", "ServiceConfig", "ServiceClient", "serve"]
