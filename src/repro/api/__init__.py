"""High-level SCCG API: one declarative request spec behind every door.

The library's front door is session-centric:

* :class:`repro.session.Session` (re-exported here) owns one warm
  executor and serves every comparison shape — explicit pairs, two
  polygon sets, two on-disk result directories (a per-tile loop over
  the same set comparison), incremental streams, async submission;
* :class:`CompareOptions` is the single typed, serializable record of
  every knob (backend + options, cluster hosts, kernel launch
  parameters, cache, tracing) with one set of defaults;
* :class:`CompareRequest` is the declarative spec the CLI
  (``repro compare``), the service wire protocol (``repro serve``), and
  the library all parse into — identical spec, identical results;
* :func:`explain` resolves a request into its execution plan (chosen
  backend, shard sizing, capability report) without executing it.

For serving many concurrent requests from one warm executor with
admission control and request coalescing, the async
:class:`ComparisonService` (re-exported from :mod:`repro.service`)
remains the entry point.
"""

from __future__ import annotations

from repro.api.options import DEFAULT_OPTIONS, CompareOptions
from repro.api.plan import ResolvedPlan, explain
from repro.api.request import (
    CompareRequest,
    request_from_cli,
    request_from_wire,
)
from repro.api.result import CompareResult, PairOutcome
from repro.session import Session

__all__ = [
    "Session",
    "CompareOptions",
    "DEFAULT_OPTIONS",
    "CompareRequest",
    "CompareResult",
    "PairOutcome",
    "ResolvedPlan",
    "explain",
    "request_from_cli",
    "request_from_wire",
    "ComparisonService",
    "ServiceConfig",
]

_SERVICE_NAMES = {"ComparisonService", "ServiceConfig"}


def __getattr__(name: str):
    """Load the service layer lazily.

    The service imports the backend and kernel packages eagerly;
    deferring keeps ``import repro.api`` cheap — and breaks the import
    cycle with :mod:`repro.service.server`, which parses wire requests
    through :func:`repro.api.request.request_from_wire`.
    """
    if name in _SERVICE_NAMES:
        from repro.service import core

        return getattr(core, name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
