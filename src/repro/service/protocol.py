"""JSON-lines wire protocol of ``repro serve``.

One request per line, one response per line, UTF-8 JSON — consumable
from any language with a socket and a JSON parser, no web framework
required.  Polygons travel as WKT ``POLYGON`` literals (the format the
paper's toolchains already exchange, see :mod:`repro.geometry.wkt`).

Request shape::

    {"id": 7, "op": "compare", "pairs": [[wkt_p, wkt_q], ...],
     "config": {"block_size": 64}, "timeout": 5.0}
    {"id": 8, "op": "ping" | "stats" | "cache_clear" | "shutdown"}

Response shape::

    {"id": 7, "ok": true, "intersection": [...], "union": [...],
     "area_p": [...], "area_q": [...], "jaccard": [...]}
    {"id": 8, "ok": false, "kind": "overloaded", "error": "..."}

``stats`` answers the service's
:class:`~repro.metrics.service.ServiceSnapshot` as a plain dict; there is
no separate metrics op: ``repro stats --prometheus`` renders that reply
with :func:`repro.obs.export.render_snapshot`, the function the
``/metrics`` HTTP endpoint serves.

``kind`` classifies failures so clients can retry sensibly:
``bad-request`` (malformed input — do not retry), ``overloaded``
(admission control — retry with backoff), ``timeout``, ``closed``
(service shutting down), ``internal``.

This module owns the framing (encode/parse/validate, payload and error
rendering); the server decodes each ``compare`` body into the shared
declarative spec via :func:`repro.api.request.request_from_wire`, so
wire requests, CLI flags, and library calls all build the identical
:class:`~repro.api.request.CompareRequest`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.geometry.wkt import polygon_to_wkt
from repro.pixelbox.kernel import BatchAreas

__all__ = [
    "OPS",
    "encode",
    "parse_request",
    "validate_request",
    "decode_request",
    "pairs_to_wire",
    "compare_payload",
    "error_payload",
]

OPS = ("compare", "ping", "stats", "cache_clear", "shutdown")


def encode(message: dict[str, Any]) -> bytes:
    """One wire line for ``message`` (compact JSON + newline)."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def parse_request(line: bytes | str) -> dict[str, Any]:
    """JSON-parse one request line (no field validation yet).

    Split from :func:`validate_request` so the server can recover the
    request ``id`` for the error response even when the request body is
    invalid.
    """
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed JSON request: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError("request must be a JSON object")
    return message


def validate_request(message: dict[str, Any]) -> dict[str, Any]:
    """Check a parsed request's op and required fields."""
    op = message.get("op")
    if op not in OPS:
        raise ServiceError(f"unknown op {op!r} (expected one of {OPS})")
    if op == "compare":
        if not isinstance(message.get("pairs"), list):
            raise ServiceError("compare request needs a 'pairs' list")
        timeout = message.get("timeout")
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or timeout <= 0
        ):
            raise ServiceError(
                f"'timeout' must be a positive number, got {timeout!r}"
            )
    return message


def decode_request(line: bytes | str) -> dict[str, Any]:
    """Parse and validate one request line."""
    return validate_request(parse_request(line))


def pairs_to_wire(pairs: list) -> list[list[str]]:
    """Polygon pair list -> WKT pair list (client side)."""
    return [[polygon_to_wkt(p), polygon_to_wkt(q)] for p, q in pairs]


def compare_payload(areas: BatchAreas) -> dict[str, Any]:
    """Response payload for one answered compare request."""
    return {
        "intersection": areas.intersection.tolist(),
        "union": areas.union.tolist(),
        "area_p": areas.area_p.tolist(),
        "area_q": areas.area_q.tolist(),
        "jaccard": areas.ratios().tolist(),
    }


def error_payload(exc: BaseException) -> dict[str, Any]:
    """Failure classification for the wire (see module docstring)."""
    if isinstance(exc, ServiceOverloadedError):
        kind = "overloaded"
    elif isinstance(exc, ServiceClosedError):
        kind = "closed"
    elif isinstance(exc, asyncio.TimeoutError):
        kind = "timeout"
    elif isinstance(exc, ReproError):
        kind = "bad-request"
    else:
        kind = "internal"
    return {"ok": False, "kind": kind, "error": str(exc) or type(exc).__name__}
