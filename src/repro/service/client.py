"""Blocking JSON-lines client for ``repro serve``.

A deliberately small synchronous client — the smoke tests, the CI
service job, and driver scripts need "connect, compare, read arrays"
without an event loop.  One client holds one connection and keeps one
request in flight at a time; to exercise the server's request
coalescing, run several clients concurrently (one per thread), which is
exactly what ``examples/service_smoke.py`` does.
"""

from __future__ import annotations

import json
import socket
from typing import Any

import numpy as np

from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import protocol

__all__ = ["ServiceClient"]

_KIND_ERRORS: dict[str, type[Exception]] = {
    "overloaded": ServiceOverloadedError,
    "closed": ServiceClosedError,
    "timeout": TimeoutError,
}


class ServiceClient:
    """One blocking connection to a running comparison server."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------------
    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        self._next_id += 1
        request = {"id": self._next_id, "op": op, **fields}
        self._file.write(protocol.encode(request))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("server closed the connection")
        response = json.loads(line)
        if response.get("id") != self._next_id:
            raise ServiceError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        if not response.get("ok"):
            error_cls = _KIND_ERRORS.get(response.get("kind"), ServiceError)
            raise error_cls(response.get("error", "unknown server error"))
        return response

    # ------------------------------------------------------------------
    def compare(
        self,
        pairs: list,
        config: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, np.ndarray]:
        """Exact areas for polygon ``pairs`` (as parallel NumPy arrays)."""
        fields: dict[str, Any] = {"pairs": protocol.pairs_to_wire(pairs)}
        if config is not None:
            fields["config"] = config
        if timeout is not None:
            fields["timeout"] = timeout
        response = self._call("compare", **fields)
        return {
            "intersection": np.asarray(response["intersection"], np.int64),
            "union": np.asarray(response["union"], np.int64),
            "area_p": np.asarray(response["area_p"], np.int64),
            "area_q": np.asarray(response["area_q"], np.int64),
            "jaccard": np.asarray(response["jaccard"], np.float64),
        }

    def ping(self) -> bool:
        return bool(self._call("ping").get("pong"))

    def stats(self) -> dict[str, Any]:
        """Service-metrics snapshot (see :mod:`repro.metrics.service`)."""
        return self._call("stats")["stats"]

    def cache_clear(self) -> bool:
        """Drop every cached result on the server."""
        return bool(self._call("cache_clear").get("cleared"))

    def shutdown(self) -> None:
        """Ask the server to stop accepting and drain; returns once acked."""
        self._call("shutdown")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
