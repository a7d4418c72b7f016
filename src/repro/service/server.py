"""The ``repro serve`` front-end: JSON-lines over TCP or stdio.

No web framework — ``asyncio.start_server`` plus the line protocol in
:mod:`repro.service.protocol` is enough for an interactive comparison
service.  Each connection may pipeline requests: every received line is
handled in its own task, so concurrent requests from one *or many*
connections reach :class:`~repro.service.core.ComparisonService`
together and coalesce into merged dispatches.

Shutdown is graceful by construction: a ``shutdown`` op (or closing
stdin in stdio mode) stops the listener, then the service drains every
accepted request before the warm backend is released.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
from typing import Any, Callable

from repro.api.request import request_from_wire
from repro.errors import RequestError
from repro.obs.export import MetricsServer, render_snapshot
from repro.service import protocol
from repro.service.core import ComparisonService, ServiceConfig

__all__ = ["serve"]

# Longest request line a connection accepts, in bytes (asyncio's stream
# default, made explicit so the rejection can name it).
_LINE_LIMIT = 2**16


async def _answer(
    service: ComparisonService,
    message: dict[str, Any],
    shutdown: asyncio.Event,
) -> dict[str, Any]:
    """Compute the response body for one decoded request."""
    op = message["op"]
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {"ok": True, "stats": service.snapshot().as_dict()}
    if op == "metrics":
        return {"ok": True, "metrics": render_snapshot(service.snapshot())}
    if op == "cache_clear":
        service.clear_caches()
        return {"ok": True, "cleared": True}
    if op == "shutdown":
        shutdown.set()
        return {"ok": True, "stopping": True}
    # Each compare line parses into the same declarative CompareRequest
    # the CLI and the library build; the service's own CompareOptions
    # are the base the per-request config overlays.
    request = request_from_wire(message, service.config.options)
    kwargs: dict[str, Any] = {}
    if "timeout" in message:
        kwargs["timeout"] = message["timeout"]
    areas = await service.submit(
        list(request.pairs), request.launch_config(), **kwargs
    )
    return {"ok": True, **protocol.compare_payload(areas)}


async def _handle_line(
    service: ComparisonService,
    line: bytes,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
    shutdown: asyncio.Event,
) -> None:
    """Decode, serve, and answer one request line."""
    request_id = None
    try:
        message = protocol.parse_request(line)
        request_id = message.get("id")
        response = await _answer(
            service, protocol.validate_request(message), shutdown
        )
    except Exception as exc:  # noqa: BLE001 - every failure goes on the wire
        response = protocol.error_payload(exc)
    response["id"] = request_id
    await _send(response, writer, write_lock)


async def _send(
    response: dict[str, Any],
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
) -> None:
    async with write_lock:
        writer.write(protocol.encode(response))
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass


async def _connection(
    service: ComparisonService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    shutdown: asyncio.Event,
) -> None:
    """Serve one connection; each line becomes a concurrent task.

    The read loop races ``readline`` against the shutdown event instead
    of relying on task cancellation, so a shutdown leaves every
    connection to flush its in-flight responses and close its writer
    normally — no cancelled-task noise at loop teardown.
    """
    write_lock = asyncio.Lock()
    pending: set[asyncio.Task] = set()
    stop = asyncio.ensure_future(shutdown.wait())
    try:
        while not shutdown.is_set():
            read = asyncio.ensure_future(reader.readline())
            done, _ = await asyncio.wait(
                {read, stop}, return_when=asyncio.FIRST_COMPLETED
            )
            if read not in done:
                read.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await read
                break
            try:
                line = read.result()
            except ValueError:
                # The line outgrew the stream limit and asyncio dropped
                # what it had buffered: the framing is lost, so answer
                # once and close this connection.
                oversize = RequestError(
                    f"request line exceeds the {_LINE_LIMIT}-byte limit"
                )
                await _send(
                    {**protocol.error_payload(oversize), "id": None},
                    writer,
                    write_lock,
                )
                break
            if not line:
                break
            task = asyncio.ensure_future(
                _handle_line(service, line, writer, write_lock, shutdown)
            )
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        stop.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await stop
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass


async def _stdio_streams() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Asyncio stream pair over this process's stdin/stdout."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=_LINE_LIMIT)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, proto = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, proto, reader, loop)
    return reader, writer


async def serve(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    stdio: bool = False,
    announce: Callable[[str], None] | None = None,
    metrics: bool = False,
    metrics_host: str = "127.0.0.1",
    metrics_port: int = 0,
) -> None:
    """Run the comparison service until shutdown; returns after draining.

    TCP mode announces ``repro-serve ready HOST PORT`` (via ``announce``,
    default stdout) once the socket is bound — with ``port=0`` the
    kernel-assigned port is what's announced, which is how the smoke
    tests find the server.  Stdio mode serves one JSON-lines session on
    stdin/stdout and exits when stdin closes.

    ``metrics=True`` additionally binds a plain-HTTP ``/metrics``
    endpoint (stdlib ``http.server``, Prometheus text exposition) and
    announces it as ``repro-serve metrics HOST PORT`` right after the
    ready line.  The endpoint renders a fresh service snapshot per
    scrape and shuts down with the service.
    """
    announce = announce or (lambda text: print(text, flush=True))
    shutdown = asyncio.Event()
    async with ComparisonService(config) as service:
        exporter: MetricsServer | None = None
        if metrics:
            exporter = MetricsServer(
                lambda: render_snapshot(service.snapshot()),
                host=metrics_host,
                port=metrics_port,
            )
            exporter.start()
        try:
            await _serve_streams(
                service, host, port, stdio, announce, shutdown, exporter
            )
        finally:
            if exporter is not None:
                exporter.close()


async def _serve_streams(
    service: ComparisonService,
    host: str,
    port: int,
    stdio: bool,
    announce: Callable[[str], None],
    shutdown: asyncio.Event,
    exporter: MetricsServer | None,
) -> None:
    """The listener half of :func:`serve` (split for the metrics wrap)."""

    def announce_metrics() -> None:
        if exporter is not None:
            mhost, mport = exporter.address
            announce(f"repro-serve metrics {mhost} {mport}")

    if stdio:
        reader, writer = await _stdio_streams()
        announce("repro-serve ready stdio")
        announce_metrics()
        await _connection(service, reader, writer, shutdown)
        return
    connections: set[asyncio.Task] = set()

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            await _connection(service, reader, writer, shutdown)
        finally:
            connections.discard(task)

    server = await asyncio.start_server(
        on_connection, host, port, limit=_LINE_LIMIT
    )
    bound_port = server.sockets[0].getsockname()[1]
    announce(f"repro-serve ready {host} {bound_port}")
    announce_metrics()
    async with server:
        await shutdown.wait()
    if connections:
        # Every handler saw the shutdown event (its read loop races
        # it); wait for them to flush and close before draining.
        await asyncio.gather(*connections, return_exceptions=True)
    # Leaving the `async with service` block drains every accepted
    # request, then releases the warm backend.
