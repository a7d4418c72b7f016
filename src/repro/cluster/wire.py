"""Length-prefixed binary wire protocol of the shard cluster.

The service front-end speaks JSON lines because humans and foreign
clients do; between the coordinator and its shard workers the traffic is
CSR edge tables and int64 area vectors, so the cluster speaks binary:

``frame := magic "RC" | version u8 | msgtype u8 | payload_len u32 | payload``
``payload := header_len u32 | header (UTF-8 JSON) | blob_0 | blob_1 | ...``

The JSON header carries the small structured fields (digests, shard
bounds, launch config, stats) plus a manifest describing each binary
blob — ``[name, dtype, shape, nbytes]`` in transmission order — so NumPy
arrays travel as raw bytes with zero re-encoding on either side.  A
sender hands each array's own memory to one gathered write (POSIX
``sendmsg``), and a receiver reads the payload into one buffer whose
arrays are views: a multi-MB table bundle is never copied to be framed.

Every read is defensive: a bad magic, an unknown version, an oversized
frame, a manifest that disagrees with the payload length — each raises
:class:`~repro.errors.ClusterProtocolError` instead of desynchronizing
the stream, so garbage from a confused client is classified as a clean
client error and the peer survives.

Table payloads are **content-addressed**: :func:`bundle_digest` hashes
the dtype/shape/bytes of every array, and that digest is the cache key
on the worker side — the reason the coordinator can ship the CSR tables
once per worker per table version instead of once per shard dispatch.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
from typing import Any

import numpy as np

from repro.errors import ClusterProtocolError
from repro.pixelbox.common import LAUNCH_FIELDS

__all__ = [
    "MsgType",
    "MAX_FRAME_BYTES",
    "FEATURE_TRACE",
    "bundle_digest",
    "send_frame",
    "recv_frame",
    "config_to_wire",
    "config_from_wire",
    "trace_to_wire",
    "trace_from_wire",
]

_MAGIC = b"RC"
_VERSION = 1
_HEADER_STRUCT = struct.Struct(">2sBBI")

# One frame carries at most this many payload bytes (a whole-slide tile
# pair's tables are a few MB; a GiB means a corrupt length field).
MAX_FRAME_BYTES = 1 << 30


class MsgType:
    """Frame type tags (u8 on the wire); the gaps are retired tags,
    rejected like any unknown one."""

    HELLO = 1
    HELLO_ACK = 2
    PUT_TABLES = 3
    TABLES_ACK = 4
    RUN_SHARD = 6
    SHARD_RESULT = 7
    STATS = 10
    STATS_REPLY = 11
    ERROR = 13

    ALL = frozenset({
        HELLO, HELLO_ACK, PUT_TABLES, TABLES_ACK, RUN_SHARD, SHARD_RESULT,
        STATS, STATS_REPLY, ERROR,
    })


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def bundle_digest(arrays: dict[str, np.ndarray]) -> str:
    """Content hash of an array bundle (the worker-side cache key).

    Covers names, dtypes, shapes, and raw bytes, so two requests with
    identical tables share one cache entry and any difference — even a
    config-induced start-box change — yields a new table version.
    """
    h = hashlib.sha256(b"repro-cluster-v1")
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.reshape(-1).view(np.uint8))
    return h.hexdigest()


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
# Buffers handed to one ``sendmsg`` call (below every platform's IOV_MAX).
_MAX_IOV = 512


def _frame_buffers(
    msgtype: int,
    header: dict[str, Any] | None,
    arrays: dict[str, np.ndarray] | None,
) -> list:
    """One frame as buffers: its header bytes, then each array's own
    memory (no joined payload, no copy of a contiguous array).

    Arrays go widest item first, so on a receiver that places the blob
    region 8-byte aligned every array is aligned to its own item size.
    """
    header = dict(header or {})
    named = [(name, np.ascontiguousarray(arr)) for name, arr in (arrays or {}).items()]
    named.sort(key=lambda item: -item[1].dtype.itemsize)
    header["arrays"] = [
        [name, arr.dtype.str, list(arr.shape), arr.nbytes] for name, arr in named
    ]
    head = json.dumps(header, separators=(",", ":")).encode()
    length = 4 + len(head) + sum(arr.nbytes for _, arr in named)
    if length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    prefix = _HEADER_STRUCT.pack(_MAGIC, _VERSION, msgtype, length)
    buffers = [prefix + struct.pack(">I", len(head)) + head]
    buffers += [arr.reshape(-1).view(np.uint8) for _, arr in named if arr.nbytes]
    return buffers


def _decode(head: bytes, blobs: np.ndarray) -> tuple[dict, dict[str, np.ndarray]]:
    """Header JSON + the blob region -> ``(header, arrays)``; each array
    is a view into ``blobs``."""
    try:
        header = json.loads(head)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterProtocolError(f"unparseable frame header: {exc}") from None
    if not isinstance(header, dict):
        raise ClusterProtocolError("frame header must be a JSON object")
    manifest = header.pop("arrays", [])
    if not isinstance(manifest, list):
        raise ClusterProtocolError("frame manifest must be a list")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest:
        try:
            name, dtype, shape, nbytes = entry
            shape = tuple(int(s) for s in shape)
            nbytes = int(nbytes)
        except (TypeError, ValueError) as exc:
            raise ClusterProtocolError(
                f"malformed manifest entry {entry!r}: {exc}"
            ) from None
        if nbytes < 0 or offset + nbytes > len(blobs):
            raise ClusterProtocolError("manifest blob overruns payload")
        try:
            dt = np.dtype(dtype)
            count = int(np.prod(shape, dtype=np.int64))
            if dt.hasobject or dt.itemsize * count != nbytes:
                raise ValueError(
                    f"dtype/shape disagree with {nbytes} blob bytes"
                )
            arrays[name] = np.frombuffer(
                blobs, dtype=dt, count=count, offset=offset
            ).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ClusterProtocolError(
                f"undecodable blob {name!r}: {exc}"
            ) from None
        offset += nbytes
    return header, arrays


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the socket or raise ``ConnectionError`` on EOF."""
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed mid-frame")
        view = view[got:]


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    _recv_into(sock, memoryview(buf := bytearray(n)))
    return bytes(buf)


def send_frame(
    sock: socket.socket,
    msgtype: int,
    header: dict[str, Any] | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> int:
    """Send one frame by gathered writes; returns the bytes transmitted."""
    views = [memoryview(buf) for buf in _frame_buffers(msgtype, header, arrays)]
    total = sum(len(view) for view in views)
    while views:
        sent = sock.sendmsg(views[:_MAX_IOV])
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]
    return total


def recv_frame(
    sock: socket.socket,
) -> tuple[int, dict[str, Any], dict[str, np.ndarray]]:
    """Read one frame; returns ``(msgtype, header, arrays)``.

    The payload is read into one buffer, and the arrays are views into
    it.  Raises :class:`ClusterProtocolError` for anything that is not a
    well-formed frame and ``ConnectionError`` when the peer goes away.
    """
    head = _recv_exact(sock, _HEADER_STRUCT.size)
    magic, version, msgtype, length = _HEADER_STRUCT.unpack(head)
    if magic != _MAGIC:
        raise ClusterProtocolError(
            f"bad frame magic {magic!r} (not a repro-cluster peer?)"
        )
    if version != _VERSION:
        raise ClusterProtocolError(
            f"unsupported protocol version {version} (speaking {_VERSION})"
        )
    if msgtype not in MsgType.ALL:
        raise ClusterProtocolError(f"unknown message type {msgtype}")
    if length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    if length < 4:
        raise ClusterProtocolError("truncated frame payload")
    (head_len,) = struct.unpack(">I", _recv_exact(sock, 4))
    if 4 + head_len > length:
        raise ClusterProtocolError("frame header overruns payload")
    # Offset the buffer so that the blob region after the header starts
    # 8-byte aligned (NumPy allocations are at least 16-byte aligned).
    pad = -head_len % 8
    buf = np.empty(pad + length - 4, dtype=np.uint8)
    _recv_into(sock, memoryview(buf)[pad:])
    header, arrays = _decode(buf[pad : pad + head_len].tobytes(), buf[pad + head_len :])
    return msgtype, header, arrays


# ----------------------------------------------------------------------
# Launch-config transport
# ----------------------------------------------------------------------
def config_to_wire(config) -> dict[str, Any]:
    """``LaunchConfig`` -> JSON-safe dict for the RUN_SHARD header."""
    return {f: getattr(config, f) for f in LAUNCH_FIELDS}


# ----------------------------------------------------------------------
# Trace-context transport (version-gated by capability advertisement)
# ----------------------------------------------------------------------
# Workers that understand trace propagation list this token in their
# HELLO_ACK ``features``; the coordinator only attaches a ``trace``
# header key (and only expects ``spans`` back) when the worker
# advertised it.  Old peers in either direction read headers with
# ``.get()`` and simply never see the extra keys — interop is free.
FEATURE_TRACE = "trace"


def trace_to_wire(trace_id: str, parent_id: str | None) -> dict[str, Any]:
    """A trace context as the RUN_SHARD header's ``trace`` value."""
    out: dict[str, Any] = {"id": trace_id}
    if parent_id is not None:
        out["parent"] = parent_id
    return out


def trace_from_wire(raw: Any) -> tuple[str, str | None] | None:
    """``trace`` header value -> ``(trace_id, parent_id)`` or ``None``.

    Malformed values are dropped, not fatal: tracing is observability,
    never worth failing a shard over.
    """
    if not isinstance(raw, dict):
        return None
    trace_id = raw.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    parent = raw.get("parent")
    if parent is not None and not isinstance(parent, str):
        parent = None
    return (trace_id, parent)


def config_from_wire(raw: dict[str, Any] | None):
    """RUN_SHARD header dict -> ``LaunchConfig`` (validated)."""
    from repro.errors import ReproError
    from repro.pixelbox.common import LaunchConfig

    if raw is None:
        return LaunchConfig()
    if not isinstance(raw, dict) or set(raw) - set(LAUNCH_FIELDS):
        raise ClusterProtocolError(f"bad launch config on the wire: {raw!r}")
    try:
        return LaunchConfig(**raw)
    except (ReproError, TypeError) as exc:
        raise ClusterProtocolError(
            f"bad launch config on the wire: {exc}"
        ) from None
