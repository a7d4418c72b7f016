"""The shard worker: ``ChunkKernel.run_shard`` served over TCP.

A worker is deliberately dumb: it owns no scheduling policy, no pair
routing, no union algebra.  The same loop serves a remote host
(``repro worker``) and each local worker process a backend without hosts
starts (:mod:`repro.cluster.local`).  Its whole contract is:

* **table cache** — ``PUT_TABLES`` installs a content-addressed array
  bundle (the CSR edge tables, start boxes, and routing mask of one
  request) under its digest; an LRU bound caps resident bundles, and a
  ``RUN_SHARD`` naming an evicted digest answers ``missing-tables`` so
  the coordinator re-sends instead of failing the request;
* **shard execution** — ``RUN_SHARD`` attaches the cached bundle and
  calls :meth:`repro.pixelbox.kernel.ChunkKernel.run_shard` under
  :data:`~repro.pixelbox.kernel.BATCH_POLICY` over ``[lo, hi)``,
  returning the intersection slice plus the work counters.  No other
  kernel entry point or policy exists here, so a remote shard is
  bit-for-bit one of the local backends' shards.

Each accepted connection is served by one thread, frames handled
sequentially per connection (the coordinator pipelines across workers,
not within one).  Protocol garbage answers with an ``ERROR`` frame when
a reply is still possible and always closes that connection — the
stream is out of sync — while the worker itself keeps serving everyone
else.
"""

from __future__ import annotations

import socket
import threading
from collections import OrderedDict

import numpy as np

from repro.cluster import wire
from repro.errors import ClusterProtocolError, KernelError, ReproError
from repro.obs.trace import Tracer, activate
from repro.pixelbox import native
from repro.pixelbox.common import KernelStats
from repro.pixelbox.kernel import BATCH_POLICY, ChunkKernel, ShardInput

__all__ = ["ShardWorker"]


class ShardWorker:
    """One cluster worker: table cache + ``run_shard`` over TCP.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    max_tables:
        LRU bound on resident table bundles.  Each bundle is one
        request's tables; a coordinator re-sends on ``missing-tables``,
        so eviction costs bandwidth, never correctness.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_tables: int = 8,
    ):
        if max_tables < 1:
            raise ReproError(f"max_tables must be >= 1, got {max_tables}")
        self.host = host
        self.max_tables = max_tables
        self._tables: OrderedDict[str, ShardInput] = OrderedDict()
        self._lock = threading.Lock()
        # One shard at a time: a copy the coordinator cancelled still
        # finishes its kernel here, and the next shard waits for it
        # rather than share the GIL and hold a second kernel's memory.
        self._run_lock = threading.Lock()
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        # Observability counters (asserted by the protocol tests).
        self.tables_received = 0
        self.tables_evicted = 0
        self.shards_run = 0
        self.protocol_errors = 0
        self._requested_port = port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid once listening)."""
        if self._listener is None:
            raise ReproError("worker is not listening yet")
        return self._listener.getsockname()[:2]

    def _bind(self) -> None:
        if self._listener is not None:
            return
        # Build the compiled leaf pixelizer before listening, so a first
        # compile belongs to start-up and not to the first shard.
        native.load()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(32)
        # Closing a listener does not wake a blocked accept() on Linux;
        # a short accept timeout lets the serve loop poll the stop flag
        # (accepted connections are blocking regardless).
        listener.settimeout(0.25)
        self._listener = listener

    def start(self) -> "ShardWorker":
        """Serve in a daemon thread; returns self."""
        self._bind()
        self._thread = threading.Thread(
            target=self._serve_loop, name="repro-worker", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI path)."""
        self._bind()
        self._serve_loop()

    def stop(self) -> None:
        """Stop accepting, close the listener, and unblock the accept loop."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
            self._thread = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                conn, _addr = listener.accept()
            except TimeoutError:
                continue
            except OSError:  # listener closed by stop()
                return
            conn.settimeout(None)  # connections block; only accept polls
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ] + [thread]

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    msgtype, header, arrays = wire.recv_frame(conn)
                except ClusterProtocolError as exc:
                    # Garbage: answer cleanly if the socket still writes,
                    # then drop the connection — framing is unrecoverable.
                    with self._lock:
                        self.protocol_errors += 1
                    try:
                        wire.send_frame(
                            conn,
                            wire.MsgType.ERROR,
                            {"kind": "bad-request", "error": str(exc)},
                        )
                    except OSError:
                        pass
                    return
                except (ConnectionError, OSError):
                    return
                if not self._handle(conn, msgtype, header, arrays):
                    return
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handle(
        self,
        conn: socket.socket,
        msgtype: int,
        header: dict,
        arrays: dict[str, np.ndarray],
    ) -> bool:
        """Answer one frame; returns False to close the connection."""
        try:
            if msgtype == wire.MsgType.HELLO:
                wire.send_frame(
                    conn,
                    wire.MsgType.HELLO_ACK,
                    {
                        "version": 1,
                        "cached": self._cached_digests(),
                        # Capability advertisement: the coordinator only
                        # sends a trace context (and expects spans back)
                        # when this worker lists the feature.  Old
                        # coordinators ignore the key.
                        "features": [wire.FEATURE_TRACE],
                    },
                )
            elif msgtype == wire.MsgType.STATS:
                wire.send_frame(
                    conn, wire.MsgType.STATS_REPLY, {"stats": self.stats()}
                )
            elif msgtype == wire.MsgType.PUT_TABLES:
                self._put_tables(header, arrays)
                wire.send_frame(
                    conn,
                    wire.MsgType.TABLES_ACK,
                    {"digest": header.get("digest"), "cached": True},
                )
            elif msgtype == wire.MsgType.RUN_SHARD:
                self._run_shard(conn, header)
            else:
                raise ClusterProtocolError(
                    f"message type {msgtype} is not valid for a worker"
                )
        except (ClusterProtocolError, ReproError) as exc:
            with self._lock:
                self.protocol_errors += 1
            try:
                wire.send_frame(
                    conn,
                    wire.MsgType.ERROR,
                    {"kind": "bad-request", "error": str(exc)},
                )
            except OSError:
                return False
        except (ConnectionError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Table cache
    # ------------------------------------------------------------------
    def _cached_digests(self) -> list[str]:
        with self._lock:
            return list(self._tables)

    def _put_tables(self, header: dict, arrays: dict[str, np.ndarray]) -> None:
        digest = header.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ClusterProtocolError("PUT_TABLES needs a 'digest'")
        try:
            shard = ShardInput.from_arrays(arrays)
        except KernelError as exc:
            raise ClusterProtocolError(f"PUT_TABLES: {exc}") from None
        with self._lock:
            self._tables[digest] = shard
            self._tables.move_to_end(digest)
            self.tables_received += 1
            while len(self._tables) > self.max_tables:
                self._tables.popitem(last=False)
                self.tables_evicted += 1

    # ------------------------------------------------------------------
    # Shard execution
    # ------------------------------------------------------------------
    def _before_shard(self, header: dict) -> None:
        """Fault-injection hook for tests; production no-op."""

    def _run_shard(self, conn: socket.socket, header: dict) -> None:
        digest = header.get("digest")
        with self._lock:
            bundle = self._tables.get(digest)
            if bundle is not None:
                self._tables.move_to_end(digest)
        if bundle is None:
            wire.send_frame(
                conn,
                wire.MsgType.ERROR,
                {
                    "kind": "missing-tables",
                    "error": f"no cached tables for digest {digest!r}",
                    "digest": digest,
                },
            )
            return
        try:
            lo, hi = int(header["lo"]), int(header["hi"])
        except (KeyError, TypeError, ValueError):
            raise ClusterProtocolError(
                "RUN_SHARD needs integer 'lo' and 'hi'"
            ) from None
        n = len(bundle)
        if not 0 <= lo <= hi <= n:
            raise ClusterProtocolError(
                f"shard [{lo}, {hi}) out of range for {n} pairs"
            )
        cfg = wire.config_from_wire(header.get("config"))
        self._before_shard(header)
        # Trace context shipped by a feature-aware coordinator: run the
        # shard under a local tracer seeded with the remote trace id and
        # return the finished span records in the reply header, where
        # the coordinator adopts them into one stitched tree.
        trace_ctx = wire.trace_from_wire(header.get("trace"))
        if trace_ctx is not None:
            trace_id, parent = trace_ctx
            tracer = Tracer(trace_id)
            with activate(tracer, parent):
                with tracer.span("worker.run_shard", lo=lo, hi=hi):
                    inter, stats_dict = self._execute_shard(bundle, lo, hi, cfg)
        else:
            tracer = None
            inter, stats_dict = self._execute_shard(bundle, lo, hi, cfg)
        reply = {
            "task": header.get("task"),
            "lo": lo,
            "hi": hi,
            "stats": stats_dict,
        }
        if tracer is not None:
            reply["spans"] = tracer.as_dicts()
        wire.send_frame(conn, wire.MsgType.SHARD_RESULT, reply, {"inter": inter})

    def _execute_shard(
        self, bundle: ShardInput, lo: int, hi: int, cfg
    ) -> tuple[np.ndarray, dict]:
        """Run one shard through the kernel (a worker never memoizes)."""
        stats = KernelStats()
        with self._run_lock:
            inter, _ = ChunkKernel(BATCH_POLICY, cfg).run_shard(
                bundle, lo, hi, stats
            )
        with self._lock:
            self.shards_run += 1
        return inter, stats.as_dict()

    def stats(self) -> dict:
        """Observability counters (also served over ``STATS``)."""
        with self._lock:
            cached = len(self._tables)
        return {
            "cached_tables": cached,
            "tables_received": self.tables_received,
            "tables_evicted": self.tables_evicted,
            "shards_run": self.shards_run,
            "protocol_errors": self.protocol_errors,
        }
