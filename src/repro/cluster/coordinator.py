"""The cluster coordinator: one more ``Backend``, shards served remotely.

``ClusterBackend`` generalizes the multiprocess backend's
scatter-gather to workers behind sockets.  The division of labor is
identical — route pairs, build the CSR edge tables once, scatter
contiguous shard index ranges, gather intersection slices, derive
unions — only the transport changes:

* tables travel over the binary wire protocol **once per worker per
  table version** (content-addressed by :func:`repro.cluster.wire.bundle_digest`,
  cached worker-side, re-sent only after eviction);
* shards are driven by :class:`repro.cluster.scheduler.ShardScheduler`,
  which owns straggler speculation, worker failure re-dispatch, and the
  deterministic first-result-wins merge;
* shard size comes from the sizing policy
  (:func:`repro.backends.sizing.recommend_shard_pairs`), so transport overhead
  stays amortized exactly the way process spin-up is for the local pool;
* the coordinator routes pairs and every worker runs shards under
  :data:`~repro.pixelbox.kernel.BATCH_POLICY`, the policy every executor
  runs, so a cluster result is bit-for-bit the ``batch`` backend's, work
  counters included.

With no hosts configured the backend self-hosts a loopback cluster
(worker threads behind real sockets on 127.0.0.1), so
``get_backend("cluster")`` works anywhere — including the registry-
introspecting parity harness — without multi-host infrastructure.
Degraded modes degrade further, never wrong: a dead worker's shards are
re-dispatched, and when every worker is gone the coordinator runs the
remaining shards in-process through the same
:meth:`~repro.pixelbox.kernel.ChunkKernel.run_shard` entry point.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    Pairs,
)
from repro.backends.sizing import profile_pairs, recommend_shard_pairs
from repro.cluster import wire
from repro.cluster.scheduler import (
    Shard,
    ShardOutcome,
    ShardScheduler,
)
from repro.errors import ClusterConfigError, ClusterError
from repro.obs.events import EVENTS
from repro.obs.trace import current_context, current_tracer, span
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import (
    BATCH_POLICY,
    BatchAreas,
    ChunkKernel,
    ShardInput,
)

__all__ = ["ClusterBackend", "WorkerClient", "parse_hosts"]

# Worker health backoff: after ``f`` consecutive failures a worker sits
# out ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(f-1))`` seconds.
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 30.0


def parse_hosts(hosts) -> list[tuple[str, int]]:
    """``"h1:p1,h2:p2"`` (or a list of such) -> validated address pairs."""
    if hosts is None:
        return []
    if isinstance(hosts, str):
        items = [h.strip() for h in hosts.split(",") if h.strip()]
    else:
        items = [str(h).strip() for h in hosts]
    parsed: list[tuple[str, int]] = []
    for item in items:
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise ClusterConfigError(
                f"worker address {item!r} is not 'host:port'"
            )
        try:
            port_num = int(port)
        except ValueError:
            raise ClusterConfigError(
                f"worker address {item!r} has a non-numeric port"
            ) from None
        if not 0 < port_num < 65536:
            raise ClusterConfigError(
                f"worker address {item!r} has an out-of-range port"
            )
        parsed.append((host, port_num))
    return parsed


class WorkerClient:
    """Coordinator-side handle for one worker: socket, cache view, health."""

    def __init__(
        self, host: str, port: int, connect_timeout: float, io_timeout: float
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        # Serializes whole request/response exchanges: a stale
        # speculative call that survived the abort sweep must drain its
        # exchange before the next request may touch the socket —
        # interleaved frames would desynchronize the stream.
        self._io_lock = threading.Lock()
        #: Digests this client believes are resident on the worker.
        self.pushed: set[str] = set()
        #: Capabilities the worker advertised in HELLO_ACK (trace
        #: propagation is only used when listed — old workers interop).
        self.features: set[str] = set()
        #: Actual table transmissions (the transfer counter the protocol
        #: tests assert: at most one per worker per table version).
        self.tables_sent = 0
        self.failures = 0
        self.down_until = 0.0
        self.inflight = False

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def available(self) -> bool:
        """Whether health backoff currently allows dispatching here."""
        return time.monotonic() >= self.down_until

    def note_failure(self) -> None:
        self.failures += 1
        delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** (self.failures - 1)))
        self.down_until = time.monotonic() + delay
        EVENTS.record(
            "worker.backoff",
            worker=str(self),
            failures=self.failures,
            delay=delay,
        )

    def note_success(self) -> None:
        self.failures = 0
        self.down_until = 0.0

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Ensure a live connection (HELLO handshake on fresh sockets)."""
        with self._lock:
            if self._sock is not None:
                return
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                sock.settimeout(self.io_timeout)
                wire.send_frame(sock, wire.MsgType.HELLO, {"version": 1})
                msgtype, header, _ = wire.recv_frame(sock)
            except (OSError, ClusterError) as exc:
                raise ClusterError(
                    f"cannot reach worker {self}: {exc}"
                ) from None
            if msgtype != wire.MsgType.HELLO_ACK:
                sock.close()
                raise ClusterError(
                    f"worker {self} answered HELLO with frame {msgtype}"
                )
            # The worker's cache survives our reconnects; trust its view.
            cached = header.get("cached", [])
            self.pushed = {d for d in cached if isinstance(d, str)}
            features = header.get("features", [])
            self.features = {
                f for f in features if isinstance(f, str)
            } if isinstance(features, list) else set()
            self._sock = sock

    def abort(self) -> None:
        """Hard-close the connection (unblocks a stale in-flight read)."""
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def close(self) -> None:
        self.abort()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _call(
        self, msgtype: int, header: dict, arrays: dict | None = None
    ) -> tuple[int, dict, dict]:
        """One request/response exchange; failures reset the socket."""
        # inflight covers the whole exchange *including* connect: the
        # coordinator's post-request abort sweep must see a speculative
        # call that is still handshaking, or its socket would leak into
        # the next request mid-exchange.
        self.inflight = True
        try:
            with self._io_lock:
                self.connect()
                sock = self._sock
                if sock is None:
                    raise ClusterError(f"worker {self} is not connected")
                try:
                    wire.send_frame(sock, msgtype, header, arrays)
                    return wire.recv_frame(sock)
                except (OSError, ConnectionError) as exc:
                    self.abort()
                    raise ClusterError(
                        f"worker {self} failed: {exc}"
                    ) from None
                except ClusterError:
                    self.abort()
                    raise
        finally:
            self.inflight = False

    def ensure_tables(self, digest: str, bundle: dict[str, np.ndarray]) -> None:
        """Make ``bundle`` resident on the worker, sending it at most once.

        A cheap ``HAS_TABLES`` probe resolves disagreements between this
        client's ``pushed`` view and the worker's actual cache (eviction,
        worker restart) without ever paying a redundant table transfer.
        """
        if digest in self.pushed:
            return
        msgtype, header, _ = self._call(
            wire.MsgType.HAS_TABLES, {"digest": digest}
        )
        if msgtype == wire.MsgType.TABLES_ACK and header.get("cached"):
            with self._lock:
                self.pushed.add(digest)
            return
        msgtype, header, _ = self._call(
            wire.MsgType.PUT_TABLES, {"digest": digest}, bundle
        )
        if msgtype != wire.MsgType.TABLES_ACK:
            raise ClusterError(
                f"worker {self} rejected tables: {header.get('error')}"
            )
        self.tables_sent += 1
        with self._lock:
            self.pushed.add(digest)

    def run_shard(
        self,
        digest: str,
        bundle: dict[str, np.ndarray],
        shard: Shard,
        config: LaunchConfig,
    ) -> ShardOutcome:
        """Execute one shard remotely (re-sending tables after eviction)."""
        header = {
            "digest": digest,
            "lo": shard.lo,
            "hi": shard.hi,
            "task": shard.index,
            "config": wire.config_to_wire(config),
        }
        # Trace propagation, gated on the worker's advertised features:
        # the ambient context (set by the scheduler's dispatch span)
        # crosses the wire as two ids; the worker's finished spans come
        # back in the reply and are adopted into the same tracer.
        ctx = current_context()
        if ctx is not None and wire.FEATURE_TRACE in self.features:
            header["trace"] = wire.trace_to_wire(ctx[0], ctx[1])
        for attempt in (0, 1):
            msgtype, reply, arrays = self._call(wire.MsgType.RUN_SHARD, header)
            if msgtype == wire.MsgType.SHARD_RESULT:
                inter = arrays.get("inter")
                if inter is None or len(inter) != shard.size:
                    raise ClusterError(
                        f"worker {self} returned a malformed shard result"
                    )
                spans = reply.get("spans")
                tracer = current_tracer()
                if spans and tracer is not None:
                    try:
                        tracer.adopt(spans)
                    except (KeyError, TypeError, ValueError):
                        pass  # malformed remote spans never fail a shard
                return ShardOutcome(
                    inter=inter.astype(np.int64, copy=False),
                    stats=KernelStats(**reply.get("stats", {})),
                )
            if (
                msgtype == wire.MsgType.ERROR
                and reply.get("kind") == "missing-tables"
                and attempt == 0
            ):
                # Evicted (or a fresh worker behind the same address):
                # re-send the bundle and retry once.
                with self._lock:
                    self.pushed.discard(digest)
                self.ensure_tables(digest, bundle)
                continue
            raise ClusterError(
                f"worker {self} failed shard [{shard.lo}, {shard.hi}): "
                f"{reply.get('error', f'frame {msgtype}')}"
            )
        raise ClusterError(f"worker {self} kept missing tables")  # pragma: no cover

    def stats(self) -> dict:
        """The worker's observability counters (``STATS`` round-trip)."""
        msgtype, header, _ = self._call(wire.MsgType.STATS, {})
        if msgtype != wire.MsgType.STATS_REPLY:
            raise ClusterError(
                f"worker {self} answered STATS with frame {msgtype}"
            )
        stats = header.get("stats")
        return stats if isinstance(stats, dict) else {}


class ClusterBackend(BackendLifecycle):
    """Shard dispatch to remote ``repro worker`` processes.

    Registered as ``"cluster"`` via :mod:`repro.backends.cluster`.

    Parameters
    ----------
    hosts:
        Worker addresses (``"host:port"`` list or comma string).  Default
        comes from ``REPRO_CLUSTER_HOSTS``; with neither, the backend
        self-hosts a loopback cluster of ``loopback_workers`` local
        worker threads.
    min_pairs:
        Below this many pairs the request runs in-process (dispatch
        latency would dominate), identical to the multiprocess backend.
    shard_pairs:
        Pairs per shard; ``None`` asks the sizing policy per request.
    speculate:
        Enable straggler re-dispatch.
    """

    name = "cluster"
    description = "shards on remote workers over the binary wire protocol"

    def __init__(
        self,
        hosts=None,
        min_pairs: int = 256,
        shard_pairs: int | None = None,
        speculate: bool = True,
        speculation_delay: float = 0.2,
        loopback_workers: int | None = None,
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
    ):
        if hosts is None:
            hosts = os.environ.get("REPRO_CLUSTER_HOSTS") or None
        self._explicit_hosts = hosts is not None
        self._addresses = parse_hosts(hosts)
        if min_pairs < 1:
            raise ClusterConfigError(
                f"min_pairs must be >= 1, got {min_pairs}"
            )
        if shard_pairs is not None and shard_pairs < 1:
            raise ClusterConfigError(
                f"shard_pairs must be >= 1 or None, got {shard_pairs}"
            )
        if loopback_workers is not None and loopback_workers < 1:
            raise ClusterConfigError(
                f"loopback_workers must be >= 1, got {loopback_workers}"
            )
        self.min_pairs = min_pairs
        self.shard_pairs = shard_pairs
        self.speculate = speculate
        self.speculation_delay = speculation_delay
        self.loopback_workers = loopback_workers
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self._clients: list[WorkerClient] | None = None
        self._loopback = None
        self._lock = threading.Lock()
        # One remote dispatch at a time: scheduler threads own the worker
        # sockets for the duration of a request (the paper's exclusive
        # device contract).
        self._dispatch_lock = threading.Lock()
        #: Scheduler report of the most recent remote dispatch.
        self.last_report = None

    # ------------------------------------------------------------------
    # Capabilities / lifecycle
    # ------------------------------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        n = len(self._addresses) or (
            self.loopback_workers or _default_loopback_workers()
        )
        return BackendCapabilities(
            persistent_pooling=True,
            stateful_lifecycle=True,
            configurable_workers=True,
            max_workers=n,
            remote=self._explicit_hosts,
            notes="hosts via REPRO_CLUSTER_HOSTS or hosts=...; "
            "loopback workers when unset",
        )

    def _ensure_clients(self) -> list[WorkerClient]:
        with self._lock:
            if self._clients is None:
                addresses = self._addresses
                if not addresses:
                    from repro.cluster.loopback import LoopbackCluster

                    self._loopback = LoopbackCluster(
                        self.loopback_workers or _default_loopback_workers()
                    )
                    addresses = [w.address for w in self._loopback.workers]
                self._clients = [
                    WorkerClient(
                        host, port, self.connect_timeout, self.io_timeout
                    )
                    for host, port in addresses
                ]
            return self._clients

    def warm(self) -> list[str]:
        """Connect and handshake every reachable worker; returns addresses.

        With explicitly configured hosts, zero reachable workers is a
        hard :class:`~repro.errors.ClusterError` — the service calls this
        at startup, and a cluster that cannot serve anything should fail
        there, not on the first request.
        """
        alive: list[str] = []
        for client in self._ensure_clients():
            try:
                client.connect()
                alive.append(str(client))
            except ClusterError:
                client.note_failure()
        if not alive and self._explicit_hosts:
            raise ClusterError(
                "no cluster workers reachable at "
                + ",".join(str(c) for c in self._clients)
            )
        return alive

    def close(self) -> None:
        """Drop every connection and any owned loopback workers."""
        with self._lock:
            clients, self._clients = self._clients, None
            loopback, self._loopback = self._loopback, None
        for client in clients or []:
            client.close()
        if loopback is not None:
            loopback.close()

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker observability counters, keyed by address.

        Queries each connected worker over ``STATS`` — the counters the
        workers always kept (shards run, table churn)
        but the coordinator used to drop.  Workers in health backoff or
        failing the round-trip are skipped, never raised: stats must
        stay readable while a request is degrading.
        """
        with self._lock:
            clients = list(self._clients or [])
        out: dict[str, dict] = {}
        for client in clients:
            if not client.available():
                continue
            try:
                out[str(client)] = client.stats()
            except ClusterError:
                continue
        return out

    @property
    def table_transfers(self) -> int:
        """Total table bundles actually transmitted (all workers)."""
        with self._lock:
            clients = list(self._clients or [])
        return sum(c.tables_sent for c in clients)

    # ------------------------------------------------------------------
    # The backend contract
    # ------------------------------------------------------------------
    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        kernel = ChunkKernel(BATCH_POLICY, config)
        cfg = kernel.cfg
        n = len(pairs)
        stats = KernelStats()
        # Tracing: the scheduler starts its worker threads in a copy of
        # this thread's context, so the shard spans below (and, via the
        # wire context, the remote worker's) stitch under this request.
        with span("cluster.build_tables", pairs=n):
            tables = ShardInput.build(pairs, BATCH_POLICY, cfg)

        def local_run(shard: Shard) -> ShardOutcome:
            part = KernelStats()
            with span("cluster.local_shard", lo=shard.lo, hi=shard.hi):
                inter, _ = kernel.run_shard(tables, shard.lo, shard.hi, part)
            return ShardOutcome(inter=inter, stats=part)

        if n < self.min_pairs:
            outcome = local_run(Shard(0, 0, n))
            return tables.finalize(
                BATCH_POLICY, outcome.inter, None, outcome.stats
            )

        bundle = tables.to_arrays()
        digest = wire.bundle_digest(bundle)
        with self._dispatch_lock:
            clients = self._live_clients(digest, bundle)
            size = self._shard_size(pairs, cfg, workers=len(clients))
            shards = [
                Shard(index, lo, min(lo + size, n))
                for index, lo in enumerate(range(0, n, size))
            ]

            if not clients:
                inter = np.zeros(n, dtype=np.int64)
                for shard in shards:
                    outcome = local_run(shard)
                    inter[shard.lo : shard.hi] = outcome.inter
                    stats.merge(outcome.stats)
                return tables.finalize(BATCH_POLICY, inter, None, stats)

            def remote_run(client: WorkerClient, shard: Shard) -> ShardOutcome:
                with span(
                    "cluster.remote_shard",
                    worker=str(client),
                    lo=shard.lo,
                    hi=shard.hi,
                ):
                    try:
                        outcome = client.run_shard(digest, bundle, shard, cfg)
                    except ClusterError:
                        client.note_failure()
                        raise
                    client.note_success()
                    return outcome

            scheduler = ShardScheduler(
                remote_run,
                local_run,
                speculate=self.speculate,
                speculation_delay=self.speculation_delay,
            )
            outcomes, report = scheduler.execute(shards, clients)
            self.last_report = report
            # Stale speculative calls may still hold a socket; reset
            # those connections so the next request starts clean
            # (worker-side table caches survive reconnects).
            for client in clients:
                if client.inflight:
                    client.abort()

        inter = np.zeros(n, dtype=np.int64)
        for shard in shards:  # deterministic merge order
            outcome = outcomes[shard.index]
            inter[shard.lo : shard.hi] = outcome.inter
            stats.merge(outcome.stats)
        return tables.finalize(BATCH_POLICY, inter, None, stats)

    # ------------------------------------------------------------------
    def _live_clients(
        self, digest: str, bundle: dict[str, np.ndarray]
    ) -> list[WorkerClient]:
        """Connected workers with the tables resident (sent at most once).

        Probes and table pushes run concurrently (one thread per
        worker): the multi-MB PUT_TABLES of a new table version — and
        the connect timeout of a dead host — must cost one worker's
        latency, not the sum over the fleet.
        """
        candidates = [
            c for c in self._ensure_clients() if c.available()
        ]
        outcomes: dict[int, bool] = {}

        def push(idx: int, client: WorkerClient) -> None:
            try:
                client.ensure_tables(digest, bundle)
            except ClusterError:
                client.note_failure()
                outcomes[idx] = False
            else:
                client.note_success()
                outcomes[idx] = True

        if len(candidates) == 1:
            push(0, candidates[0])
        else:
            threads = [
                threading.Thread(target=push, args=(i, c), daemon=True)
                for i, c in enumerate(candidates)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return [c for i, c in enumerate(candidates) if outcomes.get(i)]

    def _shard_size(
        self, pairs: Pairs, cfg: LaunchConfig, workers: int | None = None
    ) -> int:
        """Pairs per shard across ``workers`` — the live ones at dispatch,
        the configured count when omitted (``explain`` reports this too):
        all of them below ``min_pairs``, which run in-process."""
        if workers is None:
            workers = self.capabilities().max_workers
        if len(pairs) < self.min_pairs:
            return len(pairs)
        if self.shard_pairs is not None:
            return self.shard_pairs
        mean_edges, mean_pixels = profile_pairs(pairs)
        return recommend_shard_pairs(
            len(pairs),
            mean_edges,
            mean_pixels,
            cfg.threshold,
            cfg.block_size,
            workers=max(1, workers),
        )


def _default_loopback_workers() -> int:
    from repro.backends.multiprocess import default_workers

    return max(2, min(4, default_workers()))
