"""The cluster coordinator: one ``Backend`` whose shards run on workers.

``ClusterBackend`` routes pairs, builds the CSR edge tables once,
scatters contiguous shard index ranges to shard workers, gathers the
intersection slices and derives unions.  The workers are remote
``repro worker`` processes named by ``hosts``, or — with no hosts, and
always for the ``multiprocess`` backend — ``workers`` local worker
processes the backend starts and owns (:mod:`repro.cluster.local`).
Either way every shard crosses the same wire:

* tables travel over the binary wire protocol **once per worker per
  table version** (content-addressed by :func:`repro.cluster.wire.bundle_digest`,
  cached worker-side, re-sent only after eviction);
* shards are driven by :class:`repro.cluster.scheduler.ShardScheduler`,
  a pure step function over explicit state that owns straggler
  speculation, failure re-dispatch and the first-result-wins merge; a
  lost speculative copy is cancelled at win time (its socket is shut
  down), never counted as its worker's failure;
* a request is cut by count into about ``_SHARDS_PER_WORKER`` shards
  per live worker, slack for speculation and re-dispatch, and no shard
  is smaller than ``min_pairs``, the size below which a dispatch costs
  more than it saves;
* the coordinator routes pairs and every worker runs shards under
  :data:`~repro.pixelbox.kernel.BATCH_POLICY`, the policy every executor
  runs, so a result is bit-for-bit the ``batch`` backend's, work
  counters included.

A request below ``min_pairs``, or one on a single local worker, runs
in-process: a dispatch would cost more than it saves.  Degraded modes
degrade further, never wrong: a dead worker's shards are re-dispatched,
and when every worker is gone the coordinator runs the remaining shards
in-process through the same
:meth:`~repro.pixelbox.kernel.ChunkKernel.run_shard` entry point.
"""

from __future__ import annotations

import dataclasses
import math
import os
import socket
import threading
import time

import numpy as np

from repro import native
from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    Pairs,
)
from repro.cluster import local, wire
from repro.cluster.scheduler import (
    Shard,
    ShardOutcome,
    ShardScheduler,
)
from repro.errors import ClusterConfigError, ClusterError, KernelError
from repro.obs.trace import current_context, current_tracer, span
from repro.pixelbox.common import KernelStats, LaunchConfig, _is_int
from repro.pixelbox.kernel import (
    BATCH_POLICY,
    BatchAreas,
    ChunkKernel,
    PairBatch,
    ShardInput,
)

__all__ = ["ClusterBackend", "WorkerClient", "parse_hosts"]

# Worker health backoff: after ``f`` consecutive failures a worker sits
# out ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(f-1))`` seconds.
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 30.0
# Shards per live worker in one request: slack for speculation and
# re-dispatch.
_SHARDS_PER_WORKER = 4


def default_workers() -> int:
    """Worker-count default: the host's cores, capped at 4.

    The ``REPRO_WORKERS`` environment variable overrides the default —
    CI uses it to run the parity suite at several worker counts.  A value
    that does not parse is an error, not a silent fallback: the parity
    matrix must never report green for a width it did not test.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise KernelError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            )
        return workers
    return max(1, min(4, os.cpu_count() or 1))


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
        # Serializes whole request/response exchanges (a ``stats()``
        # probe may race a shard): interleaved frames would
        # desynchronize the stream.
        self._io_lock = threading.Lock()
        #: Digests this client believes are resident on the worker.
        self.pushed: set[str] = set()
        #: Actual table transmissions (the transfer counter the protocol
        #: tests assert: at most one per worker per table version).
        self.tables_sent = 0
        self.failures = 0
        self.down_until = 0.0

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    __repr__ = __str__  # reports list failed clients by address

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
                wire.send_frame(sock, wire.MsgType.HELLO, {})
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
            self._sock = sock

    def _drop_if_closed(self) -> None:
        """Forget a connection the worker has closed, so the next
        ``connect`` dials afresh (and fails for a dead worker).

        A worker process that died leaves our end of its socket open
        until something reads it: a non-blocking peek that reads EOF (or
        a reset) tells.  Skipped while an exchange holds the socket —
        that exchange sees the same EOF itself.
        """
        if not self._io_lock.acquire(blocking=False):
            return
        try:
            sock = self._sock
            if sock is None:
                return
            try:
                sock.settimeout(0)
                closed = sock.recv(1, socket.MSG_PEEK) == b""
            except BlockingIOError:
                closed = False  # nothing to read: the peer is there
            except OSError:
                closed = True
            if closed:
                self.abort()
            else:
                sock.settimeout(self.io_timeout)
        finally:
            self._io_lock.release()

    def abort(self) -> None:
        """Hard-close the connection, waking a call blocked on it at once.

        ``close()`` alone leaves a reader blocked in ``recv`` until the
        peer writes; ``shutdown`` first makes that read fail now.  A call
        that has not connected yet reconnects and runs to completion.
        """
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already reset by the peer
            sock.close()

    close = abort

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _call(
        self, msgtype: int, header: dict, arrays: dict | None = None
    ) -> tuple[int, dict, dict]:
        """One request/response exchange; failures reset the socket."""
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
                raise ClusterError(f"worker {self} failed: {exc}") from None
            except ClusterError:
                self.abort()
                raise

    def ensure_tables(self, digest: str, bundle: dict[str, np.ndarray]) -> None:
        """Make ``bundle`` resident on the worker, sending it at most once.

        ``pushed`` starts from the worker's HELLO_ACK ``cached`` list, and
        a RUN_SHARD answered ``missing-tables`` (eviction, a restarted
        worker) drops the digest from it, so a push is never redundant.
        """
        self._drop_if_closed()
        self.connect()  # a fresh connection learns the worker's cache
        if digest in self.pushed:
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
        # Trace propagation: the ambient context (set by the remote
        # shard span) crosses the wire as two ids; the worker's finished
        # spans come back in the reply and are adopted into the same
        # tracer.
        ctx = current_context()
        if ctx is not None:
            header["trace"] = wire.trace_to_wire(ctx[0], ctx[1])
        for attempt in (0, 1):
            msgtype, reply, arrays = self._call(wire.MsgType.RUN_SHARD, header)
            if msgtype == wire.MsgType.SHARD_RESULT:
                inter, stats = arrays.get("inter"), reply.get("stats")
                if not _valid_result(inter, stats, shard.size):
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
                    stats=KernelStats(**stats),
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
    """Shard dispatch to worker processes over the binary wire protocol.

    Registered as ``"cluster"`` and, without hosts, as
    ``"multiprocess"`` via :mod:`repro.backends.cluster`.

    Parameters
    ----------
    hosts:
        Remote worker addresses (``"host:port"`` list or comma string).
        Default comes from ``REPRO_CLUSTER_HOSTS``; with neither (or an
        empty list) the backend runs local worker processes.
    workers:
        Local worker processes when there are no hosts; defaults to
        :func:`default_workers`.  One worker runs every request
        in-process.
    min_pairs:
        Below this many pairs the request runs in-process (dispatch
        latency would dominate), and no shard is cut smaller.  A
        sharded request is cut by count into about four shards
        (``_SHARDS_PER_WORKER``) per live worker.
    """

    name = "cluster"
    description = "shards on remote hosts (or local workers) over the wire protocol"

    def __init__(
        self,
        hosts=None,
        workers: int | None = None,
        min_pairs: int = 256,
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
    ):
        if hosts is None:
            hosts = os.environ.get("REPRO_CLUSTER_HOSTS") or None
        self._addresses = parse_hosts(hosts)
        workers = default_workers() if workers is None else workers
        for name, value in (("workers", workers), ("min_pairs", min_pairs)):
            if not _is_int(value) or value < 1:
                raise ClusterConfigError(
                    f"{name} must be an int >= 1, got {value!r}"
                )
        self.workers = workers
        self.min_pairs = min_pairs
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self._clients: list[WorkerClient] | None = None
        self._processes: list = []
        self._lock = threading.Lock()
        # One remote dispatch at a time: the scheduler's copies own the
        # worker sockets for the duration of a request (the paper's exclusive
        # device contract).
        self._dispatch_lock = threading.Lock()
        #: Scheduler report of the most recent remote dispatch.
        self.last_report = None

    # ------------------------------------------------------------------
    # Capabilities / lifecycle
    # ------------------------------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        remote = bool(self._addresses)
        return BackendCapabilities(
            persistent_pooling=True,
            stateful_lifecycle=True,
            configurable_workers=True,
            max_workers=len(self._addresses) if remote else self.workers,
            remote=remote,
            notes="remote hosts via hosts=... or REPRO_CLUSTER_HOSTS"
            if remote
            else "local worker processes; REPRO_WORKERS sets the default",
        )

    @property
    def hosts(self) -> list[str]:
        """Remote worker addresses (``[]``: local worker processes)."""
        return [f"{host}:{port}" for host, port in self._addresses]

    @property
    def _one_local_worker(self) -> bool:
        return not self._addresses and self.workers == 1

    def _in_process(self, n: int) -> bool:
        """Whether an ``n``-pair request skips the workers."""
        return n < self.min_pairs or self._one_local_worker

    def _ensure_clients(self) -> list[WorkerClient]:
        with self._lock:
            if self._clients is None:
                addresses = self._addresses
                if not addresses:
                    self._processes, addresses = local.start(
                        self.workers, self.io_timeout
                    )
                self._clients = [
                    WorkerClient(
                        host, port, self.connect_timeout, self.io_timeout
                    )
                    for host, port in addresses
                ]
            return self._clients

    def warm(self) -> list:
        """Start and handshake every worker; returns the ones reached.

        Local workers are listed by process id, remote ones by address;
        a single local worker starts nothing (requests run in-process).
        Zero reachable workers is a hard
        :class:`~repro.errors.ClusterError` — the service calls this at
        startup, and a cluster that cannot serve anything should fail
        there, not on the first request.
        """
        # Local workers forked after this inherit the loaded library.
        native.load()
        if self._one_local_worker:
            return []
        clients = self._ensure_clients()
        labels = [p.pid for p in self._processes] or list(map(str, clients))
        alive = []
        for client, label in zip(clients, labels):
            try:
                client.connect()
                alive.append(label)
            except ClusterError:
                client.note_failure()
        if not alive:
            raise ClusterError(
                "no cluster workers reachable at "
                + ",".join(str(c) for c in clients)
            )
        return alive

    def close(self) -> None:
        """Drop every connection and stop any owned local workers."""
        with self._lock:
            clients, self._clients = self._clients, None
            processes, self._processes = self._processes, []
        for client in clients or []:
            client.close()
        local.stop(processes)

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
        pairs = PairBatch.from_pairs(pairs)
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

        if self._in_process(n):
            outcome = local_run(Shard(0, 0, n))
            return tables.finalize(BATCH_POLICY, outcome.inter, None, outcome.stats)

        bundle = tables.to_arrays()
        digest = wire.bundle_digest(bundle)
        with self._dispatch_lock:
            clients = self._live_clients(digest, bundle)
            size = self._shard_size(n, workers=len(clients))
            shards = [
                Shard(index, lo, min(lo + size, n))
                for index, lo in enumerate(range(0, n, size))
            ]

            def remote_run(client: WorkerClient, shard: Shard) -> ShardOutcome:
                with span(
                    "cluster.remote_shard",
                    worker=str(client),
                    lo=shard.lo,
                    hi=shard.hi,
                ):
                    return client.run_shard(digest, bundle, shard, cfg)

            # A cancelled copy's socket is shut down at win time and the
            # scheduler waits for that copy to end, so nothing of this
            # request touches a socket once execute returns.  With no
            # live worker the scheduler runs every shard in-process.
            scheduler = ShardScheduler(remote_run, local_run, WorkerClient.abort)
            with span(
                "cluster.schedule", shards=len(shards), workers=len(clients)
            ) as scheduled:
                outcomes, report = scheduler.execute(shards, clients)
                scheduled.set(
                    dispatches=report.dispatches,
                    speculative=report.speculative,
                    local_shards=report.local_shards,
                    failed=[str(c) for c in report.failed],
                )
            self.last_report = report
            for client in report.failed:
                client.note_failure()

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

        threads = [
            threading.Thread(target=push, args=(i, c), daemon=True)
            for i, c in enumerate(candidates)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [c for i, c in enumerate(candidates) if outcomes.get(i)]

    def _shard_size(self, n: int, workers: int | None = None) -> int:
        """Pairs per shard of an ``n``-pair request across ``workers`` —
        the live ones at dispatch, the configured count when omitted
        (``explain`` reports this too): all of them for a request that
        runs in-process."""
        if workers is None:
            workers = self.capabilities().max_workers
        if self._in_process(n):
            return n
        target = math.ceil(n / (max(1, workers) * _SHARDS_PER_WORKER))
        return min(n, max(self.min_pairs, target))


_STATS_FIELDS = frozenset(f.name for f in dataclasses.fields(KernelStats))


def _valid_result(inter, stats, size: int) -> bool:
    """A SHARD_RESULT carries ``size`` integer areas and exactly the
    :class:`KernelStats` counters, each an integer."""
    return (
        isinstance(inter, np.ndarray)
        and inter.dtype.kind in "iu"
        and inter.shape == (size,)
        and isinstance(stats, dict)
        and stats.keys() == _STATS_FIELDS
        and all(type(v) is int for v in stats.values())
    )

