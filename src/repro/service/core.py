"""The asyncio comparison service: a queue in front of a ``Session``.

A :class:`~repro.session.Session` already answers one comparison as
fast as one warm executor can: it owns the backend lifecycle, the result
cache, and the one launch path (one launch at a time under its dispatch
lock, the exclusive, non-preemptive device contract of the paper's §4).
:class:`ComparisonService` owns one session and adds only what answering
*many concurrent* requests needs:

* **admission control** — a bounded request queue; a full queue rejects
  immediately with :class:`~repro.errors.ServiceOverloadedError` instead
  of letting latency grow without bound, and every request can carry a
  timeout (the default comes from :class:`ServiceConfig`) or be
  cancelled;
* **micro-batching coalescer** — the dispatcher merges small concurrent
  requests into one session launch of at most about
  ``ServiceConfig.max_batch_pairs`` pairs, then scatters the answers
  back to the awaiting futures.  Merging changes *when* pairs are
  computed, never *what*: every pair's result is computed independently,
  so a coalesced dispatch is bit-for-bit identical to per-request calls
  (the service tests assert this).

Each request becomes a :class:`~repro.pixelbox.kernel.PairBatch` once, at
admission; with the cache on, admission also looks its key up (without
counting a miss) and answers a hit without a queue slot.  Launches are
CPU-bound, so the dispatcher runs them off the event loop, which stays
free to accept, reject, and time out requests while a batch is in
flight.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field

from repro.api.options import CompareOptions
from repro.backends.base import Backend, Pairs
from repro.cache import copy_areas, pairs_key
from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.metrics.service import ServiceMetrics, ServiceSnapshot
from repro.obs.events import EVENTS
from repro.obs.trace import Tracer, activate, current_context, current_tracer
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas, PairBatch
from repro.session import Session

__all__ = ["ServiceConfig", "ComparisonService"]

# Queue sentinel: close() enqueues it behind every accepted request, so
# the dispatcher drains the backlog before exiting (graceful shutdown).
_STOP = object()

_UNSET = object()


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """The service's :class:`CompareOptions` plus its serving knobs.

    Attributes
    ----------
    options:
        What every request runs under — backend, launch parameters,
        result cache — the same spec ``repro compare`` and
        :class:`~repro.session.Session` take.  A request's ``config``
        overrides only the launch parameters.
    max_queue:
        Admission-control bound: requests beyond this many waiting are
        rejected with :class:`~repro.errors.ServiceOverloadedError`.
    max_batch_pairs:
        A dispatch stops absorbing queued requests once it holds this
        many pairs (a single larger request still runs whole).  It
        bounds the latency a small request inherits from the batch it
        rides in; a constant, because a per-request estimate never came
        near binding on the queue depths closed-loop clients produce.
    coalesce_window:
        Seconds the dispatcher waits for more requests to merge once one
        is in hand and the queue runs dry.  Zero disables waiting
        (requests still coalesce when they are genuinely concurrent).
    default_timeout:
        Per-request timeout in seconds applied when ``submit`` is not
        given one; ``None`` means wait indefinitely.
    """

    options: CompareOptions = field(default_factory=CompareOptions)
    max_queue: int = 256
    max_batch_pairs: int = 4096
    coalesce_window: float = 0.002
    default_timeout: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.options, CompareOptions):
            raise ServiceError(
                f"options must be a CompareOptions, got {self.options!r}"
            )
        if self.max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {self.max_queue}")
        cap = self.max_batch_pairs
        if not isinstance(cap, int) or cap < 1:
            raise ServiceError(f"max_batch_pairs must be an int >= 1, got {cap!r}")
        if self.coalesce_window < 0:
            raise ServiceError("coalesce_window cannot be negative")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ServiceError("default_timeout must be positive")


@dataclass(slots=True)
class _Request:
    """One queued ``compare_pairs`` request."""

    batch: PairBatch
    config: LaunchConfig
    future: asyncio.Future
    enqueued: float
    #: Content-addressed request-cache key (``None`` with caching off).
    key: str | None = None
    #: ``(tracer, parent_span_id)`` captured at submission — the
    #: dispatcher task does not inherit the submitter's ContextVar, so
    #: the request carries its trace context explicitly.
    trace: tuple[Tracer, str | None] | None = None

    @property
    def size(self) -> int:
        return len(self.batch)


class ComparisonService:
    """Async front-end serving ``compare_pairs`` through one warm session.

    Usage::

        options = CompareOptions(backend="multiprocess")
        async with ComparisonService(ServiceConfig(options)) as svc:
            areas = await svc.submit(pairs)

    ``submit`` calls may come from many tasks concurrently; the service
    coalesces them.  A custom ``backend`` instance can be injected for
    testing (it must satisfy the :class:`repro.backends.Backend`
    protocol); it becomes the session's backend, and the service still
    closes it.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: ServiceMetrics | None = None,
        backend: Backend | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or ServiceMetrics()
        self._session = Session(self.config.options)
        self._session._backend = backend
        self._session._cache_tier = "service.request"
        self._store = self._session._store_for(self.config.options)
        if self._store is not None:
            self.metrics.attach_cache(self._store.name, self._store)
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ComparisonService":
        """Warm the session's backend, start the dispatcher."""
        if self._dispatcher is not None:
            return self
        if self._closed:
            raise ServiceClosedError("service already closed")
        loop = asyncio.get_running_loop()
        # Resolve the backend and pre-spawn its pooled state off-loop —
        # worker processes and their connections (with the HELLO
        # handshake) — so the first request does not pay for it.  Options
        # the backend rejects (`repro serve --backend batch --workers 4`)
        # or no reachable workers must fail here, at startup.
        try:
            await loop.run_in_executor(None, self._session.warm)
        except ReproError as exc:
            await self.close(drain=False)
            raise ServiceError(
                f"backend {self.config.options.backend!r} failed to warm: {exc}"
            ) from exc
        worker_stats = getattr(self._session.backend, "worker_stats", None)
        if callable(worker_stats):
            # Cluster backends: per-worker shard/table counters, read at
            # snapshot time so the stats op and the metrics export see
            # live numbers.
            self.metrics.attach_worker_stats(worker_stats)
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._dispatcher = loop.create_task(self._dispatch_loop())
        return self

    async def __aenter__(self) -> "ComparisonService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Stop accepting requests, then shut down.

        ``drain=True`` (the default) answers every already-accepted
        request before the session and its backend are released;
        ``drain=False`` cancels pending requests immediately (their
        submitters see ``CancelledError``).
        """
        if self._closed and self._dispatcher is None:
            return
        self._closed = True
        if self._dispatcher is not None:
            if drain:
                # The sentinel lands behind every accepted request; the
                # dispatcher exits only after answering all of them.
                await self._queue.put(_STOP)
                await self._dispatcher
            else:
                self._dispatcher.cancel()
                try:
                    await self._dispatcher
                except asyncio.CancelledError:
                    pass
                while not self._queue.empty():
                    stale = self._queue.get_nowait()
                    if stale is not _STOP and not stale.future.done():
                        stale.future.cancel()
            self._dispatcher = None
        self._session.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(
        self,
        pairs: Pairs,
        config: LaunchConfig | None = None,
        timeout: float | None | object = _UNSET,
    ) -> BatchAreas:
        """Enqueue one comparison request and await its result.

        ``config`` defaults to the launch parameters of the service's
        options, as a wire request without a ``config`` object does.

        Raises
        ------
        ServiceClosedError
            The service is not running (never started, or closing).
        ServiceOverloadedError
            Admission control rejected the request (queue full).
        asyncio.TimeoutError
            The per-request timeout elapsed (queued or mid-batch); the
            request is abandoned and its slot reclaimed.
        """
        if self._closed or self._queue is None:
            raise ServiceClosedError("service is not accepting requests")
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        if config is None:
            config = self.config.options.launch_config()
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            batch = PairBatch.from_pairs(pairs)
        except Exception:
            # Pairs that are not polygon pairs fail this request alone.
            self.metrics.note_failure()
            raise
        tracer = current_tracer()
        ctx = current_context()
        trace = (tracer, ctx[1]) if tracer is not None else None
        key: str | None = None
        if self._store is not None:
            key = pairs_key(batch, config)
            # Read-only: a miss is counted once, by the session's launch.
            cached = self._store.get(key) if self._store.contains(key) else None
            EVENTS.record(
                "cache.lookup",
                tier=self._store.name,
                hit=cached is not None,
                **({"trace_id": tracer.trace_id} if tracer is not None else {}),
            )
            if cached is not None:
                # Served at admission: no queue slot, no dispatch.  The
                # request still counts as accepted + completed so the
                # throughput counters describe real traffic.
                self.metrics.note_request_cache(True)
                self.metrics.note_enqueued(self._queue.qsize())
                self.metrics.note_completed(time.perf_counter() - started)
                return copy_areas(cached)
            self.metrics.note_request_cache(False)
        request = _Request(
            batch=batch,
            config=config,
            future=loop.create_future(),
            enqueued=started,
            key=key,
            trace=trace,
        )
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.metrics.note_rejected()
            EVENTS.record(
                "service.reject", pairs=len(batch), depth=self._queue.qsize()
            )
            raise ServiceOverloadedError(
                f"request queue at capacity ({self.config.max_queue})"
            ) from None
        self.metrics.note_enqueued(self._queue.qsize())
        EVENTS.record(
            "service.admit", pairs=len(batch), depth=self._queue.qsize()
        )
        try:
            if timeout is None:
                return await request.future
            return await asyncio.wait_for(request.future, timeout)
        except asyncio.TimeoutError:
            self.metrics.note_timeout()
            raise
        except asyncio.CancelledError:
            self.metrics.note_cancelled()
            if not request.future.done():
                request.future.cancel()
            raise

    def snapshot(self) -> ServiceSnapshot:
        """Current service metrics."""
        return self.metrics.snapshot()

    @property
    def backend(self) -> Backend | None:
        """The warm backend instance (``None`` before start/after close)."""
        return self._session._backend if self._dispatcher is not None else None

    def clear_caches(self) -> None:
        """Drop every cached result."""
        self._session.clear_caches()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _launch(self, live: list[_Request]) -> list[tuple[BatchAreas, bool]]:
        """One dispatch through the session's launch path (off-loop).

        The dispatcher task was created long before any request, so the
        submitter's trace context arrives here explicitly on the batch
        head; re-activating it around the backend call makes the
        backend's spans (cluster dispatch, remote worker kernels)
        children of the request tree.
        """
        head = live[0]

        def around(run, requests: int, pairs: int) -> BatchAreas:
            EVENTS.record("service.coalesce", requests=requests, pairs=pairs)
            if head.trace is None:
                areas = run()
            else:
                tracer, parent = head.trace
                with activate(tracer, parent), tracer.span(
                    "service.dispatch", requests=requests, pairs=pairs
                ):
                    areas = run()
            self.metrics.note_batch(requests=requests, pairs=pairs)
            self.metrics.note_kernel(areas.stats.as_dict())
            return areas

        session = self._session
        with session._launcher(session.options) as launch:
            return launch(
                [r.batch for r in live],
                head.config,
                [r.key for r in live],
                around,
            )

    async def _coalesce(
        self, head: _Request, batch: list[_Request]
    ) -> tuple[list[_Request], _Request | None, bool]:
        """Merge queued compatible requests behind ``head`` into ``batch``.

        ``batch`` is the caller's ``held`` list (already containing
        ``head``) so requests taken off the queue here stay visible to
        the dispatcher's cancellation cleanup.  Returns ``(batch, carry,
        stopping)``: the requests to dispatch together, an incompatible
        request to open the next batch with, and whether the stop
        sentinel was consumed.
        """
        total = head.size
        budget = self.config.max_batch_pairs
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.coalesce_window
        while total < budget:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if nxt is _STOP:
                return batch, None, True
            if nxt.future.done():  # cancelled or timed out while queued
                continue
            if nxt.config != head.config:
                # Different launch parameters cannot share a dispatch;
                # the mismatched request opens the next batch instead.
                return batch, nxt, False
            batch.append(nxt)
            total += nxt.size
        return batch, None, False

    async def _dispatch_loop(self) -> None:
        """Consume the queue forever: coalesce, launch, scatter.

        ``held`` tracks the requests this coroutine has taken off the
        queue but not yet answered; if the dispatcher itself is
        cancelled (``close(drain=False)``) they are cancelled too, so no
        submitter is left awaiting a future nobody will resolve.
        """
        loop = asyncio.get_running_loop()
        carry: _Request | None = None
        held: list[_Request] = []
        stopping = False
        try:
            while True:
                if carry is not None:
                    head, carry = carry, None
                elif stopping:
                    return
                else:
                    head = await self._queue.get()
                    if head is _STOP:
                        return
                if head.future.done():
                    continue
                held = [head]
                try:
                    batch, carry, saw_stop = await self._coalesce(head, held)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - poison request
                    # Whatever goes wrong assembling a batch fails the
                    # requests held for it — the dispatcher must survive
                    # to serve everyone else.
                    self.metrics.note_failure()
                    for r in held:
                        if not r.future.done():
                            r.future.set_exception(exc)
                    held = []
                    continue
                stopping = stopping or saw_stop
                live = [r for r in batch if not r.future.done()]
                held = list(live)
                self.metrics.note_queue_depth(self._queue.qsize())
                if not live:
                    held = []
                    continue
                call = functools.partial(self._launch, live)
                try:
                    answers = await loop.run_in_executor(None, call)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - goes to callers
                    self.metrics.note_failure()
                    for r in live:
                        if not r.future.done():
                            r.future.set_exception(exc)
                    held = []
                    continue
                now = time.perf_counter()
                for r, (areas, hit) in zip(live, answers):
                    if not r.future.done():  # cancelled while batch ran
                        r.future.set_result(areas)
                        if hit:  # filled while queued, or a twin's copy
                            self.metrics.note_request_cache(True)
                        self.metrics.note_completed(now - r.enqueued)
                held = []
        except asyncio.CancelledError:
            for r in held + ([carry] if carry is not None else []):
                if not r.future.done():
                    r.future.cancel()
            raise
