"""The asyncio comparison service: warm backend pool + micro-batching.

Why a service layer exists at all: every ``compare_pairs`` call through
the registry constructs its executor from scratch — for the
multiprocess backend that means starting worker processes and sending
each one the CSR tables *per call*.  Fine for batch jobs, fatal for an
interactive system answering many small concurrent requests.
:class:`ComparisonService` inverts the lifecycle:

* **warm backend pool** — the executor is resolved once at
  :meth:`~ComparisonService.start` and reused for every request; a
  pooled backend's workers are pre-spawned there and live until the
  service closes it, so process forking happens once per service
  lifetime;
* **admission control** — a bounded request queue; a full queue rejects
  immediately with :class:`~repro.errors.ServiceOverloadedError` instead
  of letting latency grow without bound, and every request can carry a
  timeout (the default comes from :class:`ServiceConfig`);
* **micro-batching coalescer** — the dispatcher merges small concurrent
  requests into one backend launch of at most about
  ``ServiceConfig.max_batch_pairs`` pairs, then scatters the
  result slices back to the awaiting futures.  Merging changes *when*
  pairs are computed, never *what*: every pair's result is computed
  independently, so a coalesced dispatch is bit-for-bit identical to
  per-request calls (the service tests assert this).

The service is asyncio-native.  Backend launches are CPU-bound, so the
dispatcher runs them on a single worker thread via
``loop.run_in_executor`` — one launch at a time, the exclusive,
non-preemptive device contract of the paper's §4 — which
keeps the event loop free to accept, reject, and time out requests while
a batch is in flight.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.backends import get_backend
from repro.backends.base import Backend, Pairs
from repro.cache import LRUCacheStore, areas_nbytes, copy_areas, pairs_key
from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.metrics.service import ServiceMetrics, ServiceSnapshot
from repro.obs.events import EVENTS
from repro.obs.trace import Tracer, activate, current_context, current_tracer
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import BatchAreas

__all__ = ["ServiceConfig", "ComparisonService"]

# Queue sentinel: close() enqueues it behind every accepted request, so
# the dispatcher drains the backlog before exiting (graceful shutdown).
_STOP = object()

_UNSET = object()


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Tuning knobs of the comparison service.

    Attributes
    ----------
    backend:
        Registry name of the warm executor (``repro backends``).
    backend_options:
        Factory keyword arguments (e.g. ``{"workers": 4}``).
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
    cache:
        Enable the service's content-addressed request cache: results
        are keyed by pair geometry + launch parameters, repeat requests
        are answered without a backend dispatch, and identical
        concurrent requests within one coalesced batch are computed
        once.  Off by default.
    cache_bytes:
        Byte budget of the request cache (LRU eviction past it).
    """

    backend: str = "batch"
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    max_queue: int = 256
    max_batch_pairs: int = 4096
    coalesce_window: float = 0.002
    default_timeout: float | None = None
    cache: bool = False
    cache_bytes: int = 64 * 2**20
    #: The CompareOptions this config was derived from (when built with
    #: :meth:`from_options`); the wire front-end overlays per-request
    #: launch parameters onto it so every service request parses into
    #: the same CompareRequest spec the CLI and library build.
    base_options: Any = None

    @classmethod
    def from_options(cls, options, **serving_knobs) -> "ServiceConfig":
        """Build a service config from one :class:`repro.CompareOptions`.

        The execution substrate (backend name, factory options, cluster
        hosts) comes from the shared request spec; ``serving_knobs`` are
        the service-only fields (``max_queue``, ``coalesce_window``,
        ``max_batch_pairs``, ``default_timeout``).
        """
        return cls(
            backend=options.backend,
            backend_options=options.resolved_backend_options(),
            cache=options.cache,
            cache_bytes=options.cache_bytes,
            base_options=options,
            **serving_knobs,
        )

    def compare_options(self):
        """The :class:`repro.CompareOptions` requests overlay onto."""
        if self.base_options is not None:
            return self.base_options
        from repro.api.options import CompareOptions

        return CompareOptions(
            backend=self.backend, backend_options=dict(self.backend_options)
        )

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {self.max_queue}")
        cap = self.max_batch_pairs
        if not isinstance(cap, int) or cap < 1:
            raise ServiceError(f"max_batch_pairs must be an int >= 1, got {cap!r}")
        if self.coalesce_window < 0:
            raise ServiceError("coalesce_window cannot be negative")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ServiceError("default_timeout must be positive")
        if self.cache_bytes < 1:
            raise ServiceError(
                f"cache_bytes must be >= 1, got {self.cache_bytes}"
            )


@dataclass(slots=True)
class _Request:
    """One queued ``compare_pairs`` request."""

    pairs: Pairs
    config: LaunchConfig | None
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
        return len(self.pairs)


def _slice_result(areas: BatchAreas, lo: int, hi: int) -> BatchAreas:
    """One request's slice of a merged dispatch.

    Kernel work counters cannot be attributed to a single rider of a
    merged batch, so each slice carries only its own pair count; the
    dispatch-level totals go to the service metrics instead.
    """
    return BatchAreas(
        np.ascontiguousarray(areas.intersection[lo:hi]),
        np.ascontiguousarray(areas.union[lo:hi]),
        np.ascontiguousarray(areas.area_p[lo:hi]),
        np.ascontiguousarray(areas.area_q[lo:hi]),
        KernelStats(pairs=hi - lo),
    )


class ComparisonService:
    """Async front-end serving ``compare_pairs`` from one warm backend.

    Usage::

        async with ComparisonService(ServiceConfig(backend="multiprocess")) as svc:
            areas = await svc.submit(pairs)

    ``submit`` calls may come from many tasks concurrently; the service
    coalesces them.  A custom ``backend`` instance can be injected for
    testing (it must satisfy the :class:`repro.backends.Backend`
    protocol); the service still owns its lifecycle and closes it.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: ServiceMetrics | None = None,
        backend: Backend | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or ServiceMetrics()
        self._injected_backend = backend
        self._backend: Backend | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        self._request_cache: LRUCacheStore | None = None
        if self.config.cache:
            self._request_cache = LRUCacheStore(
                self.config.cache_bytes, name="service.request"
            )
            self.metrics.attach_cache("service.request", self._request_cache)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ComparisonService":
        """Resolve and warm the backend, start the dispatcher."""
        if self._dispatcher is not None:
            return self
        if self._closed:
            raise ServiceClosedError("service already closed")
        loop = asyncio.get_running_loop()
        if self._injected_backend is not None:
            self._backend = self._injected_backend
        else:
            options = dict(self.config.backend_options)
            try:
                self._backend = get_backend(self.config.backend, **options)
            except ReproError as exc:
                # e.g. `repro serve --backend batch --workers 4` (the
                # batch factory takes no options) or `--workers 0`.
                raise ServiceError(
                    f"backend {self.config.backend!r} rejected options "
                    f"{sorted(options)}: {exc}"
                ) from None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        # Pre-spawn pooled state off-loop — worker processes and their
        # connections (with the HELLO handshake) — so the first request
        # does not pay the cost the warm pool exists to avoid.  A backend
        # with no reachable workers must fail here, at startup, not on
        # the first request.
        try:
            await loop.run_in_executor(self._executor, self._backend.warm)
        except ReproError as exc:
            await self.close(drain=False)
            raise ServiceError(
                f"backend {self.config.backend!r} failed to warm: {exc}"
            ) from exc
        worker_stats = getattr(self._backend, "worker_stats", None)
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
        request before the backend is released; ``drain=False`` cancels
        pending requests immediately (their submitters see
        ``CancelledError``).
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
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

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
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        pairs = list(pairs)
        tracer = current_tracer()
        ctx = current_context()
        trace = (tracer, ctx[1]) if tracer is not None else None
        key: str | None = None
        if self._request_cache is not None:
            key = pairs_key(pairs, config or LaunchConfig())
            cached = self._request_cache.get(key)
            EVENTS.record(
                "cache.lookup",
                tier="service.request",
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
            pairs=pairs,
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
                "service.reject", pairs=len(pairs), depth=self._queue.qsize()
            )
            raise ServiceOverloadedError(
                f"request queue at capacity ({self.config.max_queue})"
            ) from None
        self.metrics.note_enqueued(self._queue.qsize())
        EVENTS.record(
            "service.admit", pairs=len(pairs), depth=self._queue.qsize()
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
        return self._backend

    def clear_caches(self) -> None:
        """Drop every cached result."""
        if self._request_cache is not None:
            self._request_cache.clear()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _serve_cached(self, live: list[_Request]) -> list[_Request]:
        """Answer queued requests the cache can already satisfy."""
        still: list[_Request] = []
        now = time.perf_counter()
        for r in live:
            # contains() first so a request that missed at admission does
            # not count a second store-level miss here.
            if r.key is not None and self._request_cache.contains(r.key):
                cached = self._request_cache.get(r.key)
                if cached is not None:
                    if not r.future.done():
                        r.future.set_result(copy_areas(cached))
                        self.metrics.note_request_cache(True)
                        self.metrics.note_completed(now - r.enqueued)
                    continue
            still.append(r)
        return still

    @staticmethod
    def _dedupe(
        live: list[_Request],
    ) -> tuple[list[_Request], dict[int, list[_Request]]]:
        """Collapse identical keyed requests within one dispatch.

        Returns ``(leaders, riders)``: the requests whose pairs actually
        enter the merged launch, and for each leader (by identity) the
        requests that will be answered with copies of its slice.
        """
        leaders: list[_Request] = []
        riders: dict[int, list[_Request]] = {}
        by_key: dict[str, _Request] = {}
        for r in live:
            leader = by_key.get(r.key) if r.key is not None else None
            if leader is not None:
                riders.setdefault(id(leader), []).append(r)
                continue
            if r.key is not None:
                by_key[r.key] = r
            leaders.append(r)
        return leaders, riders

    def _execute_batch(
        self,
        merged: Pairs,
        config: LaunchConfig | None,
        trace: tuple[Tracer, str | None] | None,
        requests: int,
    ) -> BatchAreas:
        """One backend launch (executor thread), traced when requested.

        The dispatcher task was created long before any request, so the
        submitter's trace context arrives here explicitly on the batch
        leader; re-activating it makes the backend's spans (cluster
        dispatch, remote worker kernels) children of the request tree.
        """
        if trace is None:
            return self._backend.compare_pairs(merged, config)
        tracer, parent = trace
        with activate(tracer, parent):
            with tracer.span(
                "service.dispatch", requests=requests, pairs=len(merged)
            ):
                return self._backend.compare_pairs(merged, config)

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
                if self._request_cache is not None:
                    # Requests that missed at admission may have been
                    # filled while they waited in the queue; serve them
                    # now rather than recomputing.
                    live = self._serve_cached(live)
                    held = list(live)
                if not live:
                    held = []
                    continue
                # Within one dispatch, identical keyed requests collapse
                # to a single leader; riders are answered with copies of
                # the leader's slice after the launch.
                leaders, riders = self._dedupe(live)
                merged = [pair for r in leaders for pair in r.pairs]
                EVENTS.record(
                    "service.coalesce",
                    requests=len(live),
                    leaders=len(leaders),
                    pairs=len(merged),
                )
                call = functools.partial(
                    self._execute_batch, merged, leaders[0].config,
                    leaders[0].trace, len(live),
                )
                try:
                    areas = await loop.run_in_executor(self._executor, call)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - goes to callers
                    self.metrics.note_failure()
                    for r in live:
                        if not r.future.done():
                            r.future.set_exception(exc)
                    held = []
                    continue
                self.metrics.note_batch(requests=len(live), pairs=len(merged))
                self.metrics.note_kernel(areas.stats.as_dict())
                offset = 0
                now = time.perf_counter()
                for r in leaders:
                    lo, offset = offset, offset + r.size
                    part = _slice_result(areas, lo, offset)
                    if self._request_cache is not None and r.key is not None:
                        entry = copy_areas(part)
                        self._request_cache.put(
                            r.key, entry, areas_nbytes(entry)
                        )
                    if not r.future.done():  # cancelled while batch ran
                        r.future.set_result(part)
                        self.metrics.note_completed(now - r.enqueued)
                    for rider in riders.get(id(r), ()):
                        if not rider.future.done():
                            rider.future.set_result(copy_areas(part))
                            self.metrics.note_request_cache(True)
                            self.metrics.note_completed(now - rider.enqueued)
                held = []
        except asyncio.CancelledError:
            for r in held + ([carry] if carry is not None else []):
                if not r.future.done():
                    r.future.cancel()
            raise
