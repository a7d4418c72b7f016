"""``Session``: the library's front door, owning one backend lifecycle.

The paper's system exposes one logical operation — cross-compare two
spatial result sets on whatever mix of CPU/GPU resources is available.
:class:`Session` is that operation as an object:

* it owns the **backend lifecycle** — the executor named by its
  :class:`~repro.api.options.CompareOptions` is resolved lazily on first
  use, kept warm across calls (a pooled executor keeps its pool until
  closed, exactly like the comparison service's warm pool),
  pre-spawnable with :meth:`warm`, and released by :meth:`close` / the
  context manager;
* every comparison — explicit pairs (:meth:`compare`), two polygon sets
  (:meth:`compare_sets`), two result-set directories
  (:meth:`compare_files`), an incremental :meth:`stream`, an async
  :meth:`submit`, or a pre-built declarative spec (:meth:`run`) — goes
  through the **same** :class:`~repro.api.request.CompareRequest`
  the CLI and the service protocol parse into;
* :meth:`explain` resolves any request into its execution plan (chosen
  backend, shard sizing, capability checks) **without executing**.

Usage::

    from repro import Session, CompareOptions

    with Session(CompareOptions(backend="multiprocess")) as session:
        result = session.compare_files("results_a", "results_b")
        areas = session.compare(pairs)          # raw per-pair areas
        for outcome in session.stream(pairs):   # incremental, per shard
            ...

Results are bit-for-bit identical across every backend and every entry
point — execution choices are performance knobs, never semantics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import AsyncIterator, Callable, Iterator, Sequence

from repro.api.options import CompareOptions
from repro.api.plan import ResolvedPlan, explain as _explain
from repro.api.request import CompareRequest, Pair
from repro.api.result import CompareResult, PairOutcome
from repro.cache import (
    LRUCacheStore,
    SingleFlight,
    areas_nbytes,
    copy_areas,
    pairs_key,
)
from repro.errors import RequestError, SessionClosedError
from repro.metrics.jaccard import PairwiseJaccard, jaccard_tile
from repro.obs.clock import StageClock
from repro.obs.events import EVENTS
from repro.obs.trace import Tracer, activate, current_tracer, span
from repro.pixelbox.kernel import BatchAreas

__all__ = ["Session"]

class Session:
    """One warm execution context for many comparisons.

    Parameters
    ----------
    options:
        The session-wide :class:`CompareOptions` (defaults apply when
        ``None``).  Per-call ``options`` may override it request by
        request; requests that match the session backend reuse the warm
        executor, others resolve a throwaway one.
    **overrides:
        Convenience field overrides, e.g. ``Session(backend="multiprocess")``
        instead of ``Session(CompareOptions(backend="multiprocess"))``.
    """

    def __init__(
        self, options: CompareOptions | None = None, **overrides
    ) -> None:
        base = options or CompareOptions()
        self.options = base.replace(**overrides) if overrides else base
        self._backend = None
        self._closed = False
        # The front-door result cache (created lazily by the first request
        # whose options enable caching) plus the stampede guard that
        # keeps N concurrent identical launches at one computation.
        self._request_cache: LRUCacheStore | None = None
        self._flight = SingleFlight()
        self._lock = threading.Lock()
        # One launch at a time on the warm backend (the paper's
        # exclusive-device contract, §4); concurrent submit()/compare()
        # calls from many threads serialize here.
        self._dispatch_lock = threading.Lock()
        # The tracer of the most recent traced request (None until a
        # request runs with CompareOptions(trace=True)).
        self.last_trace: Tracer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "session is closed; create a new Session (close() released "
                "its backend and the session cannot be reused)"
            )

    @property
    def backend(self):
        """The warm backend instance, resolved on first access."""
        self._check_open()
        with self._lock:
            if self._backend is None:
                from repro.backends import get_backend

                self._backend = get_backend(
                    self.options.backend,
                    **self.options.resolved_backend_options(),
                )
            return self._backend

    def warm(self) -> "Session":
        """Resolve the backend and pre-spawn its pooled state.

        For pooled executors (worker processes, cluster connections)
        this pays the spin-up cost now instead of on the first request —
        and a cluster with no reachable workers fails here, not later.
        """
        backend = self.backend
        warm = getattr(backend, "warm", None)
        if callable(warm):
            warm()
        return self

    def close(self) -> None:
        """Release the backend; idempotent.  The session cannot be reused."""
        with self._lock:
            backend, self._backend = self._backend, None
            self._closed = True
        if backend is not None:
            backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # ------------------------------------------------------------------
    # Request construction + execution
    # ------------------------------------------------------------------
    def _options_for(self, options: CompareOptions | None) -> CompareOptions:
        return options if options is not None else self.options

    def _backend_for(self, options: CompareOptions):
        """The executor for one request (warm when the spec matches)."""
        factory_options = options.resolved_backend_options()
        if (
            options.backend == self.options.backend
            and factory_options == self.options.resolved_backend_options()
        ):
            return self.backend, False
        from repro.backends import get_backend

        return get_backend(options.backend, **factory_options), True

    def run(self, request: CompareRequest):
        """Execute a declarative request (dispatch on its kind).

        ``pairs`` requests return raw :class:`BatchAreas`; ``sets`` and
        ``files`` requests return a :class:`CompareResult`.  With
        ``options.trace`` the request runs under a request-scoped
        :class:`~repro.obs.Tracer`; the finished tracer is kept on
        :attr:`last_trace`, ``CompareResult`` answers carry its trace
        id, and ``options.trace_out`` appends every span and lifecycle
        event to a JSON-lines file.
        """
        self._check_open()
        if request.options.trace:
            return self._run_traced(request)
        return self._dispatch(request)

    def _dispatch(self, request: CompareRequest):
        if request.kind == "pairs":
            return self._run_pairs(request)
        if request.kind == "sets":
            return self._run_sets(request)
        return self._run_files(request)

    def _run_traced(self, request: CompareRequest):
        """Run one request under a tracer (reusing any ambient one)."""
        ambient = current_tracer()
        tracer = ambient if ambient is not None else Tracer()
        sink = None
        if request.options.trace_out is not None:
            sink = open(request.options.trace_out, "a", encoding="utf-8")
            EVENTS.add_sink(sink)
        try:
            with activate(tracer):
                with tracer.span(
                    "session.run",
                    kind=request.kind,
                    backend=request.options.backend,
                ):
                    result = self._dispatch(request)
        finally:
            self.last_trace = tracer
            if ambient is None:
                # Root of the trace: publish the finished span records
                # to the event log (ring + any attached sinks).
                EVENTS.extend(
                    [{"kind": "span", **r.as_dict()} for r in tracer.records()]
                )
            if sink is not None:
                EVENTS.remove_sink(sink)
                sink.close()
        if isinstance(result, CompareResult):
            result = dataclasses.replace(result, trace_id=tracer.trace_id)
        return result

    def _store_for(self, options: CompareOptions) -> LRUCacheStore | None:
        """The request-cache store, iff ``options`` enable caching."""
        if not options.cache:
            return None
        with self._lock:
            if self._request_cache is None:
                self._request_cache = LRUCacheStore(
                    options.cache_bytes, name="session.request"
                )
            return self._request_cache

    @contextmanager
    def _launcher(
        self, options: CompareOptions
    ) -> Iterator[Callable[[list[Pair]], BatchAreas]]:
        """The ``pairs -> BatchAreas`` launch of one request, cache in front.

        Every request kind launches through this closure, so all three
        are cached the same way: one entry per pair list (per tile for
        ``sets`` and ``files``), keyed by :func:`repro.cache.pairs_key` —
        the same key whichever backend computes it, since every backend
        returns the same areas and counters.  The executor is resolved by
        the first miss — the warm backend,
        one launch at a time under the dispatch lock, or a throwaway one
        closed on exit — so a request answered from the cache constructs
        and locks no backend.
        """
        config = options.launch_config()
        store = self._store_for(options)
        resolved = None  # (backend, throwaway) once a launch needed one

        def execute(pairs: list[Pair]) -> BatchAreas:
            nonlocal resolved
            if resolved is None:
                resolved = self._backend_for(options)
            backend, throwaway = resolved
            lock = nullcontext() if throwaway else self._dispatch_lock
            with span(
                "backend.compare_pairs",
                backend=options.backend,
                pairs=len(pairs),
            ), lock:
                return backend.compare_pairs(pairs, config)

        def launch(pairs: list[Pair]) -> BatchAreas:
            if store is None:
                return execute(pairs)
            key = pairs_key(pairs, config)
            cached = store.get(key)
            tracer = current_tracer()
            if tracer is not None:
                EVENTS.record(
                    "cache.lookup",
                    tier="session.request",
                    hit=cached is not None,
                    trace_id=tracer.trace_id,
                )
            if cached is not None:
                return copy_areas(cached)
            value, leader = self._flight.do(key, lambda: execute(pairs))
            if leader:
                entry = copy_areas(value)
                store.put(key, entry, areas_nbytes(entry))
                return value
            # Followers share the leader's flight but must not share its
            # arrays: a caller may mutate what it gets back.
            return copy_areas(value)

        try:
            yield launch
        finally:
            if resolved is not None and resolved[1]:
                resolved[0].close()

    def _run_pairs(self, request: CompareRequest) -> BatchAreas:
        with self._launcher(request.options) as launch:
            return launch(list(request.pairs))

    def _run_sets(self, request: CompareRequest) -> CompareResult:
        clock = StageClock("pipeline.")
        with self._launcher(request.options) as launch, clock.run():
            pw = jaccard_tile(
                list(request.set_a), list(request.set_b), launch, clock
            )
        return CompareResult.from_pairwise(pw, wall_seconds=clock.wall_total)

    def _run_files(self, request: CompareRequest) -> CompareResult:
        """``compare_sets`` per tile, summed in tile order.

        Tiles are cached by their parsed geometry, not their path, so a
        file rewritten under an unchanged name is simply a new key.
        """
        from repro.io.parser_cpu import parse_vectorized
        from repro.io.tiles import pair_result_sets

        tiles = pair_result_sets(request.dir_a, request.dir_b)
        clock = StageClock("pipeline.")
        total = PairwiseJaccard()
        input_bytes = 0
        with self._launcher(request.options) as launch, span(
            "pipeline.run", backend=request.options.backend
        ), clock.run():
            for tile in tiles:
                with clock.measure("parser", tile=tile.tile_id):
                    raw_a = tile.file_a.read_bytes()
                    raw_b = tile.file_b.read_bytes()
                    set_a = parse_vectorized(raw_a)
                    set_b = parse_vectorized(raw_b)
                input_bytes += len(raw_a) + len(raw_b)
                total += jaccard_tile(set_a, set_b, launch, clock)
        return CompareResult.from_pairwise(
            total,
            tiles=len(tiles),
            wall_seconds=clock.wall_total,
            input_bytes=input_bytes,
        )

    # ------------------------------------------------------------------
    # Front-door methods (thin wrappers building the same request spec)
    # ------------------------------------------------------------------
    def compare(
        self, pairs: Sequence[Pair], options: CompareOptions | None = None
    ) -> BatchAreas:
        """Exact areas for explicit candidate pairs, in input order."""
        self._check_open()
        return self.run(
            CompareRequest.from_pairs(pairs, self._options_for(options))
        )

    def compare_sets(
        self,
        set_a,
        set_b,
        options: CompareOptions | None = None,
    ) -> CompareResult:
        """Cross-compare two in-memory polygon sets (one tile)."""
        self._check_open()
        return self.run(
            CompareRequest.from_sets(set_a, set_b, self._options_for(options))
        )

    def compare_files(
        self,
        dir_a: str | Path,
        dir_b: str | Path,
        options: CompareOptions | None = None,
    ) -> CompareResult:
        """Cross-compare two on-disk result sets, tile by tile."""
        self._check_open()
        return self.run(
            CompareRequest.from_files(dir_a, dir_b, self._options_for(options))
        )

    # ------------------------------------------------------------------
    # Async + incremental
    # ------------------------------------------------------------------
    async def submit(
        self, pairs: Sequence[Pair], options: CompareOptions | None = None
    ) -> BatchAreas:
        """Async :meth:`compare`: the launch runs off the event loop.

        One session backend serves one launch at a time — concurrent
        ``submit`` calls serialize on the session's dispatch lock (the
        exclusive-device contract).  For high-concurrency serving with
        admission control and coalescing, use
        :class:`repro.ComparisonService`.
        """
        self._check_open()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self.compare, list(pairs), options)
        )

    def stream(
        self,
        pairs: Sequence[Pair],
        options: CompareOptions | None = None,
        shard_pairs: int | None = None,
    ) -> Iterator[PairOutcome]:
        """Yield per-pair results incrementally as shards complete.

        The request is cut into policy-sized shards (overridable
        with ``shard_pairs``); each shard is one backend launch, and its
        pairs are yielded in input order as soon as it returns.  Chunk
        boundaries never change results (the kernel's shard-invariance
        guarantee), so consuming the whole stream equals one
        :meth:`compare` call bit for bit.
        """
        pair_list, opts, shard_pairs = self._stream_plan(
            pairs, options, shard_pairs
        )
        for lo in range(0, len(pair_list), shard_pairs):
            areas = self.compare(pair_list[lo : lo + shard_pairs], opts)
            yield from self._shard_outcomes(lo, areas)

    async def stream_async(
        self,
        pairs: Sequence[Pair],
        options: CompareOptions | None = None,
        shard_pairs: int | None = None,
    ) -> AsyncIterator[PairOutcome]:
        """Async variant of :meth:`stream` (shards run off the loop)."""
        pair_list, opts, shard_pairs = self._stream_plan(
            pairs, options, shard_pairs
        )
        loop = asyncio.get_running_loop()
        for lo in range(0, len(pair_list), shard_pairs):
            areas = await loop.run_in_executor(
                None,
                functools.partial(
                    self.compare, pair_list[lo : lo + shard_pairs], opts
                ),
            )
            for outcome in self._shard_outcomes(lo, areas):
                yield outcome

    def _stream_plan(
        self,
        pairs: Sequence[Pair],
        options: CompareOptions | None,
        shard_pairs: int | None,
    ) -> tuple[list[Pair], CompareOptions, int]:
        """Shared setup of both stream variants (validated shard size)."""
        self._check_open()
        opts = self._options_for(options)
        pair_list = list(pairs)
        if shard_pairs is None:
            shard_pairs = self._stream_shard_pairs(pair_list, opts)
        if shard_pairs < 1:
            raise RequestError(
                f"shard_pairs must be >= 1, got {shard_pairs}"
            )
        return pair_list, opts, shard_pairs

    @staticmethod
    def _shard_outcomes(lo: int, areas: BatchAreas) -> Iterator[PairOutcome]:
        for i in range(len(areas)):
            yield PairOutcome(
                index=lo + i,
                intersection=int(areas.intersection[i]),
                union=int(areas.union[i]),
                area_p=int(areas.area_p[i]),
                area_q=int(areas.area_q[i]),
            )

    def _stream_shard_pairs(
        self, pairs: list[Pair], options: CompareOptions
    ) -> int:
        """:mod:`repro.backends.sizing` shard size for one stream."""
        if not pairs:
            return 1
        from repro.backends.sizing import profile_pairs, recommend_shard_pairs

        cfg = options.launch_config()
        mean_edges, mean_pixels = profile_pairs(pairs)
        return recommend_shard_pairs(
            len(pairs),
            mean_edges,
            mean_pixels,
            cfg.threshold,
            cfg.block_size,
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def explain(self, request: CompareRequest) -> ResolvedPlan:
        """Resolve ``request`` into its plan without executing it.

        The plan's cache section is answered against *this* session's
        request cache, so ``would_hit`` tells the truth about what a
        :meth:`run` of the same request would do here.
        """
        # Resolve the store exactly as the run path would (creating it
        # for a cache-enabled request), so the first explain of a fresh
        # session answers would_hit=False rather than "no store".
        return _explain(
            request, request_cache=self._store_for(request.options)
        )

    # ------------------------------------------------------------------
    # Cache observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, dict]:
        """Snapshot of the session's result cache (empty with caching off)."""
        with self._lock:
            store = self._request_cache
        if store is None:
            return {}
        return {"session.request": store.snapshot().as_dict()}

    def clear_caches(self) -> None:
        """Drop every cached result."""
        with self._lock:
            store = self._request_cache
        if store is not None:
            store.clear()
