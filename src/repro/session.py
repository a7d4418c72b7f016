"""``Session``: the library's front door, owning one backend lifecycle.

The paper's system exposes one logical operation — cross-compare two
spatial result sets on whatever mix of CPU/GPU resources is available.
:class:`Session` is that operation as an object:

* it owns the **backend lifecycle** — the executor named by its
  :class:`~repro.api.options.CompareOptions` is resolved lazily on first
  use, kept warm across calls (a pooled executor keeps its pool until
  closed), pre-spawnable with :meth:`warm`, and released by
  :meth:`close` / the context manager;
* it owns the **one launch path** of both front doors — the result
  cache, the collapse of identical pair lists, and one launch at a time
  under the dispatch lock.  :class:`repro.ComparisonService` is a queue
  in front of a session: it owns one, and its coalesced dispatches run
  through the same path;
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
from contextlib import contextmanager
from pathlib import Path
from typing import AsyncIterator, Callable, Iterator, Sequence

import numpy as np

from repro.api.options import CompareOptions
from repro.api.plan import ResolvedPlan, explain as _explain
from repro.api.request import CompareRequest, Pair
from repro.api.result import CompareResult, PairOutcome
from repro.cache import LRUCacheStore, areas_nbytes, copy_areas, pairs_key
from repro.errors import RequestError, SessionClosedError
from repro.metrics.jaccard import PairwiseJaccard, jaccard_tile
from repro.obs.clock import StageClock
from repro.obs.events import EVENTS
from repro.obs.trace import Tracer, activate, current_tracer, span
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import BatchAreas, PairBatch

__all__ = ["Session"]

#: ``launch(batches, config, keys=None, around=None)`` of one dispatch:
#: ``(areas, hit)`` per batch, in order (see :meth:`Session._launcher`).
Launch = Callable[..., list[tuple[BatchAreas, bool]]]


def _slice_result(areas: BatchAreas, lo: int, hi: int) -> BatchAreas:
    """One batch's slice of a merged launch.

    Kernel work counters cannot be attributed to one batch of a merged
    launch, so a slice carries only its own pair count; the launch-level
    totals reach whoever wrapped the launch (the service's metrics).
    """
    return BatchAreas(
        np.ascontiguousarray(areas.intersection[lo:hi]),
        np.ascontiguousarray(areas.union[lo:hi]),
        np.ascontiguousarray(areas.area_p[lo:hi]),
        np.ascontiguousarray(areas.area_q[lo:hi]),
        KernelStats(pairs=hi - lo),
    )


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
        # The front-door result cache, created lazily by the first request
        # whose options enable caching, and the tier it reports as (a
        # service names its session's store "service.request").
        self._request_cache: LRUCacheStore | None = None
        self._cache_tier = "session.request"
        self._lock = threading.Lock()
        # One launch at a time (the paper's exclusive-device contract,
        # §4): every backend launch, from any thread, serializes here.
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
        self.backend.warm()
        return self

    def close(self) -> None:
        """Release the backend; idempotent.  The session cannot be reused.

        A launch already running on the backend (another thread's, or one
        a service abandoned) finishes first: the backend is closed under
        the dispatch lock, so this call waits for it.
        """
        with self._lock:
            backend, self._backend = self._backend, None
            self._closed = True
        if backend is not None:
            with self._dispatch_lock:
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
        return self._run(
            request.options, request.kind, functools.partial(self._dispatch, request)
        )

    def _run(self, options: CompareOptions, kind: str, work: Callable):
        """``work()``, under a tracer when ``options.trace`` asks for one."""
        if options.trace:
            return self._run_traced(options, kind, work)
        return work()

    def _dispatch(self, request: CompareRequest):
        if request.kind == "pairs":
            return self._run_pairs(list(request.pairs), request.options)
        if request.kind == "sets":
            return self._run_sets(request)
        return self._run_files(request)

    def _run_traced(self, options: CompareOptions, kind: str, work: Callable):
        """Run one request under a tracer (reusing any ambient one)."""
        ambient = current_tracer()
        tracer = ambient if ambient is not None else Tracer()
        sink = None
        if options.trace_out is not None:
            sink = open(options.trace_out, "a", encoding="utf-8")
            EVENTS.add_sink(sink)
        try:
            with activate(tracer):
                with tracer.span("session.run", kind=kind, backend=options.backend):
                    result = work()
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
                    options.cache_bytes, name=self._cache_tier
                )
            return self._request_cache

    @contextmanager
    def _launcher(self, options: CompareOptions) -> Iterator[Launch]:
        """The one launch path of both front doors.

        Yields ``launch(batches, config, keys=None, around=None)``, which
        answers each :class:`PairBatch` of one dispatch — one for a
        ``pairs`` request or a tile, N for a coalesced service dispatch —
        with ``(areas, hit)``, in order; ``hit`` means no pairs were
        computed for that batch itself.  With caching on, each batch is
        looked up by :func:`repro.cache.pairs_key` (``keys`` when the
        caller already has them) and identical keys collapse to one.  The
        misses then take the dispatch lock — every launch takes it — and
        are looked up again under it, since a concurrent caller may have
        filled them meanwhile.  What is still missing runs as one backend
        launch; its slices are stored, and copies answer the twins.  With
        caching off no key is computed and the batches run as one launch.

        ``around(run, requests, pairs)`` wraps the backend call (the
        service's dispatch span and metrics).  The executor is resolved by
        the first launch — the warm backend, or a throwaway one closed on
        exit — so a request answered from the cache constructs none.
        """
        store = self._store_for(options)
        resolved = None  # (backend, throwaway) once a launch needed one

        def lookup(key: str) -> BatchAreas | None:
            cached = store.get(key)
            tracer = current_tracer()
            if tracer is not None:
                EVENTS.record(
                    "cache.lookup",
                    tier=store.name,
                    hit=cached is not None,
                    trace_id=tracer.trace_id,
                )
            return cached

        def launch(
            batches: list[PairBatch],
            config: LaunchConfig,
            keys: list[str] | None = None,
            around: Callable | None = None,
        ) -> list[tuple[BatchAreas, bool]]:
            nonlocal resolved
            answers: list = [None] * len(batches)
            # Batch indices by key, first index first (the one computed).
            misses: dict = {}
            if store is None:
                misses = {i: [i] for i in range(len(batches))}
            else:
                keys = keys or [pairs_key(b, config) for b in batches]
                for i, key in enumerate(keys):
                    cached = lookup(key)
                    if cached is None:
                        misses.setdefault(key, []).append(i)
                    else:
                        answers[i] = (copy_areas(cached), True)
            if not misses:
                return answers
            with self._dispatch_lock:
                for key in list(misses) if store is not None else ():
                    # contains() first: this key's miss is counted already.
                    cached = store.get(key) if store.contains(key) else None
                    if cached is not None:
                        for i in misses.pop(key):
                            answers[i] = (copy_areas(cached), True)
                if not misses:
                    return answers
                if resolved is None:
                    resolved = self._backend_for(options)
                backend = resolved[0]
                merged = PairBatch.concat(
                    [batches[group[0]] for group in misses.values()]
                )

                def run() -> BatchAreas:
                    with span(
                        "backend.compare_pairs",
                        backend=options.backend,
                        pairs=len(merged),
                    ):
                        return backend.compare_pairs(merged, config)

                if around is None:
                    areas = run()
                else:
                    requests = sum(map(len, misses.values()))
                    areas = around(run, requests, len(merged))
                hi = 0
                for key, (first, *twins) in misses.items():
                    lo, hi = hi, hi + len(batches[first])
                    part = (
                        areas if len(misses) == 1 else _slice_result(areas, lo, hi)
                    )
                    if store is not None:
                        entry = copy_areas(part)
                        store.put(key, entry, areas_nbytes(entry))
                    answers[first] = (part, False)
                    for i in twins:
                        # A caller may mutate what it gets back.
                        answers[i] = (copy_areas(part), True)
            return answers

        try:
            yield launch
        finally:
            if resolved is not None and resolved[1]:
                resolved[0].close()

    @contextmanager
    def _pairs_launcher(
        self, options: CompareOptions
    ) -> Iterator[Callable[[list[Pair] | PairBatch], BatchAreas]]:
        """``pairs -> BatchAreas`` over :meth:`_launcher`, for this
        session's own requests (a pair list converts to a
        :class:`PairBatch` once, here)."""
        config = options.launch_config()
        with self._launcher(options) as launch:
            yield lambda pairs: launch([PairBatch.from_pairs(pairs)], config)[0][0]

    def _run_pairs(
        self, pairs: list[Pair] | PairBatch, options: CompareOptions
    ) -> BatchAreas:
        with self._pairs_launcher(options) as launch:
            return launch(pairs)

    def _run_sets(self, request: CompareRequest) -> CompareResult:
        clock = StageClock("pipeline.")
        with self._pairs_launcher(request.options) as launch, clock.run():
            pw = jaccard_tile(request.set_a, request.set_b, launch, clock)
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
        with self._pairs_launcher(request.options) as launch, span(
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
        batch, opts, shard_pairs = self._stream_plan(pairs, options, shard_pairs)
        for lo in range(0, len(batch), shard_pairs):
            areas = self._compare_shard(batch[lo : lo + shard_pairs], opts)
            yield from self._shard_outcomes(lo, areas)

    async def stream_async(
        self,
        pairs: Sequence[Pair],
        options: CompareOptions | None = None,
        shard_pairs: int | None = None,
    ) -> AsyncIterator[PairOutcome]:
        """Async variant of :meth:`stream` (shards run off the loop)."""
        batch, opts, shard_pairs = self._stream_plan(pairs, options, shard_pairs)
        loop = asyncio.get_running_loop()
        for lo in range(0, len(batch), shard_pairs):
            areas = await loop.run_in_executor(
                None,
                functools.partial(
                    self._compare_shard, batch[lo : lo + shard_pairs], opts
                ),
            )
            for outcome in self._shard_outcomes(lo, areas):
                yield outcome

    def _stream_plan(
        self,
        pairs: Sequence[Pair],
        options: CompareOptions | None,
        shard_pairs: int | None,
    ) -> tuple[PairBatch, CompareOptions, int]:
        """Shared setup of both stream variants: the pairs, validated and
        converted once (every shard is a slice of the one batch), and the
        validated shard size."""
        self._check_open()
        opts = self._options_for(options)
        request = CompareRequest.from_pairs(pairs, opts)
        batch = PairBatch.from_pairs(list(request.pairs))
        if shard_pairs is None:
            shard_pairs = self._stream_shard_pairs(batch, opts)
        if shard_pairs < 1:
            raise RequestError(
                f"shard_pairs must be >= 1, got {shard_pairs}"
            )
        return batch, opts, shard_pairs

    def _compare_shard(self, batch: PairBatch, options: CompareOptions) -> BatchAreas:
        """:meth:`compare` of one stream shard, already a batch."""
        self._check_open()
        return self._run(
            options, "pairs", functools.partial(self._run_pairs, batch, options)
        )

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

    def _stream_shard_pairs(self, batch: PairBatch, options: CompareOptions) -> int:
        """:mod:`repro.backends.sizing` shard size for one stream."""
        if not len(batch):
            return 1
        from repro.backends.sizing import profile_pairs, recommend_shard_pairs

        cfg = options.launch_config()
        mean_edges, mean_pixels = profile_pairs(batch)
        return recommend_shard_pairs(
            len(batch),
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
        return {store.name: store.snapshot().as_dict()}

    def clear_caches(self) -> None:
        """Drop every cached result."""
        with self._lock:
            store = self._request_cache
        if store is not None:
            store.clear()
