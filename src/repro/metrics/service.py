"""Service-level metrics for the async comparison service.

Where :mod:`repro.metrics.jaccard` measures the *answers* (similarity of
polygon sets), this module measures the *serving*: admission-control
outcomes, queue depth, how full the coalescer's merged dispatches run,
and request latency quantiles.  Counters are updated from the service's
event loop and from submitter threads, so every mutation takes the
instance lock; :meth:`ServiceMetrics.snapshot` returns an immutable view
that is safe to render or serialize after the service is gone.

Latency quantiles come from a bounded reservoir of the most recent
samples (a ring of the last few thousand requests) — the p50/p99 of a
service that has been up for days should describe current traffic, not
its boot storm.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.obs.metrics import Histogram

__all__ = ["ServiceMetrics", "ServiceSnapshot"]

# Latency samples retained for quantile estimation.
_RESERVOIR = 4096


@dataclass(frozen=True, slots=True)
class ServiceSnapshot:
    """Immutable point-in-time view of one service's counters."""

    requests: int
    completed: int
    rejected: int
    timeouts: int
    cancelled: int
    failures: int
    batches: int
    pairs: int
    queue_depth: int
    max_queue_depth: int
    mean_batch_requests: float
    mean_batch_pairs: float
    p50_ms: float
    p99_ms: float
    request_cache_hits: int = 0
    request_cache_misses: int = 0
    caches: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    latency_histogram: Mapping[str, Any] = field(default_factory=dict)
    kernel: Mapping[str, int] = field(default_factory=dict)
    workers: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (wire protocol / reports), one key per field."""
        return asdict(self)

    def render(self) -> str:
        """Human-readable multi-line summary (CLI / reports)."""
        return "\n".join(
            [
                f"requests  accepted={self.requests} "
                f"completed={self.completed} rejected={self.rejected} "
                f"timeouts={self.timeouts} cancelled={self.cancelled} "
                f"failures={self.failures}",
                f"dispatch  batches={self.batches} pairs={self.pairs} "
                f"occupancy={self.mean_batch_requests:.1f} req/batch "
                f"({self.mean_batch_pairs:.0f} pairs/batch)",
                f"queue     depth={self.queue_depth} "
                f"peak={self.max_queue_depth}",
                f"latency   p50={self.p50_ms:.2f}ms p99={self.p99_ms:.2f}ms",
            ]
            + (
                [
                    f"cache     hits={self.request_cache_hits} "
                    f"misses={self.request_cache_misses} "
                    f"tiers={','.join(sorted(self.caches)) or 'none'}"
                ]
                if self.caches or self.request_cache_hits or self.request_cache_misses
                else []
            )
        )


class ServiceMetrics:
    """Thread-safe counters + latency reservoir for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._completed = 0
        self._rejected = 0
        self._timeouts = 0
        self._cancelled = 0
        self._failures = 0
        self._batches = 0
        self._batch_requests = 0
        self._pairs = 0
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._latencies: list[float] = []
        self._latency_cursor = 0
        # Fixed-bucket histogram alongside the reservoir: the reservoir
        # gives fresh quantiles, the histogram gives Prometheus-scrapable
        # cumulative buckets over the service's whole life.
        self._latency_hist = Histogram(
            "repro_service_request_latency_seconds",
            "End-to-end request latency observed by the service.",
        )
        self._request_cache_hits = 0
        self._request_cache_misses = 0
        # Kernel work counters accumulated across every dispatched batch
        # (the paper's compute-intensity counters: pairs, pops, ...).
        self._kernel: dict[str, int] = {}
        # Per-worker stats provider (cluster backends); read at snapshot
        # time like the cache store.
        self._worker_stats = None
        # Attached cache stores (anything with a ``snapshot().as_dict()``),
        # read at snapshot time so cache counters and service counters
        # always appear together.
        self._caches: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Recording (service side)
    # ------------------------------------------------------------------
    def note_enqueued(self, depth: int) -> None:
        """A request passed admission control; ``depth`` is the new size."""
        with self._lock:
            self._requests += 1
            self._queue_depth = depth
            self._max_queue_depth = max(self._max_queue_depth, depth)

    def note_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._max_queue_depth = max(self._max_queue_depth, depth)

    def note_rejected(self) -> None:
        with self._lock:
            self._rejected += 1

    def note_timeout(self) -> None:
        with self._lock:
            self._timeouts += 1

    def note_cancelled(self) -> None:
        with self._lock:
            self._cancelled += 1

    def note_failure(self) -> None:
        with self._lock:
            self._failures += 1

    def note_request_cache(self, hit: bool) -> None:
        """One request-cache lookup (hit or miss)."""
        with self._lock:
            if hit:
                self._request_cache_hits += 1
            else:
                self._request_cache_misses += 1

    def attach_cache(self, name: str, store) -> None:
        """Surface a :class:`repro.cache.LRUCacheStore` in snapshots."""
        with self._lock:
            self._caches[name] = store

    def attach_worker_stats(self, provider) -> None:
        """Surface per-worker cluster stats in snapshots.

        ``provider`` is a zero-argument callable returning
        ``{worker_addr: counter_dict}`` (``ClusterBackend.worker_stats``).
        """
        with self._lock:
            self._worker_stats = provider

    def note_kernel(self, stats: Mapping[str, int]) -> None:
        """Accumulate one batch's kernel work counters."""
        with self._lock:
            for key, value in stats.items():
                self._kernel[key] = self._kernel.get(key, 0) + int(value)

    def note_batch(self, requests: int, pairs: int) -> None:
        """One coalesced dispatch of ``requests`` requests, ``pairs`` pairs."""
        with self._lock:
            self._batches += 1
            self._batch_requests += requests
            self._pairs += pairs

    def note_completed(self, latency_seconds: float) -> None:
        """One request answered; record its end-to-end latency."""
        self._latency_hist.observe(latency_seconds)
        with self._lock:
            self._completed += 1
            if len(self._latencies) < _RESERVOIR:
                self._latencies.append(latency_seconds)
            else:
                self._latencies[self._latency_cursor] = latency_seconds
                self._latency_cursor = (self._latency_cursor + 1) % _RESERVOIR

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> ServiceSnapshot:
        """Consistent immutable view of every counter."""
        with self._lock:
            provider = self._worker_stats
        # Worker stats may do socket round-trips; never hold the metrics
        # lock across them or the dispatch loop's note_* calls stall.
        workers = provider() if provider is not None else {}
        with self._lock:
            if self._latencies:
                lat = np.asarray(self._latencies, dtype=np.float64)
                p50 = float(np.percentile(lat, 50.0)) * 1e3
                p99 = float(np.percentile(lat, 99.0)) * 1e3
            else:
                p50 = p99 = 0.0
            batches = self._batches
            return ServiceSnapshot(
                requests=self._requests,
                completed=self._completed,
                rejected=self._rejected,
                timeouts=self._timeouts,
                cancelled=self._cancelled,
                failures=self._failures,
                batches=batches,
                pairs=self._pairs,
                queue_depth=self._queue_depth,
                max_queue_depth=self._max_queue_depth,
                mean_batch_requests=(
                    self._batch_requests / batches if batches else 0.0
                ),
                mean_batch_pairs=self._pairs / batches if batches else 0.0,
                p50_ms=p50,
                p99_ms=p99,
                request_cache_hits=self._request_cache_hits,
                request_cache_misses=self._request_cache_misses,
                caches={
                    name: store.snapshot().as_dict()
                    for name, store in self._caches.items()
                },
                latency_histogram=self._latency_hist.snapshot(),
                kernel=dict(self._kernel),
                workers=workers,
            )
