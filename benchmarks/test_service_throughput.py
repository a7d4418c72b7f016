"""Service-throughput benchmark: warm pooled serving vs per-call spin-up.

The scenario the service layer exists for: many small concurrent
``compare_pairs`` requests.  The baseline pays the status-quo cost — a
fresh multiprocess backend per request, so every request forks a worker
pool and packs its own shared-memory tables.  The pooled run serves the
same requests through :class:`repro.service.ComparisonService` with a
persistent multiprocess backend: forking happens once at warm-up,
requests coalesce into shared dispatches.

Acceptance bar (ISSUE 2): pooled warm-backend serving beats per-call
backend construction by >= 2x, and every coalesced response is
bit-for-bit the sequential per-request result (asserted here over every
request, on top of the dedicated service parity tests).

The cached phase (ISSUE 7) replays the same request stream against a
cache-enabled warm service: the first pass populates the
content-addressed request cache, the repeat pass must be served from it
>= 5x faster, bit-for-bit identical, with the hit counters visible in
the service metrics snapshot.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro.backends import get_backend
from repro.data.synth import generate_tile_pair
from repro.index.join import mbr_pair_join
from repro.service import ComparisonService, ServiceConfig

_WORKERS = 2
_REQUESTS = 32
_PAIRS_PER_REQUEST = 24


def _request_workloads():
    """`_REQUESTS` small pair lists, the interactive traffic shape."""
    chunks = []
    seed = 300
    while len(chunks) < _REQUESTS:
        set_a, set_b = generate_tile_pair(
            seed=seed, nuclei=200, width=384, height=384
        )
        pairs = mbr_pair_join(set_a, set_b).pairs(set_a, set_b)
        for lo in range(0, len(pairs) - _PAIRS_PER_REQUEST, _PAIRS_PER_REQUEST):
            chunks.append(pairs[lo : lo + _PAIRS_PER_REQUEST])
            if len(chunks) == _REQUESTS:
                break
        seed += 1
    return chunks


def _run_cold(chunks) -> tuple[float, list]:
    """Status quo: construct (and fork) a fresh backend per request."""
    results = []
    t0 = time.perf_counter()
    for chunk in chunks:
        with get_backend(
            "multiprocess", workers=_WORKERS, min_pairs=1
        ) as backend:
            results.append(backend.compare_pairs(chunk))
    return time.perf_counter() - t0, results


def _run_warm(chunks) -> tuple[float, list, object]:
    """Pooled: one warm service, concurrent submits, coalesced dispatch."""

    async def main():
        config = ServiceConfig(
            backend="multiprocess",
            backend_options={"workers": _WORKERS, "min_pairs": 1},
            coalesce_window=0.01,
        )
        async with ComparisonService(config) as service:
            # Warm-up happened in start(); time only the serving phase.
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *(service.submit(c) for c in chunks)
            )
            elapsed = time.perf_counter() - t0
            return elapsed, results, service.snapshot()

    return asyncio.run(main())


def _run_cached(chunks):
    """Cache-enabled warm service: populate pass, then repeat pass."""

    async def main():
        config = ServiceConfig(
            backend="multiprocess",
            backend_options={"workers": _WORKERS, "min_pairs": 1},
            coalesce_window=0.01,
            cache=True,
        )
        async with ComparisonService(config) as service:
            t0 = time.perf_counter()
            first = await asyncio.gather(*(service.submit(c) for c in chunks))
            populate_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            repeat = await asyncio.gather(*(service.submit(c) for c in chunks))
            repeat_s = time.perf_counter() - t0
            return populate_s, repeat_s, first, repeat, service.snapshot()

    return asyncio.run(main())


def test_service_throughput(benchmark, save_report, save_json):
    chunks = _request_workloads()

    def run():
        cold_s, cold_results = _run_cold(chunks)
        warm_s, warm_results, snap = _run_warm(chunks)
        return cold_s, cold_results, warm_s, warm_results, snap

    cold_s, cold_results, warm_s, warm_results, snap = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    populate_s, repeat_s, first_results, repeat_results, cached_snap = (
        _run_cached(chunks)
    )

    # Coalesced dispatch is bit-for-bit the per-request result.
    for cold, warm in zip(cold_results, warm_results):
        assert np.array_equal(cold.intersection, warm.intersection)
        assert np.array_equal(cold.union, warm.union)
        assert np.array_equal(cold.area_p, warm.area_p)
        assert np.array_equal(cold.area_q, warm.area_q)

    # Cached repeats are bit-for-bit the populate pass (and the cold run).
    for cold, first, repeat in zip(
        cold_results, first_results, repeat_results
    ):
        assert np.array_equal(cold.intersection, first.intersection)
        assert np.array_equal(first.intersection, repeat.intersection)
        assert np.array_equal(first.union, repeat.union)
        assert np.array_equal(first.area_p, repeat.area_p)
        assert np.array_equal(first.area_q, repeat.area_q)
        assert first.stats.as_dict() == repeat.stats.as_dict()

    speedup = cold_s / warm_s
    cache_speedup = populate_s / repeat_s
    total_pairs = sum(len(c) for c in chunks)
    lines = [
        "Service throughput - warm pooled serving vs per-call backend "
        "construction",
        f"{_REQUESTS} concurrent requests x {_PAIRS_PER_REQUEST} pairs "
        f"({total_pairs} pairs total), multiprocess workers={_WORKERS}, "
        f"{os.cpu_count()} host core(s)",
        f"{'mode':28s} {'seconds':>9s} {'req/s':>8s}",
        f"{'per-call construction':28s} {cold_s:9.3f} "
        f"{_REQUESTS / cold_s:8.1f}",
        f"{'warm service (coalesced)':28s} {warm_s:9.3f} "
        f"{_REQUESTS / warm_s:8.1f}",
        f"{'warm service (cache miss)':28s} {populate_s:9.3f} "
        f"{_REQUESTS / populate_s:8.1f}",
        f"{'warm service (cache hit)':28s} {repeat_s:9.3f} "
        f"{_REQUESTS / repeat_s:8.1f}",
        f"speedup: {speedup:.1f}x (warm vs cold), "
        f"{cache_speedup:.1f}x (cached repeat vs populate)",
        "",
        "service metrics:",
        snap.render(),
        "",
        "cached service metrics:",
        cached_snap.render(),
    ]
    save_report("service_throughput", "\n".join(lines))
    save_json(
        "BENCH_service_throughput",
        {
            "benchmark": "service_throughput",
            "requests": _REQUESTS,
            "pairs_per_request": _PAIRS_PER_REQUEST,
            "total_pairs": total_pairs,
            "workers": _WORKERS,
            "host_cores": os.cpu_count(),
            "modes": {
                "per_call_construction": {
                    "seconds": cold_s,
                    "requests_per_second": _REQUESTS / cold_s,
                },
                "warm_service": {
                    "seconds": warm_s,
                    "requests_per_second": _REQUESTS / warm_s,
                },
                "cached_populate": {
                    "seconds": populate_s,
                    "requests_per_second": _REQUESTS / populate_s,
                },
                "cached_repeat": {
                    "seconds": repeat_s,
                    "requests_per_second": _REQUESTS / repeat_s,
                },
            },
            "warm_speedup": speedup,
            "cache_speedup": cache_speedup,
            "service_metrics": snap.as_dict(),
            "cached_service_metrics": cached_snap.as_dict(),
        },
    )

    # The acceptance bar: pooled warm serving >= 2x per-call spin-up.
    assert speedup >= 2.0, f"warm service only {speedup:.2f}x faster"
    # ISSUE 7 acceptance: cached repeats >= 5x, hits visible in metrics.
    assert cache_speedup >= 5.0, (
        f"cached repeat only {cache_speedup:.2f}x faster than populate"
    )
    assert cached_snap.request_cache_hits >= _REQUESTS
    assert cached_snap.caches["service.request"]["hits"] >= 1
