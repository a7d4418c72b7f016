"""Edge-case and parity tests for the async comparison service.

The load-bearing guarantee: the micro-batching coalescer changes *when*
pairs are computed, never *what* — a merged dispatch is bit-for-bit the
same as per-request ``compare_pairs`` calls.  Around that, the admission
and cancellation paths the issue names: queue-full rejection, timeout
while a batch is in flight, cancellation mid-batch, and graceful
shutdown draining every accepted request.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.api import CompareOptions
from repro.backends import get_backend
from repro.backends.base import BackendLifecycle
from repro.data.synth import generate_tile_pair
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.index.join import mbr_pair_join
from repro.service import ComparisonService, ServiceConfig


def _request_chunks(n_chunks: int = 6, chunk: int = 12):
    """Small concurrent-request workloads from one synthetic tile."""
    set_a, set_b = generate_tile_pair(seed=77, nuclei=120, width=384, height=384)
    pairs = mbr_pair_join(set_a, set_b).pairs(set_a, set_b)
    assert len(pairs) >= n_chunks * chunk
    return [pairs[i * chunk : (i + 1) * chunk] for i in range(n_chunks)]


class SlowBackend(BackendLifecycle):
    """Test double: correct results, controllable latency."""

    name = "slow-stub"
    description = "delegates to batch after a fixed delay"

    def __init__(self, delay: float = 0.2):
        self.delay = delay
        self.calls = 0
        self.launches: list[int] = []  # pairs per compare_pairs call
        self.closed = False
        self._inner = get_backend("batch")

    def compare_pairs(self, pairs, config=None):
        self.calls += 1
        self.launches.append(len(pairs))
        time.sleep(self.delay)
        return self._inner.compare_pairs(pairs, config)

    def close(self):
        self.closed = True


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_batch_pairs=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_batch_pairs=None)
        with pytest.raises(ServiceError):
            ServiceConfig(coalesce_window=-0.1)
        with pytest.raises(ServiceError):
            ServiceConfig(default_timeout=0.0)

    def test_submit_before_start_raises(self):
        async def main():
            service = ComparisonService()
            with pytest.raises(ServiceClosedError):
                await service.submit([])

        asyncio.run(main())

    def test_backend_rejecting_options_fails_with_service_error(self):
        """`--workers` against a factory that takes none must not
        surface as a bare constructor TypeError."""

        async def main():
            config = ServiceConfig(
                CompareOptions(backend="batch", backend_options={"workers": 4})
            )
            with pytest.raises(ServiceError, match="rejected options"):
                await ComparisonService(config).start()

        asyncio.run(main())


class TestCoalescedParity:
    def test_coalesced_equals_sequential_bit_for_bit(self):
        """Merged dispatches return exactly what per-request calls do."""
        chunks = _request_chunks()

        async def main():
            config = ServiceConfig(
                CompareOptions(backend="batch"), coalesce_window=0.05
            )
            async with ComparisonService(config) as service:
                results = await asyncio.gather(
                    *(service.submit(c) for c in chunks)
                )
                snap = service.snapshot()
            return results, snap

        results, snap = asyncio.run(main())
        reference = get_backend("batch")
        for chunk, got in zip(chunks, results):
            want = reference.compare_pairs(chunk)
            assert np.array_equal(got.intersection, want.intersection)
            assert np.array_equal(got.union, want.union)
            assert np.array_equal(got.area_p, want.area_p)
            assert np.array_equal(got.area_q, want.area_q)
            assert got.stats.pairs == len(chunk)
        # The point of the service: concurrent requests shared dispatches.
        assert snap.batches < snap.requests
        assert snap.completed == len(chunks)
        assert snap.pairs == sum(len(c) for c in chunks)

    def test_mismatched_configs_do_not_share_a_dispatch(self):
        from repro.pixelbox.common import LaunchConfig

        chunks = _request_chunks(n_chunks=2)
        cfg_b = LaunchConfig(block_size=16)

        async def main():
            config = ServiceConfig(
                CompareOptions(backend="batch"), coalesce_window=0.05
            )
            async with ComparisonService(config) as service:
                got_a, got_b = await asyncio.gather(
                    service.submit(chunks[0]),
                    service.submit(chunks[1], config=cfg_b),
                )
                snap = service.snapshot()
            return got_a, got_b, snap

        got_a, got_b, snap = asyncio.run(main())
        reference = get_backend("batch")
        want_a = reference.compare_pairs(chunks[0])
        want_b = reference.compare_pairs(chunks[1], cfg_b)
        assert np.array_equal(got_a.intersection, want_a.intersection)
        assert np.array_equal(got_b.intersection, want_b.intersection)
        assert snap.batches == 2  # incompatible configs kept apart


class TestAdmissionControl:
    def test_queue_full_rejects_immediately(self):
        chunks = _request_chunks(n_chunks=3)
        backend = SlowBackend(delay=0.3)

        async def main():
            config = ServiceConfig(max_queue=1, coalesce_window=0.0)
            async with ComparisonService(config, backend=backend) as service:
                first = asyncio.ensure_future(service.submit(chunks[0]))
                await asyncio.sleep(0.1)  # dispatcher is now mid-batch
                second = asyncio.ensure_future(service.submit(chunks[1]))
                await asyncio.sleep(0)  # let it occupy the single slot
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(chunks[2])
                snap = service.snapshot()
                await asyncio.gather(first, second)
            return snap

        snap = asyncio.run(main())
        assert snap.rejected == 1

    def test_timeout_while_batch_in_flight(self):
        chunks = _request_chunks(n_chunks=2)
        backend = SlowBackend(delay=0.4)

        async def main():
            async with ComparisonService(backend=backend) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(chunks[0], timeout=0.05)
                # The service survives an abandoned request: the next
                # one is answered normally by the same warm backend.
                result = await service.submit(chunks[1])
                snap = service.snapshot()
            return result, snap

        result, snap = asyncio.run(main())
        want = get_backend("batch").compare_pairs(chunks[1])
        assert np.array_equal(result.intersection, want.intersection)
        assert snap.timeouts == 1
        assert snap.completed == 1

    def test_cancellation_mid_batch_spares_co_riders(self):
        chunks = _request_chunks(n_chunks=2)
        backend = SlowBackend(delay=0.3)

        async def main():
            config = ServiceConfig(coalesce_window=0.05)
            async with ComparisonService(config, backend=backend) as service:
                doomed = asyncio.ensure_future(service.submit(chunks[0]))
                survivor = asyncio.ensure_future(service.submit(chunks[1]))
                await asyncio.sleep(0.15)  # both coalesced, batch in flight
                doomed.cancel()
                result = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                snap = service.snapshot()
            return result, snap

        result, snap = asyncio.run(main())
        want = get_backend("batch").compare_pairs(chunks[1])
        assert np.array_equal(result.intersection, want.intersection)
        assert np.array_equal(result.union, want.union)
        assert backend.calls == 1  # one merged dispatch served both
        assert snap.cancelled == 1
        assert snap.completed == 1


class TestShutdown:
    def test_graceful_close_drains_accepted_requests(self):
        chunks = _request_chunks(n_chunks=3)
        backend = SlowBackend(delay=0.05)

        async def main():
            service = await ComparisonService(backend=backend).start()
            submitted = [
                asyncio.ensure_future(service.submit(c)) for c in chunks
            ]
            await asyncio.sleep(0)  # all three are in the queue
            await service.close()  # graceful: drain before releasing
            assert all(task.done() for task in submitted)
            results = [task.result() for task in submitted]
            with pytest.raises(ServiceClosedError):
                await service.submit(chunks[0])
            return results

        results = asyncio.run(main())
        reference = get_backend("batch")
        for chunk, got in zip(chunks, results):
            want = reference.compare_pairs(chunk)
            assert np.array_equal(got.intersection, want.intersection)
        assert backend.closed

    def test_abort_close_cancels_pending(self):
        chunks = _request_chunks(n_chunks=2)
        backend = SlowBackend(delay=0.3)

        async def main():
            service = await ComparisonService(backend=backend).start()
            in_flight = asyncio.ensure_future(service.submit(chunks[0]))
            await asyncio.sleep(0.1)  # first request is mid-batch
            queued = asyncio.ensure_future(service.submit(chunks[1]))
            await asyncio.sleep(0)
            await service.close(drain=False)
            with pytest.raises(asyncio.CancelledError):
                await queued
            with pytest.raises(asyncio.CancelledError):
                await in_flight
            return True

        assert asyncio.run(main())
        assert backend.closed

    def test_abort_close_waits_for_the_running_launch(self):
        """``close(drain=False)`` abandons the launch in flight, but the
        backend is closed only after that launch returns, and the event
        loop keeps running meanwhile."""
        chunk = _request_chunks(n_chunks=1)[0]
        started, release = threading.Event(), threading.Event()
        events = []

        class BlockingBackend(SlowBackend):
            def compare_pairs(self, pairs, config=None):
                started.set()
                assert release.wait(10)
                events.append("launch returned")
                return self._inner.compare_pairs(pairs, config)

            def close(self):
                events.append("close")
                super().close()

        backend = BlockingBackend()

        async def main():
            service = await ComparisonService(backend=backend).start()
            in_flight = asyncio.ensure_future(service.submit(chunk))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, 10)
            closing = asyncio.ensure_future(service.close(drain=False))
            await asyncio.sleep(0.2)  # the loop is not blocked
            assert events == [] and not closing.done()
            release.set()
            await closing
            with pytest.raises(asyncio.CancelledError):
                await in_flight

        asyncio.run(main())
        assert events == ["launch returned", "close"]

    def test_close_is_idempotent(self):
        async def main():
            service = await ComparisonService().start()
            await service.close()
            await service.close()
            return True

        assert asyncio.run(main())


class TestWarmMultiprocessService:
    def test_service_pools_persistent_multiprocess_backend(self):
        """One warm pool serves every dispatch of the service, and
        closing the service joins its workers."""
        chunks = _request_chunks(n_chunks=2)

        async def main():
            config = ServiceConfig(
                CompareOptions(
                    backend="multiprocess",
                    backend_options={"workers": 2, "min_pairs": 1},
                )
            )
            async with ComparisonService(config) as service:
                warm_pids = service.backend.warm()  # already-warm pool
                # One request at a time: two dispatches.
                results = [await service.submit(c) for c in chunks]
                after_pids = service.backend.warm()
                batches = service.snapshot().batches
            return warm_pids, after_pids, batches, results

        warm_pids, after_pids, batches, results = asyncio.run(main())
        assert batches == 2
        assert warm_pids == after_pids  # same workers across dispatches
        alive = {p.pid for p in multiprocessing.active_children()}
        assert not set(warm_pids) & alive, "workers survived close()"
        reference = get_backend("batch")
        for chunk, got in zip(chunks, results):
            want = reference.compare_pairs(chunk)
            assert np.array_equal(got.intersection, want.intersection)
            assert np.array_equal(got.union, want.union)


class TestPoisonRequest:
    def test_unprofilable_request_fails_alone(self):
        """A request whose pairs cannot be profiled errors out without
        killing the dispatcher; the service keeps serving."""
        chunks = _request_chunks(n_chunks=1)

        async def main():
            async with ComparisonService() as service:
                with pytest.raises(AttributeError):
                    await service.submit([("not", "a polygon")])
                # The dispatcher survived: a valid request still works.
                result = await service.submit(chunks[0])
                snap = service.snapshot()
            return result, snap

        result, snap = asyncio.run(main())
        want = get_backend("batch").compare_pairs(chunks[0])
        assert np.array_equal(result.intersection, want.intersection)
        assert snap.failures == 1
        assert snap.completed == 1


class TestCoalescerSplit:
    def test_max_batch_pairs_splits_concurrent_requests(self):
        """A bound the queued work exceeds keeps launches at the bound."""
        chunks = _request_chunks(n_chunks=6, chunk=12)
        backend = SlowBackend(delay=0.0)

        async def main():
            config = ServiceConfig(max_batch_pairs=12, coalesce_window=0.05)
            async with ComparisonService(config, backend=backend) as service:
                return await asyncio.gather(
                    *(service.submit(c) for c in chunks)
                )

        results = asyncio.run(main())
        assert len(backend.launches) >= 6
        assert max(backend.launches) <= 12
        reference = get_backend("batch")
        for chunk, got in zip(chunks, results):
            want = reference.compare_pairs(chunk)
            assert np.array_equal(got.intersection, want.intersection)
            assert np.array_equal(got.union, want.union)
            assert np.array_equal(got.area_p, want.area_p)
            assert np.array_equal(got.area_q, want.area_q)
