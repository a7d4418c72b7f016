"""Unit and integration tests for the pipeline framework."""

import threading
import time

import pytest

from repro import Session
from repro.errors import BufferClosedError, DeviceError, PipelineError
from repro.pipeline.buffers import CLOSED, BoundedBuffer
from repro.pipeline.device import GpuDevice
from repro.pipeline.engine import (
    PipelineOptions,
    run_nopipe_multi,
    run_nopipe_single,
    run_pipelined,
)
from repro.pipeline.migration import MigrationConfig
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon


class TestBoundedBuffer:
    def test_fifo_order(self):
        buf = BoundedBuffer(4)
        for i in range(3):
            buf.put(i)
        assert [buf.get() for _ in range(3)] == [0, 1, 2]

    def test_close_unblocks_consumer(self):
        buf = BoundedBuffer(2)
        seen = []

        def consumer():
            seen.append(buf.get())

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        buf.close()
        t.join(timeout=1)
        assert seen == [CLOSED]

    def test_put_after_close_raises(self):
        buf = BoundedBuffer(2)
        buf.close()
        with pytest.raises(BufferClosedError):
            buf.put(1)

    def test_drain_after_close(self):
        buf = BoundedBuffer(4)
        buf.put("x")
        buf.close()
        assert buf.get() == "x"
        assert buf.get() is CLOSED

    def test_backpressure_blocks_until_get(self):
        buf = BoundedBuffer(1)
        buf.put(1)
        done = []

        def producer():
            buf.put(2)
            done.append(True)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        assert not done
        assert buf.get() == 1
        t.join(timeout=1)
        assert done

    def test_watermarks(self):
        buf = BoundedBuffer(2)
        assert buf.is_empty() and not buf.is_full()
        buf.put(1)
        buf.put(2)
        assert buf.is_full()
        assert buf.stats.puts == 2

    def test_try_get(self):
        buf = BoundedBuffer(2)
        assert buf.try_get() is None
        buf.put(9)
        assert buf.try_get() == 9

    def test_steal_smallest(self):
        buf = BoundedBuffer(4)
        for size in (5, 1, 3):
            buf.put(size)
        assert buf.steal_smallest(key=lambda x: x) == 1
        assert [buf.get(), buf.get()] == [5, 3]

    def test_capacity_validation(self):
        with pytest.raises(PipelineError):
            BoundedBuffer(0)


class TestGpuDevice:
    def _pairs(self):
        a = RectilinearPolygon.from_box(Box(0, 0, 4, 4))
        b = RectilinearPolygon.from_box(Box(2, 2, 6, 6))
        return [(a, b)]

    def test_aggregate_kernel(self):
        device = GpuDevice(launch_overhead=0.0)
        res = device.run_aggregate(self._pairs())
        assert res.intersection[0] == 4
        assert device.stats.launches == 1

    def test_launch_overhead_charged(self):
        device = GpuDevice(launch_overhead=0.01)
        start = time.perf_counter()
        device.run_aggregate(self._pairs())
        assert time.perf_counter() - start >= 0.01
        assert device.stats.overhead_seconds >= 0.01

    def test_slowdown_charged(self):
        fast = GpuDevice(launch_overhead=0.0)
        slow = GpuDevice(launch_overhead=0.0, slowdown=50.0)
        pairs = self._pairs() * 200
        t0 = time.perf_counter()
        fast.run_aggregate(pairs)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow.run_aggregate(pairs)
        t_slow = time.perf_counter() - t0
        assert t_slow > t_fast * 5

    def test_parse_kernel(self):
        device = GpuDevice(launch_overhead=0.0)
        polys = device.run_parse(b"0,0 2,0 2,2 0,2\n")
        assert polys[0].area == 4
        assert device.stats.parse_launches == 1

    def test_exclusive_access_serializes(self):
        device = GpuDevice(launch_overhead=0.01)
        pairs = self._pairs()
        threads = [
            threading.Thread(target=device.run_aggregate, args=(pairs,))
            for _ in range(4)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Four launches at 10ms overhead each cannot overlap.
        assert time.perf_counter() - start >= 0.04
        assert device.stats.lock_wait_seconds > 0

    def test_validation(self):
        with pytest.raises(DeviceError):
            GpuDevice(launch_overhead=-1)
        with pytest.raises(DeviceError):
            GpuDevice(slowdown=0.5)


class TestSchemes:
    def _options(self, **kw):
        return PipelineOptions(
            devices=[GpuDevice(launch_overhead=0.001)], **kw
        )

    def test_pipelined_outcome(self, small_dataset):
        dir_a, dir_b = small_dataset
        out = run_pipelined(dir_a, dir_b, self._options())
        assert 0.3 < out.jaccard_mean < 1.0
        assert out.tiles == 4
        assert out.input_bytes > 0
        assert out.throughput > 0

    @pytest.mark.parametrize(
        "migration", [None, MigrationConfig(cpu_workers=2, poll_seconds=0.001)]
    )
    def test_all_schemes_agree(self, small_dataset, migration):
        """One set of stage bodies serves the workers, the NoPipe loop and
        the migrators, so every scheme counts the same things."""
        dir_a, dir_b = small_dataset
        outs = [
            run_pipelined(dir_a, dir_b, self._options(migration=migration)),
            run_nopipe_single(dir_a, dir_b, self._options(migration=migration)),
            run_nopipe_multi(
                dir_a, dir_b, self._options(migration=migration), streams=3
            ),
        ]
        counts = [
            (o.candidate_pairs, o.intersecting_pairs, o.missing_a,
             o.missing_b, o.count_a, o.count_b, o.tiles)
            for o in outs
        ]
        # The production path is the fourth scheme: the same reduction
        # in a plain per-tile loop, so it is NoPipe-S to the last bit.
        with Session() as session:
            files = session.compare_files(dir_a, dir_b)
        counts.append(
            (files.candidate_pairs, files.intersecting_pairs,
             files.missing_a, files.missing_b, files.count_a, files.count_b,
             files.tiles)
        )
        assert counts[0] == counts[1] == counts[2] == counts[3]
        assert files.jaccard_mean == outs[1].jaccard_mean
        for out in outs:
            assert out.jaccard_mean == pytest.approx(
                files.jaccard_mean, abs=1e-9
            )
            assert {"parser", "builder", "filter", "aggregator"} <= set(
                out.timers.totals
            )

    def test_pipelined_batches_launches(self, small_dataset):
        dir_a, dir_b = small_dataset
        out_s = run_nopipe_single(dir_a, dir_b, self._options())
        out_p = run_pipelined(dir_a, dir_b, self._options())
        # One launch per tile without batching; fewer with it.
        assert out_s.device_stats[0][3] == 4
        assert out_p.device_stats[0][3] <= out_s.device_stats[0][3]

    def test_migration_preserves_results(self, small_dataset):
        dir_a, dir_b = small_dataset
        base = run_pipelined(dir_a, dir_b, self._options())
        migrated = run_pipelined(
            dir_a, dir_b,
            self._options(migration=MigrationConfig(cpu_workers=2)),
        )
        assert migrated.jaccard_mean == pytest.approx(
            base.jaccard_mean, abs=1e-12
        )
        assert migrated.intersecting_pairs == base.intersecting_pairs

    def test_migration_to_cpu_under_congestion(self, small_dataset):
        dir_a, dir_b = small_dataset
        # A very slow device with a tiny buffer forces GPU-to-CPU moves.
        options = PipelineOptions(
            devices=[GpuDevice(launch_overhead=0.05, slowdown=50.0)],
            buffer_capacity=1,
            migration=MigrationConfig(cpu_workers=2, poll_seconds=0.001),
        )
        out = run_pipelined(dir_a, dir_b, options)
        assert out.timers.counts["migrated_cpu_tasks"] > 0
        base = run_pipelined(dir_a, dir_b, self._options())
        assert out.jaccard_mean == pytest.approx(base.jaccard_mean, abs=1e-12)

    def test_two_devices(self, small_dataset):
        dir_a, dir_b = small_dataset
        options = PipelineOptions(
            devices=[GpuDevice("gpu0", 0.001), GpuDevice("gpu1", 0.001)],
            batch_pairs=1,
        )
        out = run_pipelined(dir_a, dir_b, options)
        launches = [stats[3] for stats in out.device_stats]
        assert sum(launches) >= 4 and all(n > 0 for n in launches)

    def test_multi_stream_validation(self, small_dataset):
        dir_a, dir_b = small_dataset
        with pytest.raises(PipelineError):
            run_nopipe_multi(dir_a, dir_b, self._options(), streams=0)

    def test_options_validation(self):
        with pytest.raises(PipelineError):
            PipelineOptions(parser_workers=0)
        with pytest.raises(PipelineError):
            PipelineOptions(batch_pairs=0)


class TestStageClock:
    def test_concurrent_adds_sum_exactly(self):
        """Every stage thread charges the one shared clock; a lost update
        would leave the totals short."""
        import sys

        from repro.obs.clock import StageClock

        timers = StageClock()
        threads_n, adds = 8, 5000

        def work():
            for _ in range(adds):
                timers.add("parser", 1.0)
                with timers.measure("builder"):
                    pass
                timers.count("migrated_gpu_tasks")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert timers.seconds("parser") == threads_n * adds
        assert timers.counts["builder"] == threads_n * adds
        assert timers.counts["migrated_gpu_tasks"] == threads_n * adds
