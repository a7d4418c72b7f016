"""Edge-case tests for the dynamic task-migration component.

Covers the paths the happy-path pipeline tests never reach: migration
disabled, migration against a device with zero idle capacity, warm-up
gating of the parser migrator, and migrator-thread shutdown when the
pipeline fails or when the stop event fires.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import MigrationError, PipelineError
from repro.io.tiles import tile_name
from repro.obs.clock import StageClock
from repro.pipeline.buffers import BoundedBuffer
from repro.pipeline.device import GpuDevice
from repro.pipeline.engine import PipelineOptions, run_pipelined
from repro.pipeline.migration import (
    MigrationConfig,
    aggregator_migrator,
    parser_migrator,
)
from repro.pipeline.tasks import ParseTask
from repro.pixelbox.common import LaunchConfig

_FAST_POLL = MigrationConfig(cpu_workers=1, poll_seconds=0.001)


class TestMigrationConfig:
    def test_rejects_zero_workers(self):
        with pytest.raises(MigrationError):
            MigrationConfig(cpu_workers=0)

    def test_rejects_nonpositive_poll(self):
        with pytest.raises(MigrationError):
            MigrationConfig(poll_seconds=0.0)

    def test_unknown_backend_rejected_at_construction(self):
        # A typo must fail when the config is built, not mid-run inside
        # a migrator thread.
        with pytest.raises(MigrationError):
            MigrationConfig(backend="not-a-backend")

    def test_multiprocess_backend_inherits_cpu_workers(self):
        backend = MigrationConfig(
            cpu_workers=3, backend="multiprocess"
        ).resolve_backend()
        with backend:
            assert backend.workers == 3


class TestAggregatorMigratorBackendRouting:
    """Migrated batches run on a registry executor, not a private engine."""

    @pytest.mark.parametrize("backend", ["vectorized", "batch"])
    def test_stolen_batch_executes_on_registry_backend(self, backend):
        import numpy as np

        from repro.data.synth import generate_tile_pair
        from repro.index.join import mbr_pair_join
        from repro.pipeline.tasks import FilteredBatch
        from repro.backends import get_backend

        set_a, set_b = generate_tile_pair(
            seed=21, nuclei=30, width=128, height=128
        )
        join = mbr_pair_join(set_a, set_b)
        pairs = join.pairs(set_a, set_b)
        batch = FilteredBatch(
            tile_id=0,
            pairs=pairs,
            left_idx=join.left_idx,
            right_idx=join.right_idx,
            count_a=len(set_a),
            count_b=len(set_b),
        )
        batches = BoundedBuffer(1, "batches")
        results = BoundedBuffer(8, "results")
        batches.put(batch)  # capacity 1 -> the buffer is now "full"
        batches.close()
        timers = StageClock()

        aggregator_migrator(
            batches, results, LaunchConfig(),
            MigrationConfig(cpu_workers=1, backend=backend),
            timers, threading.Event(),
        )

        assert timers.counts["migrated_cpu_tasks"] == 1
        result = results.try_get()
        assert result is not None
        assert result.executed_on == "cpu"
        # The migrated result matches a direct backend launch exactly.
        with get_backend(backend) as direct:
            areas = direct.compare_pairs(pairs, LaunchConfig())
        hit = areas.intersection > 0
        partial = result.partial
        assert partial.intersecting_pairs == int(hit.sum())
        assert partial.candidate_pairs == len(pairs)
        ratios = areas.ratios()
        assert partial.ratio_sum == pytest.approx(float(ratios[hit].sum()))
        assert partial.missing_a == len(set_a) - len(
            np.unique(join.left_idx[hit])
        )


class TestMigrationDisabled:
    def test_no_migration_threads_no_migrated_tasks(self, small_dataset):
        dir_a, dir_b = small_dataset
        out = run_pipelined(
            dir_a, dir_b,
            PipelineOptions(
                devices=[GpuDevice(launch_overhead=0.0)], migration=None
            ),
        )
        assert out.timers.counts["migrated_cpu_tasks"] == 0
        assert out.timers.counts["migrated_gpu_tasks"] == 0
        assert out.tiles == 4


class TestZeroGpuCapacity:
    """Parser migration against a device that is never idle."""

    def test_busy_device_absorbs_nothing(self, tmp_path):
        device = GpuDevice(launch_overhead=0.0)
        parse_in: BoundedBuffer[ParseTask] = BoundedBuffer(4, "parse_in")
        parsed = BoundedBuffer(4, "parsed")
        batches = BoundedBuffer(4, "batches")
        timers = StageClock()
        stop = threading.Event()

        tile = tmp_path / tile_name(0)
        tile.write_text("0,0 4,0 4,4 0,4\n")
        parse_in.put(ParseTask(0, tile, tile))
        # Batches has flowed (warm-up passed) and is now empty: the
        # migrator would migrate — except the device lock is held.
        batches.put(object())
        batches.try_get()

        with device._lock:  # noqa: SLF001 - simulate permanent occupancy
            thread = threading.Thread(
                target=parser_migrator,
                args=(parse_in, parsed, batches, [device], _FAST_POLL,
                      timers, stop),
                daemon=True,
            )
            thread.start()
            time.sleep(0.05)
            assert timers.counts["migrated_gpu_tasks"] == 0
            assert len(parsed) == 0
            stop.set()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert device.stats.parse_launches == 0

    def test_idle_device_absorbs_task(self, tmp_path):
        device = GpuDevice(launch_overhead=0.0)
        parse_in: BoundedBuffer[ParseTask] = BoundedBuffer(4, "parse_in")
        parsed = BoundedBuffer(4, "parsed")
        batches = BoundedBuffer(4, "batches")
        timers = StageClock()
        stop = threading.Event()

        tile = tmp_path / tile_name(0)
        tile.write_text("0,0 4,0 4,4 0,4\n")
        parse_in.put(ParseTask(0, tile, tile))
        parse_in.close()
        batches.put(object())
        batches.try_get()

        parser_migrator(
            parse_in, parsed, batches, [device], _FAST_POLL, timers, stop
        )
        assert timers.counts["migrated_gpu_tasks"] == 1
        assert device.stats.parse_launches == 2  # file_a + file_b
        assert len(parsed) == 1

    def test_warmup_gate_blocks_cold_migration(self, tmp_path):
        """An empty buffer that never held a batch is not GPU idleness."""
        device = GpuDevice(launch_overhead=0.0)
        parse_in: BoundedBuffer[ParseTask] = BoundedBuffer(4, "parse_in")
        parsed = BoundedBuffer(4, "parsed")
        batches = BoundedBuffer(4, "batches")
        timers = StageClock()
        stop = threading.Event()

        tile = tmp_path / tile_name(0)
        tile.write_text("0,0 4,0 4,4 0,4\n")
        parse_in.put(ParseTask(0, tile, tile))

        thread = threading.Thread(
            target=parser_migrator,
            args=(parse_in, parsed, batches, [device], _FAST_POLL,
                  timers, stop),
            daemon=True,
        )
        thread.start()
        time.sleep(0.05)
        assert timers.counts["migrated_gpu_tasks"] == 0  # gate held it back
        stop.set()
        thread.join(timeout=2.0)
        assert not thread.is_alive()


class TestMigratorShutdown:
    def test_parser_migrator_exits_when_downstream_closes(self, tmp_path):
        """A failed pipeline closes ``batches``; the migrator must not
        keep waiting for warm-up while ``parse_in`` still holds tasks."""
        parse_in: BoundedBuffer[ParseTask] = BoundedBuffer(4, "parse_in")
        parsed = BoundedBuffer(4, "parsed")
        batches = BoundedBuffer(4, "batches")
        tile = tmp_path / tile_name(0)
        tile.write_text("0,0 4,0 4,4 0,4\n")
        parse_in.put(ParseTask(0, tile, tile))
        parse_in.close()  # closed but NOT empty
        batches.close()  # downstream failed before any batch flowed

        thread = threading.Thread(
            target=parser_migrator,
            args=(parse_in, parsed, batches, [GpuDevice(launch_overhead=0.0)],
                  _FAST_POLL, StageClock(), threading.Event()),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=2.0)
        assert not thread.is_alive()

    def test_aggregator_migrator_exits_on_closed_empty_input(self):
        batches = BoundedBuffer(2, "batches")
        results = BoundedBuffer(8, "results")
        batches.close()
        # Returns immediately: closed + empty input means no work will come.
        aggregator_migrator(
            batches, results, LaunchConfig(), _FAST_POLL, StageClock(),
            threading.Event(),
        )

    def test_aggregator_migrator_honors_stop_event(self):
        batches = BoundedBuffer(2, "batches")
        results = BoundedBuffer(8, "results")
        stop = threading.Event()
        thread = threading.Thread(
            target=aggregator_migrator,
            args=(batches, results, LaunchConfig(), _FAST_POLL,
                  StageClock(), stop),
            daemon=True,
        )
        thread.start()
        time.sleep(0.02)
        assert thread.is_alive()  # input open: migrator keeps polling
        stop.set()
        thread.join(timeout=2.0)
        assert not thread.is_alive()

    def test_pipeline_error_shuts_migrators_down(self, tmp_path):
        """A failing stage must not leave migration threads spinning."""
        for side in ("result_a", "result_b"):
            d = tmp_path / side
            d.mkdir()
            for t in range(3):
                (d / tile_name(t)).write_text("0,0 4,0 4,4 0,4\n")
        (tmp_path / "result_a" / tile_name(1)).write_text("0,0 4,0 4\n")

        before = threading.active_count()
        with pytest.raises(PipelineError):
            run_pipelined(
                tmp_path / "result_a", tmp_path / "result_b",
                PipelineOptions(
                    devices=[GpuDevice(launch_overhead=0.0)],
                    migration=_FAST_POLL,
                ),
            )
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
