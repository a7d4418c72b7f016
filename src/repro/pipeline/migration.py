"""Dynamic task migration between CPUs and GPUs (paper §4.2).

Two background migration threads sleep until the aggregator's input
buffer hits a watermark:

* **GPU congested** (buffer full): the aggregator migrator steals the
  *smallest* batches from the aggregator's input and executes them on a
  CPU-side execution backend resolved through the registry
  (:mod:`repro.backends` — vectorized by default, the multiprocess
  shards on big CPU hosts), feeding results directly to the collector.
* **GPU idle** (buffer empty): the parser migrator steals parse tasks
  from the parser's input and runs them through the GPU-Parser kernel,
  feeding parsed tiles back into the builder's input.

Both threads poll the watermarks at millisecond granularity — the
"usually stay in the sleeping state and are only woken up" behaviour of
the paper's implementation, without platform-specific futexes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.backends import available_backends, get_backend
from repro.errors import MigrationError
from repro.obs.clock import StageClock
from repro.pipeline.buffers import BoundedBuffer
from repro.pipeline.device import GpuDevice
from repro.pipeline.stages import aggregate_group, parse_tile
from repro.pipeline.tasks import FilteredBatch, ParsedTile, ParseTask, TileResult
from repro.pixelbox.common import LaunchConfig

__all__ = ["MigrationConfig", "aggregator_migrator", "parser_migrator"]

_POLL_SECONDS = 0.002


@dataclass(frozen=True, slots=True)
class MigrationConfig:
    """Tuning knobs of the migration component.

    ``backend`` names the registry executor migrated aggregator batches
    run on (every backend is bit-for-bit identical, so this is purely a
    throughput knob).  The default ``"vectorized"`` engine runs the
    whole stolen batch level-synchronously in the migrator thread and
    takes no worker count; ``"multiprocess"`` lets a big CPU host absorb
    congestion with the sharded pool, and there ``cpu_workers`` is its
    process count (unless ``backend_options`` overrides it) — the pool
    is persistent for the migrator's lifetime, so it forks once per
    pipeline run, not once per stolen batch.
    """

    cpu_workers: int = 2
    poll_seconds: float = _POLL_SECONDS
    backend: str = "vectorized"
    backend_options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cpu_workers < 1:
            raise MigrationError(
                f"cpu_workers must be >= 1, got {self.cpu_workers}"
            )
        if self.poll_seconds <= 0:
            raise MigrationError("poll interval must be positive")
        if self.backend not in available_backends():
            # Fail at configuration time: a typo here must not abort a
            # long pipeline run from inside a migrator thread.
            raise MigrationError(
                f"unknown migration backend {self.backend!r} "
                f"(registered: {', '.join(available_backends())})"
            )

    def resolve_backend(self):
        """Instantiate the migration executor through the registry."""
        options = dict(self.backend_options)
        if self.backend == "multiprocess":
            options.setdefault("workers", self.cpu_workers)
            options.setdefault("persistent", True)
        return get_backend(self.backend, **options)


def aggregator_migrator(
    batches_in: BoundedBuffer[FilteredBatch],
    results_out: BoundedBuffer[TileResult],
    config: LaunchConfig,
    migration: MigrationConfig,
    timers: StageClock,
    stop: threading.Event,
) -> None:
    """GPU-to-CPU migration: absorb small batches when the GPU clogs.

    The executor is resolved once per migrator thread through the
    backend registry and closed on exit, so a pooled backend (e.g.
    persistent multiprocess workers) spins up at most once per pipeline
    run, not once per stolen batch.
    """
    with migration.resolve_backend() as backend:
        while not stop.is_set():
            if batches_in.closed and batches_in.is_empty():
                return
            if not batches_in.is_full():
                time.sleep(migration.poll_seconds)
                continue
            batch = batches_in.steal_smallest(key=lambda b: b.size)
            if batch is None:
                continue
            with timers.measure(
                "aggregator", tiles=1, pairs=batch.size, migrated=True
            ):
                for result in aggregate_group(
                    [batch],
                    lambda pairs: backend.compare_pairs(pairs, config),
                    "cpu",
                ):
                    results_out.put(result)
            timers.count("migrated_cpu_tasks")


def parser_migrator(
    parse_in: BoundedBuffer[ParseTask],
    parsed_out: BoundedBuffer[ParsedTile],
    batches_in: BoundedBuffer[FilteredBatch],
    devices: list[GpuDevice],
    migration: MigrationConfig,
    timers: StageClock,
    stop: threading.Event,
) -> None:
    """CPU-to-GPU migration: parse on an idle device.

    The idleness signal is the paper's: the aggregator's input buffer ran
    empty, meaning the GPUs are starved for work.  An empty buffer that
    has *never held a batch* is not starvation — it is the pipeline
    still filling — so migration waits for the first batch to have
    flowed through before trusting the watermark (otherwise every run
    would open by dumping parse work on the device during warm-up).
    """
    while not stop.is_set():
        if parse_in.closed and parse_in.is_empty():
            return
        if batches_in.closed:
            # Downstream shut down (run finished or a stage failed):
            # parse work has nowhere to flow, stop migrating it.
            return
        if batches_in.stats.puts == 0 or not batches_in.is_empty():
            time.sleep(migration.poll_seconds)
            continue
        device = next((d for d in devices if d.try_acquire_idle()), None)
        if device is None:
            time.sleep(migration.poll_seconds)
            continue
        task = parse_in.try_get()
        if task is None:
            time.sleep(migration.poll_seconds)
            continue
        with timers.measure("parser", tile=task.tile_id, migrated=True):
            tile = parse_tile(task, device.run_parse)
        timers.count("migrated_gpu_tasks")
        parsed_out.put(tile)
