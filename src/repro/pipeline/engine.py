"""Pipeline assembly and the three execution schemes of Table 1.

* :func:`run_pipelined` — the full SCCG pipeline: four stages over
  bounded buffers, one aggregator consolidating GPU access, optional
  dynamic task migration.
* :func:`run_nopipe_single` — NoPipe-S: the four stages executed
  sequentially per tile in one stream.
* :func:`run_nopipe_multi` — NoPipe-M: several independent NoPipe-S
  streams sharing the device(s) without coordination (the scheme whose
  GPU lock contention the paper measures at ~50% CPU utilization).

All schemes produce identical similarity results; only the execution
topology differs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import PipelineError
from repro.io.tiles import pair_result_sets
from repro.metrics.jaccard import PairwiseJaccard
from repro.obs.clock import StageClock
from repro.obs.trace import context_thread
from repro.pipeline.buffers import BoundedBuffer
from repro.pipeline.device import GpuDevice
from repro.pipeline.migration import (
    MigrationConfig,
    aggregator_migrator,
    parser_migrator,
)
from repro.pipeline.stages import (
    TILE_STAGES,
    aggregate_group,
    aggregator_worker,
    stage_worker,
)
from repro.pipeline.tasks import ParseTask, TileResult
from repro.pixelbox.common import LaunchConfig

__all__ = [
    "PipelineOptions",
    "PipelineOutcome",
    "run_pipelined",
    "run_nopipe_single",
    "run_nopipe_multi",
]


@dataclass(slots=True)
class PipelineOptions:
    """Configuration of one pipeline run."""

    parser_workers: int = 2
    buffer_capacity: int = 8
    batch_pairs: int = 4096
    launch_config: LaunchConfig = field(
        default_factory=lambda: LaunchConfig(tight_mbr=True)
    )
    devices: list[GpuDevice] | None = None
    migration: MigrationConfig | None = None
    #: Execution backend the aggregator's default device dispatches to
    #: (a :mod:`repro.backends` registry name).  Explicitly supplied
    #: devices keep their own backend configuration.
    backend: str = "batch"
    #: Factory keyword arguments for the default device's backend (e.g.
    #: ``{"hosts": "..."}`` for the cluster backend).
    backend_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.parser_workers < 1:
            raise PipelineError("parser_workers must be >= 1")
        if self.batch_pairs < 1:
            raise PipelineError("batch_pairs must be >= 1")

    def make_devices(self) -> list[GpuDevice]:
        """The device list (freshly created default when unset)."""
        if self.devices:
            return self.devices
        return [
            GpuDevice(backend=self.backend, backend_options=self.backend_options)
        ]


@dataclass(slots=True)
class PipelineOutcome:
    """Merged result + performance accounting of one run."""

    jaccard_mean: float
    intersecting_pairs: int
    candidate_pairs: int
    missing_a: int
    missing_b: int
    count_a: int
    count_b: int
    tiles: int
    wall_seconds: float
    input_bytes: int
    #: Busy seconds per stage (``timers.seconds("parser")``, buffer waits
    #: excluded), the ``migrated_*_tasks`` tallies in ``timers.counts``
    #: and the run's wall time; ``timers.report()`` is Table 1's
    #: decomposition.
    timers: StageClock
    device_stats: list[tuple[str, float, float, int]]

    @property
    def throughput(self) -> float:
        """Bytes of raw input per second (the paper's §5.6 metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.input_bytes / self.wall_seconds


def _collect(results: list[TileResult], timers: StageClock,
             devices: list[GpuDevice]) -> PipelineOutcome:
    """Sum the tiles' partials, in tile order, into the final outcome."""
    results = sorted(results, key=lambda r: r.tile_id)
    total = sum((r.partial for r in results), PairwiseJaccard())
    return PipelineOutcome(
        jaccard_mean=total.mean_ratio,
        intersecting_pairs=total.intersecting_pairs,
        candidate_pairs=total.candidate_pairs,
        missing_a=total.missing_a,
        missing_b=total.missing_b,
        count_a=total.count_a,
        count_b=total.count_b,
        tiles=len(results),
        wall_seconds=timers.wall_total,
        input_bytes=sum(r.input_bytes for r in results),
        timers=timers,
        device_stats=[
            (d.name, d.stats.busy_seconds, d.stats.lock_wait_seconds,
             d.stats.launches + d.stats.parse_launches)
            for d in devices
        ],
    )


def _make_parse_tasks(dir_a: str | Path, dir_b: str | Path) -> list[ParseTask]:
    return [
        ParseTask(pair.tile_id, pair.file_a, pair.file_b)
        for pair in pair_result_sets(dir_a, dir_b)
    ]


# ----------------------------------------------------------------------
# Pipelined scheme
# ----------------------------------------------------------------------
def run_pipelined(
    dir_a: str | Path,
    dir_b: str | Path,
    options: PipelineOptions | None = None,
) -> PipelineOutcome:
    """Run the full SCCG pipeline over two result-set directories."""
    opts = options or PipelineOptions()
    devices = opts.make_devices()
    tasks = _make_parse_tasks(dir_a, dir_b)
    timers = StageClock("pipeline.")

    parse_in: BoundedBuffer[ParseTask] = BoundedBuffer(
        max(len(tasks), 1), "parse_in"
    )
    parsed = BoundedBuffer(opts.buffer_capacity, "parsed")
    built = BoundedBuffer(opts.buffer_capacity, "built")
    batches = BoundedBuffer(opts.buffer_capacity, "batches")
    results: BoundedBuffer[TileResult] = BoundedBuffer(
        max(len(tasks) * 4, 16), "results"
    )
    for task in tasks:
        parse_in.put(task)
    parse_in.close()

    failures: list[BaseException] = []

    def stage_thread(name, fn, *args) -> threading.Thread:
        def guarded():
            try:
                fn(*args)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failures.append(exc)
                for buf in (parsed, built, batches, results):
                    buf.close()
        return context_thread(guarded, name=name)

    stop_migration = threading.Event()
    parser, builder, filter_ = TILE_STAGES
    parser_threads = [
        stage_thread(
            f"parser-{i}", stage_worker, *parser, parse_in, parsed, timers
        )
        for i in range(opts.parser_workers)
    ]
    builder_thread = stage_thread(
        "builder", stage_worker, *builder, parsed, built, timers
    )
    filter_thread = stage_thread(
        "filter", stage_worker, *filter_, built, batches, timers
    )
    aggregator_thread = stage_thread(
        "aggregator", aggregator_worker, batches, results, devices,
        opts.launch_config, opts.batch_pairs, timers,
    )
    migration_threads: list[threading.Thread] = []
    if opts.migration is not None:
        migration_threads = [
            stage_thread(
                "migrator-aggregator", aggregator_migrator, batches, results,
                opts.launch_config, opts.migration, timers, stop_migration,
            ),
            stage_thread(
                "migrator-parser", parser_migrator, parse_in, parsed, batches,
                devices, opts.migration, timers, stop_migration,
            ),
        ]

    with timers.run():
        for thread in (
            parser_threads
            + [builder_thread, filter_thread, aggregator_thread]
            + migration_threads
        ):
            thread.start()

        for thread in parser_threads:
            thread.join()
        if migration_threads:
            migration_threads[1].join()  # parser migrator drains parse_in too
        parsed.close()
        builder_thread.join()
        built.close()
        filter_thread.join()
        batches.close()
        aggregator_thread.join()
        if migration_threads:
            stop_migration.set()
            migration_threads[0].join()
        results.close()

    if failures:
        raise PipelineError("pipeline stage failed") from failures[0]

    collected: list[TileResult] = []
    while True:
        item = results.try_get()
        if item is None:
            break
        collected.append(item)
    return _collect(collected, timers, devices)


# ----------------------------------------------------------------------
# Non-pipelined schemes
# ----------------------------------------------------------------------
def _process_tile_sequential(
    task: ParseTask,
    devices: list[GpuDevice],
    config: LaunchConfig,
    timers: StageClock,
    cursor: int,
) -> TileResult:
    """All four stages inline for one tile (one NoPipe iteration)."""
    item = task
    for stage, body in TILE_STAGES:
        with timers.measure(stage, tile=task.tile_id):
            item = body(item)
    device = devices[cursor % len(devices)]
    with timers.measure("aggregator", tiles=1, pairs=item.size):
        return aggregate_group(
            [item],
            lambda pairs: device.run_aggregate(pairs, config),
            device.name,
        )[0]


def run_nopipe_single(
    dir_a: str | Path,
    dir_b: str | Path,
    options: PipelineOptions | None = None,
) -> PipelineOutcome:
    """NoPipe-S: one stream, stages executed sequentially per tile."""
    opts = options or PipelineOptions()
    devices = opts.make_devices()
    tasks = _make_parse_tasks(dir_a, dir_b)
    timers = StageClock("pipeline.")
    with timers.run():
        results = [
            _process_tile_sequential(
                task, devices, opts.launch_config, timers, k
            )
            for k, task in enumerate(tasks)
        ]
    return _collect(results, timers, devices)


def run_nopipe_multi(
    dir_a: str | Path,
    dir_b: str | Path,
    options: PipelineOptions | None = None,
    streams: int = 4,
) -> PipelineOutcome:
    """NoPipe-M: ``streams`` uncoordinated NoPipe-S streams, shared GPU."""
    if streams < 1:
        raise PipelineError(f"streams must be >= 1, got {streams}")
    opts = options or PipelineOptions()
    devices = opts.make_devices()
    tasks = _make_parse_tasks(dir_a, dir_b)
    timers = StageClock("pipeline.")
    results: list[TileResult] = []
    results_lock = threading.Lock()
    failures: list[BaseException] = []

    def stream_body(my_tasks: list[ParseTask]) -> None:
        try:
            local = [
                _process_tile_sequential(
                    task, devices, opts.launch_config, timers, k
                )
                for k, task in enumerate(my_tasks)
            ]
            with results_lock:
                results.extend(local)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures.append(exc)

    threads = [
        context_thread(stream_body, tasks[i::streams]) for i in range(streams)
    ]
    with timers.run():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        raise PipelineError("NoPipe-M stream failed") from failures[0]
    return _collect(results, timers, devices)
