"""The paper's §4 execution schemes, reproduced against a modeled device.

The pipelined framework with dynamic task migration, NoPipe-S and
NoPipe-M are what ``experiments/table1_pipeline.py``,
``fig11_migration.py`` and ``fig12_datasets.py`` drive; the device is
:class:`GpuDevice`, a lock plus a simulated per-launch overhead around a
registry backend.  Nothing on the production path imports this package:
:meth:`repro.Session.compare_files` is a plain per-tile loop, because on
one CPU under the GIL the threaded scheme measured slower than its own
stages in sequence (ROADMAP, parallelism verdict (a)).

Per-stage busy time is a :class:`repro.obs.clock.StageClock`
(``PipelineOutcome.timers``); :mod:`repro.pipeline.stages` holds each
stage body once, shared by the workers, the NoPipe schemes and the
migrators.
"""

from repro.pipeline.buffers import BoundedBuffer, BufferStats
from repro.pipeline.device import DeviceStats, GpuDevice
from repro.pipeline.engine import (
    PipelineOptions,
    PipelineOutcome,
    run_nopipe_multi,
    run_nopipe_single,
    run_pipelined,
)
from repro.pipeline.migration import MigrationConfig
from repro.pipeline.tasks import (
    BuiltTile,
    FilteredBatch,
    ParsedTile,
    ParseTask,
    TileResult,
)

__all__ = [
    "BoundedBuffer",
    "BufferStats",
    "GpuDevice",
    "DeviceStats",
    "PipelineOptions",
    "PipelineOutcome",
    "run_pipelined",
    "run_nopipe_single",
    "run_nopipe_multi",
    "MigrationConfig",
    "ParseTask",
    "ParsedTile",
    "BuiltTile",
    "FilteredBatch",
    "TileResult",
]
