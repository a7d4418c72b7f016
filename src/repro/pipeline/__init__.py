"""The SCCG pipelined framework with dynamic task migration (paper §4).

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
