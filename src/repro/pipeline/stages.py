"""The four pipeline stages (paper §4.1, Figure 6).

Each stage body is written once here — :func:`parse_tile`,
:func:`build_tile`, :func:`filter_tile`, :func:`aggregate_group` — and is
called under ``timers.measure(stage)`` (one busy-time bucket, one span
when traced) by the workers below, by the NoPipe schemes' inline loop
and by both migrators.

Each worker consumes its input buffer and feeds its output buffer:
parser (CPU, multiple workers), builder (CPU, single worker — "its
execution speed is already very fast"), filter (CPU, single worker) are
:func:`stage_worker` over their body; the aggregator (drives the GPU,
single instance so kernel launches are consolidated) groups tiles into
launches.  Stage workers run as daemon threads owned by the engine;
buffer closing is the engine's job so migration threads can share the
buffers safely.

The aggregator does not execute PixelBox itself: each device dispatches
its launches through the execution-backend registry
(:mod:`repro.backends`), so the same pipeline topology drives the batched
kernel, the multiprocess shards, or any future executor — selected by
:attr:`repro.pipeline.engine.PipelineOptions.backend` or per-device.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.geometry.polygon import RectilinearPolygon
from repro.index.hilbert_rtree import bulk_load_polygons
from repro.index.join import mbr_pair_join
from repro.io.parser_cpu import parse_vectorized
from repro.metrics.jaccard import jaccard_from_areas
from repro.obs.clock import StageClock
from repro.pipeline.buffers import CLOSED, BoundedBuffer
from repro.pipeline.device import GpuDevice
from repro.pipeline.tasks import (
    BuiltTile,
    FilteredBatch,
    ParsedTile,
    ParseTask,
    TileResult,
)
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import BatchAreas, Pairs

__all__ = [
    "parse_file",
    "parse_tile",
    "build_tile",
    "filter_tile",
    "aggregate_group",
    "TILE_STAGES",
    "stage_worker",
    "aggregator_worker",
]


# ----------------------------------------------------------------------
# Stage bodies
# ----------------------------------------------------------------------
def parse_file(path: Path) -> list[RectilinearPolygon]:
    """The CPU parser over one polygon file."""
    return parse_vectorized(path.read_bytes())


def parse_tile(
    task: ParseTask,
    parse: Callable[[Path], list[RectilinearPolygon]] = parse_file,
) -> ParsedTile:
    """Stage 1: text -> binary polygons of one tile's two files."""
    return ParsedTile(
        task.tile_id, parse(task.file_a), parse(task.file_b), task.input_bytes
    )


def build_tile(tile: ParsedTile) -> BuiltTile:
    """Stage 2: Hilbert R-tree over set B of the tile."""
    return BuiltTile(
        tile.tile_id,
        tile.polygons_a,
        tile.polygons_b,
        bulk_load_polygons(tile.polygons_b),
        tile.input_bytes,
    )


def filter_tile(tile: BuiltTile) -> FilteredBatch:
    """Stage 3: pairwise MBR index search of set A against the index."""
    join = mbr_pair_join(tile.polygons_a, tile.polygons_b, tree=tile.index)
    return FilteredBatch(
        tile_id=tile.tile_id,
        pairs=join.pairs(tile.polygons_a, tile.polygons_b),
        left_idx=join.left_idx,
        right_idx=join.right_idx,
        count_a=len(tile.polygons_a),
        count_b=len(tile.polygons_b),
        input_bytes=tile.input_bytes,
    )


def aggregate_group(
    group: list[FilteredBatch],
    run: Callable[[Pairs], BatchAreas],
    executed_on: str,
) -> list[TileResult]:
    """Stage 4: one launch over the group's pairs, sliced back per tile."""
    areas = run([pair for batch in group for pair in batch.pairs])
    out: list[TileResult] = []
    offset = 0
    for batch in group:
        rows = slice(offset, offset + batch.size)
        offset += batch.size
        out.append(
            TileResult(
                tile_id=batch.tile_id,
                partial=jaccard_from_areas(
                    BatchAreas(
                        areas.intersection[rows],
                        areas.union[rows],
                        areas.area_p[rows],
                        areas.area_q[rows],
                        KernelStats(pairs=batch.size),
                    ),
                    batch.left_idx,
                    batch.right_idx,
                    batch.count_a,
                    batch.count_b,
                ),
                input_bytes=batch.input_bytes,
                executed_on=executed_on,
            )
        )
    return out


#: The one-tile-in, one-tile-out stages in pipeline order; the aggregator
#: (which groups tiles into launches) follows them.
TILE_STAGES: tuple[tuple[str, Callable], ...] = (
    ("parser", parse_tile),
    ("builder", build_tile),
    ("filter", filter_tile),
)


# ----------------------------------------------------------------------
# Stage workers
# ----------------------------------------------------------------------
def stage_worker(
    stage: str,
    body: Callable,
    inbox: BoundedBuffer,
    outbox: BoundedBuffer,
    timers: StageClock,
) -> None:
    """One worker of a :data:`TILE_STAGES` stage: drain ``inbox`` through
    ``body`` into ``outbox`` (the parser runs several of these)."""
    while True:
        item = inbox.get()
        if item is CLOSED:
            return
        with timers.measure(stage, tile=item.tile_id):
            out = body(item)
        outbox.put(out)


def aggregator_worker(
    batches_in: BoundedBuffer[FilteredBatch],
    results_out: BoundedBuffer[TileResult],
    devices: list[GpuDevice],
    config: LaunchConfig,
    batch_pairs: int,
    timers: StageClock,
) -> None:
    """Aggregator stage: PixelBox via each device's backend, batched.

    Small filter outputs are grouped until ``batch_pairs`` pairs are
    pending (or the input runs dry) and shipped in one kernel launch —
    the batching that amortizes the device's per-launch overhead (§4.1).
    Multiple devices are used round-robin; each launch dispatches through
    the device's registered backend (:mod:`repro.backends`).
    """
    device_cursor = 0
    while True:
        first = batches_in.get()
        if first is CLOSED:
            return
        group = [first]
        total = first.size
        while total < batch_pairs:
            extra = batches_in.try_get()
            if extra is None:
                break
            group.append(extra)
            total += extra.size
        device = devices[device_cursor % len(devices)]
        device_cursor += 1
        with timers.measure("aggregator", tiles=len(group), pairs=total):
            for result in aggregate_group(
                group,
                lambda pairs: device.run_aggregate(pairs, config),
                device.name,
            ):
                results_out.put(result)
