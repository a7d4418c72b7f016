"""The four pipeline stages (paper §4.1, Figure 6).

Each stage is a worker function that consumes its input buffer and feeds
its output buffer: parser (CPU, multiple workers), builder (CPU, single
worker — "its execution speed is already very fast"), filter (CPU, single
worker), aggregator (drives the GPU, single instance so kernel launches
are consolidated).  Stage workers run as daemon threads owned by the
engine; buffer closing is the engine's job so migration threads can share
the buffers safely.

The aggregator does not execute PixelBox itself: each device dispatches
its launches through the execution-backend registry
(:mod:`repro.backends`), so the same pipeline topology drives the batched
kernel, the multiprocess shards, or any future executor — selected by
:attr:`repro.pipeline.engine.PipelineOptions.backend` or per-device.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.index.hilbert_rtree import bulk_load_polygons
from repro.io.parser_cpu import parse_vectorized
from repro.pipeline.buffers import CLOSED, BoundedBuffer
from repro.pipeline.device import GpuDevice
from repro.pipeline.tasks import (
    BuiltTile,
    FilteredBatch,
    ParsedTile,
    ParseTask,
    TileResult,
)
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas

__all__ = [
    "StageTimers",
    "parser_worker",
    "builder_worker",
    "filter_worker",
    "aggregator_worker",
    "split_batch_results",
]


@dataclass(slots=True)
class StageTimers:
    """Busy seconds per stage (excludes buffer waits)."""

    parser: float = 0.0
    builder: float = 0.0
    filter: float = 0.0
    aggregator: float = 0.0
    migrated_cpu_tasks: int = 0
    migrated_gpu_tasks: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, stage: str, amount: float) -> None:
        """Add to one counter; called concurrently from stage threads."""
        with self._lock:
            setattr(self, stage, getattr(self, stage) + amount)


def parser_worker(
    parse_in: BoundedBuffer[ParseTask],
    parsed_out: BoundedBuffer[ParsedTile],
    timers: StageTimers,
) -> None:
    """Stage 1: text -> binary polygons (runs in several threads)."""
    while True:
        task = parse_in.get()
        if task is CLOSED:
            return
        t0 = time.perf_counter()
        polygons_a = parse_vectorized(task.file_a.read_bytes())
        polygons_b = parse_vectorized(task.file_b.read_bytes())
        tile = ParsedTile(
            task.tile_id, polygons_a, polygons_b, task.input_bytes
        )
        timers.add("parser", time.perf_counter() - t0)
        parsed_out.put(tile)


def builder_worker(
    parsed_in: BoundedBuffer[ParsedTile],
    built_out: BoundedBuffer[BuiltTile],
    timers: StageTimers,
) -> None:
    """Stage 2: Hilbert R-tree over set B of each tile (single thread)."""
    while True:
        tile = parsed_in.get()
        if tile is CLOSED:
            return
        t0 = time.perf_counter()
        index = bulk_load_polygons(tile.polygons_b)
        built = BuiltTile(
            tile.tile_id,
            tile.polygons_a,
            tile.polygons_b,
            index,
            tile.input_bytes,
        )
        timers.add("builder", time.perf_counter() - t0)
        built_out.put(built)


def filter_worker(
    built_in: BoundedBuffer[BuiltTile],
    batches_out: BoundedBuffer[FilteredBatch],
    timers: StageTimers,
) -> None:
    """Stage 3: pairwise MBR index search (single thread)."""
    while True:
        tile = built_in.get()
        if tile is CLOSED:
            return
        t0 = time.perf_counter()
        lefts: list[int] = []
        rights: list[int] = []
        pairs = []
        polys_b = tile.polygons_b
        for i, poly in enumerate(tile.polygons_a):
            for j in tile.index.search(poly.mbr):
                lefts.append(i)
                rights.append(j)
                pairs.append((poly, polys_b[j]))
        batch = FilteredBatch(
            tile_id=tile.tile_id,
            pairs=pairs,
            left_idx=np.asarray(lefts, dtype=np.int64),
            right_idx=np.asarray(rights, dtype=np.int64),
            count_a=len(tile.polygons_a),
            count_b=len(tile.polygons_b),
            input_bytes=tile.input_bytes,
        )
        timers.add("filter", time.perf_counter() - t0)
        batches_out.put(batch)


def aggregator_worker(
    batches_in: BoundedBuffer[FilteredBatch],
    results_out: BoundedBuffer[TileResult],
    devices: list[GpuDevice],
    config: LaunchConfig,
    batch_pairs: int,
    timers: StageTimers,
) -> None:
    """Stage 4: PixelBox via each device's execution backend, batched.

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
        t0 = time.perf_counter()
        all_pairs = [pair for batch in group for pair in batch.pairs]
        device = devices[device_cursor % len(devices)]
        device_cursor += 1
        areas = device.run_aggregate(all_pairs, config)
        for result in split_batch_results(group, areas, executed_on=device.name):
            results_out.put(result)
        timers.add("aggregator", time.perf_counter() - t0)


def split_batch_results(
    group: list[FilteredBatch],
    areas: BatchAreas,
    executed_on: str,
) -> list[TileResult]:
    """Slice one launch's output back into per-tile partial results."""
    out: list[TileResult] = []
    ratios = areas.ratios()
    hits = areas.intersection > 0
    offset = 0
    for batch in group:
        span = slice(offset, offset + batch.size)
        offset += batch.size
        hit = hits[span]
        out.append(
            TileResult(
                tile_id=batch.tile_id,
                ratio_sum=float(ratios[span][hit].sum()),
                intersecting_pairs=int(hit.sum()),
                candidate_pairs=batch.size,
                matched_a=set(batch.left_idx[hit].tolist()),
                matched_b=set(batch.right_idx[hit].tolist()),
                count_a=batch.count_a,
                count_b=batch.count_b,
                input_bytes=batch.input_bytes,
                executed_on=executed_on,
            )
        )
    return out
