"""Sizing policy: how big a launch and a shard should be.

Pure functions of a workload profile (pair count, edge density, MBR
extent) and the launch parameters, over *modeled* ALU cycles that rank
alternatives and predict no wall clock.  Every backend returns
bit-identical results, so a misprediction costs time, never correctness.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.backends.base import Pairs
from repro.errors import KernelError
from repro.pixelbox.kernel import PairBatch

__all__ = [
    "default_workers",
    "profile_pairs",
    "estimate_comparison_cycles",
    "recommend_shard_pairs",
]

# ALU cycles per edge test (compare + select + accumulate).
_EDGE_TEST_ALU = 4
# A level's frontier shrinks roughly by the decided fraction.
_LEVEL_DECIDED_FRACTION = 0.5
# One remote shard dispatch (round trip + scheduling, tables resident),
# and how often a shard's compute must amortize it.
_SHARD_DISPATCH_CYCLES = 2.0e7
_SHARD_AMORTIZATION = 8.0
_SHARDS_PER_WORKER = 4  # slack for speculation and re-dispatch


def default_workers() -> int:
    """Worker-count default: the host's cores, capped at 4.

    The ``REPRO_WORKERS`` environment variable overrides the default —
    CI uses it to run the parity suite at several worker counts.  A value
    that does not parse is an error, not a silent fallback: the parity
    matrix must never report green for a width it did not test.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise KernelError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            )
        return workers
    return max(1, min(4, os.cpu_count() or 1))


def profile_pairs(pairs: Pairs) -> tuple[float, float]:
    """``(mean edges per pair, mean MBR pixels per pair)`` of a workload.

    Edges are both polygons' vertical-edge families (what every inner
    loop walks); the MBR is the pair cover box, Algorithm 1's first box.
    Both come from a :class:`PairBatch`'s set arrays.
    """
    batch = PairBatch.from_pairs(pairs)
    n = len(batch)
    if not n:
        return 0.0, 0.0
    left, right = batch.left, batch.right
    edges = left.edges.counts()[batch.left_idx] + right.edges.counts()[batch.right_idx]
    mp, mq = left.mbrs[batch.left_idx], right.mbrs[batch.right_idx]
    extent = np.maximum(mp[:, 2:], mq[:, 2:]) - np.minimum(mp[:, :2], mq[:, :2])
    return int(edges.sum()) / n, int(np.prod(extent, axis=1).sum()) / n


def estimate_comparison_cycles(
    n_pairs: int,
    mean_edges: float,
    mean_mbr_pixels: float,
    pixel_threshold: int,
    block_size: int = 64,
) -> float:
    """Modeled ALU cycles for one batched PixelBox comparison.

    * **pixelization** — subdivision decides large uniform areas without
      pixel work, so the pixelized area per pair is the MBR capped at the
      threshold per surviving leaf chain, growing with the level count;
    * **classification** — each level classifies ``block_size`` sub-boxes
      against every edge; levels are logarithmic in MBR / threshold.
    """
    if n_pairs <= 0:
        return 0.0
    pixels = max(mean_mbr_pixels, 1.0)
    threshold = max(pixel_threshold, 1)
    levels = 0.0
    remaining = pixels
    while remaining > threshold and levels < 32:
        levels += 1.0
        remaining /= block_size
    leaf_pixels = min(pixels, threshold * (1.0 + levels * _LEVEL_DECIDED_FRACTION))
    pixelize = leaf_pixels * mean_edges * _EDGE_TEST_ALU
    classify = levels * block_size * mean_edges * _EDGE_TEST_ALU
    return n_pairs * (pixelize + classify)


def recommend_shard_pairs(
    n_pairs: int,
    mean_edges: float,
    mean_mbr_pixels: float,
    pixel_threshold: int,
    block_size: int = 64,
    workers: int = 1,
) -> int:
    """Pairs per remote shard for one cluster dispatch.

    Each shard's modeled compute should exceed the dispatch charge by
    ``_SHARD_AMORTIZATION``x, while the request still splits into about
    ``_SHARDS_PER_WORKER`` shards per worker so the scheduler has slack
    for speculation and re-dispatch.
    """
    if n_pairs <= 0:
        return 1
    per_pair = estimate_comparison_cycles(
        1, mean_edges, mean_mbr_pixels, pixel_threshold, block_size
    )
    dispatch = _SHARD_DISPATCH_CYCLES * _SHARD_AMORTIZATION
    floor = n_pairs if per_pair <= 0 else max(1, math.ceil(dispatch / per_pair))
    target = max(1, math.ceil(n_pairs / (max(1, workers) * _SHARDS_PER_WORKER)))
    return min(n_pairs, max(floor, target))
