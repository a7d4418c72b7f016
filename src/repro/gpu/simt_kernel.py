"""PixelBox on the SIMT simulator (Algorithm 1 with a cycle meter).

The simulator separates *what the kernel does* from *what it costs*:

1. :func:`collect_block_counts` replays Algorithm 1 for each polygon pair
   (one thread block per pair) and records the primitive-operation counts
   — pixelization iterations, edge tests, partitioning steps, stack
   pushes/pops, barriers.  Counts depend only on the launch
   configuration, never on the optimization flags.
2. :func:`repro.gpu.simulator.simulate_device` prices those counts under
   a :class:`~repro.gpu.cost.CostModel` for a given optimization-flag set
   and schedules the blocks onto the device.  Pricing four flag sets over
   one count collection reproduces the four implementation variants of
   Figure 9 exactly as the paper built them — same algorithm, different
   implementation costs.

Areas computed during the replay are asserted against the NumPy engine in
the test-suite, so the cycle meter is attached to a *correct* execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.sampling import box_contribute, box_continue, box_position

__all__ = ["BlockCounts", "collect_block_counts"]


@dataclass(slots=True)
class BlockCounts:
    """Primitive-operation counts of one thread block (one polygon pair)."""

    edges_p: int = 0
    edges_q: int = 0
    vertex_ops: int = 0
    pixel_iterations: int = 0
    classify_steps: int = 0
    warp_pushes: int = 0
    pops: int = 0
    syncs: int = 0
    intersection_area: int = 0
    union_area: int = 0

    @property
    def edges(self) -> int:
        """Edges tested per pixel/box (both polygons)."""
        return self.edges_p + self.edges_q


def collect_block_counts(
    p: RectilinearPolygon,
    q: RectilinearPolygon,
    config: LaunchConfig | None = None,
) -> BlockCounts:
    """Replay Algorithm 1 for one pair and return its operation counts."""
    cfg = config or LaunchConfig()
    n = cfg.block_size
    # Cost is accounted in *warp rows*: a block-wide round issues
    # ceil(n / warp_size) warps in lockstep whether or not every thread
    # has work — the idle-thread waste behind the paper's §5.4
    # observation that oversized blocks degrade performance.
    warps_per_round = -(-n // 32)
    counts = BlockCounts(
        edges_p=len(p.vertical_edges), edges_q=len(q.vertical_edges)
    )
    # Lines 11-12: per-thread partial polygon areas (strided over ring
    # vertices; ceil(V / n) parallel rounds).
    counts.vertex_ops += (
        -(-len(p.vertices) // n) + (-(-len(q.vertices) // n))
    ) * warps_per_round

    inter = 0
    stack: list[Box] = [p.mbr.cover(q.mbr)]
    nx, ny = cfg.grid
    while stack:
        box = stack.pop()
        counts.pops += 1
        counts.syncs += 1  # line 17
        if box.size < cfg.threshold or box.size == 1:
            # Lines 22-28: strided pixelization, ceil(px / n) rounds.
            counts.pixel_iterations += (-(-box.size // n)) * warps_per_round
            inter += _leaf_intersection(p, q, box)
            continue
        # Lines 30-39: one sub-box per thread, then a warp-wide push.
        children = box.split(nx, ny)
        counts.classify_steps += warps_per_round
        counts.warp_pushes += -(-len(children) // 32)
        for child in children:
            phi1 = box_position(child, p)
            phi2 = box_position(child, q)
            if box_continue(phi1, phi2):
                stack.append(child)
            elif box_contribute(phi1, phi2):
                inter += child.size
    counts.intersection_area = inter
    counts.union_area = p.area + q.area - inter
    return counts


def _leaf_intersection(
    p: RectilinearPolygon, q: RectilinearPolygon, box: Box
) -> int:
    """Exact intersection pixels of a leaf box (replay correctness)."""
    from repro.geometry.raster import parity_fill
    import numpy as np

    mask_p = parity_fill(p.vertical_edges, box)
    mask_q = parity_fill(q.vertical_edges, box)
    return int(np.count_nonzero(mask_p & mask_q))

