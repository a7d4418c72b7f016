"""Per-pair NumPy PixelBox engine (all algorithm variants).

:func:`compute_pair` follows Algorithm 1's structure — an explicit
sampling-box stack, a partition-classify step, pixelization below the
threshold ``T`` — one pair at a time, with the thread-block-wide data
parallelism mapped onto NumPy array operations.  It is the per-pair
reference for the batched executors, which all run
:class:`repro.pixelbox.kernel.ChunkKernel`.

Results are exact integer areas, cross-validated against
:mod:`repro.exact` in the test-suite (the paper validated against PostGIS
the same way, §3.4).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import parity_fill
from repro.pixelbox.common import (
    BoxPosition,
    KernelStats,
    LaunchConfig,
    Method,
    PairAreas,
)
from repro.pixelbox.kernel import start_box as _start_box
from repro.pixelbox.sampling import box_positions_vectorized

__all__ = ["compute_pair"]

_IN = BoxPosition.INSIDE.value
_OUT = BoxPosition.OUTSIDE.value
_HOVER = BoxPosition.HOVER.value


def compute_pair(
    p: RectilinearPolygon,
    q: RectilinearPolygon,
    method: Method = Method.PIXELBOX,
    config: LaunchConfig | None = None,
    stats: KernelStats | None = None,
) -> PairAreas:
    """Areas of intersection and union of one polygon pair.

    Parameters
    ----------
    p, q:
        The polygon pair (order is irrelevant).
    method:
        Algorithm variant; see :class:`~repro.pixelbox.common.Method`.
    config:
        Launch parameters (block size, threshold ``T``); defaults match
        the paper's recommended settings.
    stats:
        Optional counter sink shared across calls.
    """
    cfg = config or LaunchConfig()
    st = stats if stats is not None else KernelStats()
    st.pairs += 1
    area_p, area_q = p.area, q.area
    start = _start_box(p, q, method, cfg)
    if start is None:
        return PairAreas(0, area_p + area_q, area_p, area_q)

    nosep = method is Method.NOSEP
    dec_i, dec_u, leaves = _collect_plan(p, q, start, cfg, st, method)
    for box in leaves:
        leaf_i, leaf_u = _pixelize_box(p, q, box, st, want_union=nosep or
                                       method is Method.PIXEL_ONLY)
        dec_i += leaf_i
        dec_u += leaf_u
    if method is Method.PIXELBOX:
        return PairAreas(dec_i, area_p + area_q - dec_i, area_p, area_q)
    return PairAreas(dec_i, dec_u, area_p, area_q)


# ----------------------------------------------------------------------
# Per-pair internals (the stack-walking reference path)
# ----------------------------------------------------------------------
def _pixelize_box(
    p: RectilinearPolygon,
    q: RectilinearPolygon,
    box: Box,
    stats: KernelStats,
    want_union: bool,
) -> tuple[int, int]:
    """Pixelization procedure: classify every pixel of ``box``.

    The boolean AND gives the intersection count, the boolean OR the union
    count (paper §3.1) — both from a single traversal of the box.
    """
    mask_p = parity_fill(p.vertical_edges, box)
    mask_q = parity_fill(q.vertical_edges, box)
    stats.pixel_tests += 2 * box.size
    stats.leaf_boxes += 1
    inter = int(np.count_nonzero(mask_p & mask_q))
    uni = int(np.count_nonzero(mask_p | mask_q)) if want_union else 0
    return inter, uni


def _collect_plan(
    p: RectilinearPolygon,
    q: RectilinearPolygon,
    start: Box,
    cfg: LaunchConfig,
    stats: KernelStats,
    method: Method,
) -> tuple[int, int, list[Box]]:
    """Sampling-box subdivision; returns decided areas plus leaf boxes.

    For ``PIXEL_ONLY`` the whole start box is a single leaf (no
    subdivision, Figure 4(a)).  For the sampling variants this runs
    Algorithm 1's stack loop, accumulating the contributions of decided
    boxes and emitting undecided boxes smaller than ``T`` as leaves.
    """
    if method is Method.PIXEL_ONLY:
        return 0, 0, [start]

    nosep = method is Method.NOSEP
    threshold = cfg.threshold
    nx, ny = cfg.grid
    dec_i = 0
    dec_u = 0
    leaves: list[Box] = []
    stack: list[Box] = [start]
    while stack:
        box = stack.pop()
        stats.pops += 1
        if box.size < threshold or box.size == 1:
            leaves.append(box)
            continue

        children = box.split(nx, ny)
        stats.partitions += 1
        stats.boxes_classified += len(children)
        arr = np.array([c.as_tuple() for c in children], dtype=np.int64)
        phi1 = box_positions_vectorized(arr, p)
        phi2 = box_positions_vectorized(arr, q)
        sizes = (arr[:, 2] - arr[:, 0]) * (arr[:, 3] - arr[:, 1])

        if nosep:
            inter_decided = (
                (phi1 == _OUT) | (phi2 == _OUT) | ((phi1 == _IN) & (phi2 == _IN))
            )
            union_decided = (
                (phi1 == _IN) | (phi2 == _IN) | ((phi1 == _OUT) & (phi2 == _OUT))
            )
            cont = ~(inter_decided & union_decided)
            dec_i += int(sizes[~cont & (phi1 == _IN) & (phi2 == _IN)].sum())
            dec_u += int(sizes[~cont & ((phi1 == _IN) | (phi2 == _IN))].sum())
        else:
            cont = (
                (phi1 != _OUT)
                & (phi2 != _OUT)
                & ((phi1 == _HOVER) | (phi2 == _HOVER))
            )
            dec_i += int(sizes[(phi1 == _IN) & (phi2 == _IN)].sum())

        stats.boxes_decided += int(np.count_nonzero(~cont))
        for idx in np.flatnonzero(cont):
            stack.append(children[int(idx)])
    return dec_i, dec_u, leaves
