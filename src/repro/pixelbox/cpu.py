"""PixelBox-CPU-S: the algorithm as single-core scalar Python (paper §4.2).

The paper ports PixelBox to CPUs as a comparison point (PixelBox-CPU-S
in Figure 7).  :func:`pair_areas_scalar` is that port: plain Python whose
inner loop carves each sampling box into per-row pixel runs.  It does
strictly less bookkeeping than the exact overlay baseline (no geometry
construction), which is why the paper measures it faster than GEOS
despite running on one core.  Figure 7 times it over a pair list; it is
an experiment's implementation, not a registered backend.
"""

from __future__ import annotations

from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import KernelStats, LaunchConfig, PairAreas
from repro.pixelbox.sampling import box_continue, box_contribute, box_position

__all__ = ["pair_areas_scalar"]


def _row_runs(edges: list[tuple[int, int, int]], y: int) -> list[int]:
    """Sorted crossing columns of a pixel row against vertical edges.

    Pixel row ``y`` (centers at ``y + 0.5``) crosses edge ``(x, lo, hi)``
    when ``lo <= y < hi``.  Consecutive pairs of the sorted crossing
    columns delimit the polygon's inside runs on that row.
    """
    xs = [x for x, lo, hi in edges if lo <= y < hi]
    xs.sort()
    return xs


def _runs_overlap(xs_p: list[int], xs_q: list[int], x0: int, x1: int) -> int:
    """Pixels covered by both run lists, clipped to columns [x0, x1)."""
    total = 0
    i = j = 0
    while i + 1 < len(xs_p) and j + 1 < len(xs_q):
        p_lo, p_hi = xs_p[i], xs_p[i + 1]
        q_lo, q_hi = xs_q[j], xs_q[j + 1]
        lo = max(p_lo, q_lo, x0)
        hi = min(p_hi, q_hi, x1)
        if hi > lo:
            total += hi - lo
        if p_hi <= q_hi:
            i += 2
        else:
            j += 2
    return total


def pair_areas_scalar(
    p: RectilinearPolygon,
    q: RectilinearPolygon,
    config: LaunchConfig | None = None,
    stats: KernelStats | None = None,
) -> PairAreas:
    """Single-core scalar PixelBox (sampling boxes + row-run pixelization)."""
    cfg = config or LaunchConfig()
    st = stats if stats is not None else KernelStats()
    st.pairs += 1

    edges_p = [(int(a), int(b), int(c)) for a, b, c in p.vertical_edges]
    edges_q = [(int(a), int(b), int(c)) for a, b, c in q.vertical_edges]

    inter = 0
    stack: list[Box] = [p.mbr.cover(q.mbr)]
    nx, ny = cfg.grid
    while stack:
        box = stack.pop()
        st.pops += 1
        if box.size < cfg.threshold or box.size == 1:
            st.leaf_boxes += 1
            st.pixel_tests += 2 * box.size
            for y in range(box.y0, box.y1):
                inter += _runs_overlap(
                    _row_runs(edges_p, y), _row_runs(edges_q, y), box.x0, box.x1
                )
            continue
        st.partitions += 1
        for child in box.split(nx, ny):
            phi1 = box_position(child, p)
            phi2 = box_position(child, q)
            st.boxes_classified += 1
            if box_continue(phi1, phi2):
                stack.append(child)
            else:
                st.boxes_decided += 1
                if box_contribute(phi1, phi2):
                    inter += child.size
    area_p, area_q = p.area, q.area
    return PairAreas(inter, area_p + area_q - inter, area_p, area_q)
