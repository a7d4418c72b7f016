"""Array-based PixelBox: level-synchronous subdivision across many pairs.

The per-pair engine in :mod:`repro.pixelbox.engine` mirrors Algorithm 1's
control flow; this module mirrors its *execution* on a wide device.  All
sampling boxes of all pairs at one subdivision level are classified in a
handful of NumPy operations:

* polygon edges live in CSR tables (one row span per pair side);
* the (box, edge) interaction is expanded raggedly with ``np.repeat`` and
  reduced per box with ``np.add.reduceat`` — crossing tests for Lemma 1
  and center-parity in the same pass;
* decided boxes scatter-add their contribution to their pair; undecided
  boxes below the threshold become pixelization leaves; the rest split
  into the next level's frontier with closed-form proportional cuts;
* all leaves (from every pair and level) are pixelized in one stacked
  XOR-scan pass.

Everything is exact integer arithmetic; results equal the per-pair engine
and the exact overlay bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.geometry.polyset import EdgeTable, ragged_rows
from repro.pixelbox.common import BoxPosition, KernelStats, LaunchConfig, Method

__all__ = ["EdgeTable", "classify_boxes", "plan_levels", "stacked_leaf_counts"]

_IN = BoxPosition.INSIDE.value
_OUT = BoxPosition.OUTSIDE.value
_HOVER = BoxPosition.HOVER.value

# Cap on leaves * H * W cells materialized per stacked chunk.
_CHUNK_CELLS = 1 << 23

# leafscan.c's MAX_DEPTH: with nx, ny >= 2 a partition at least halves
# both extents of an int32 box, so no tree is deeper than 33 levels; a
# grid with ny == 1 (a prime block size) partitions a hovering 1-pixel-
# wide box into itself forever, and this bound stops it.
_MAX_DEPTH = 64


def _expand(owner: np.ndarray, table: EdgeTable):
    """Ragged (box, edge) expansion.

    Returns ``(box_idx, edge_idx, seg_starts)`` such that row ``r`` pairs
    box ``box_idx[r]`` with edge ``edge_idx[r]``, rows of one box are
    contiguous, and ``seg_starts`` are the reduceat segment starts.
    """
    counts = table.counts()[owner]
    if np.any(counts == 0):
        raise KernelError("polygon with no vertical edges in batch")
    edge_idx, bounds = ragged_rows(table.offsets[owner], counts)
    box_idx = np.repeat(np.arange(len(owner)), counts)
    seg_starts = bounds[:-1]
    return box_idx, edge_idx, seg_starts


def classify_boxes(
    boxes: np.ndarray, owner: np.ndarray, table: EdgeTable
) -> np.ndarray:
    """Lemma 1 positions of ``(K, 4)`` boxes vs their owners' polygons.

    ``owner[k]`` selects the polygon (row of ``table``) box ``k`` is
    classified against.  Returns ``(K,)`` uint8 of
    :class:`~repro.pixelbox.common.BoxPosition` values.

    Hot path: everything runs on int32 rows with in-place boolean
    fusion, and the per-box reductions use ``logical_or.reduceat`` (hover)
    and ``bitwise_xor.reduceat`` (center parity — XOR of crossing flags is
    exactly the crossing count's parity), avoiding any int64 widening.
    """
    if len(boxes) == 0:
        return np.zeros(0, dtype=np.uint8)
    box_idx, edge_idx, seg_starts = _expand(owner, table)
    b32 = boxes.astype(np.int32, copy=False)
    x0 = b32[box_idx, 0]
    y0 = b32[box_idx, 1]
    x1 = b32[box_idx, 2]
    y1 = b32[box_idx, 3]
    xe = table.xs[edge_idx]
    lo = table.lo[edge_idx]
    hi = table.hi[edge_idx]

    # Hover test: some polygon edge intersects the open box interior.
    # (Equivalent to Lemma 1's conditions (i) or (ii): an edge crossing
    # the box boundary satisfies (i); an edge strictly inside has its
    # endpoints — polygon vertices — inside, satisfying (ii).)
    rows = np.less(x0, xe)
    scratch = np.less(xe, x1)
    rows &= scratch
    np.less(lo, y1, out=scratch)
    rows &= scratch
    np.greater(hi, y0, out=scratch)
    rows &= scratch
    hover_rows = rows.copy()

    ye = table.ys[edge_idx]
    xlo = table.xlo[edge_idx]
    xhi = table.xhi[edge_idx]
    np.less(y0, ye, out=rows)
    np.less(ye, y1, out=scratch)
    rows &= scratch
    np.less(xlo, x1, out=scratch)
    rows &= scratch
    np.greater(xhi, x0, out=scratch)
    rows &= scratch
    hover_rows |= rows
    hover = np.logical_or.reduceat(hover_rows, seg_starts)

    cx = x0 + ((x1 - x0) >> 1)
    cy = y0 + ((y1 - y0) >> 1)
    np.less_equal(xe, cx, out=rows)
    np.less_equal(lo, cy, out=scratch)
    rows &= scratch
    np.less(cy, hi, out=scratch)
    rows &= scratch
    inside = np.bitwise_xor.reduceat(rows, seg_starts)

    out = np.full(len(boxes), _OUT, dtype=np.uint8)
    out[inside] = _IN
    out[hover] = _HOVER
    return out


def _split_cuts(
    boxes: np.ndarray, nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray]:
    """Proportional partition cuts for every box (``SubSampBox``).

    ``cuts_x[k, i] = x0 + i * width // nx`` — the same formula as
    :meth:`repro.geometry.box.Box.split`, so every implementation builds
    an identical subdivision tree.
    """
    x0, y0, x1, y1 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    ix = np.arange(nx + 1, dtype=np.int64)
    iy = np.arange(ny + 1, dtype=np.int64)
    cuts_x = x0[:, None] + (ix[None, :] * (x1 - x0)[:, None]) // nx
    cuts_y = y0[:, None] + (iy[None, :] * (y1 - y0)[:, None]) // ny
    return cuts_x, cuts_y


def _ranged_expand(starts: np.ndarray, spans: np.ndarray):
    """Row indices + offsets for ragged ranges ``[starts, starts+spans)``."""
    return np.repeat(np.arange(len(spans)), spans), ragged_rows(starts, spans)[0]


def _level_positions(
    parents: np.ndarray,
    owner: np.ndarray,
    table: EdgeTable,
    nx: int,
    ny: int,
    cuts_x: np.ndarray,
    cuts_y: np.ndarray,
) -> np.ndarray:
    """Lemma 1 positions of every child of every parent box, banded.

    Exploits the regular child grid: a vertical polygon edge crosses the
    open interior of children in exactly one *column* (found in O(1) by
    inverting the proportional cut) and a contiguous run of *rows*; a
    horizontal edge the transpose.  Hover marks are therefore
    O(edges x rows) scatter events instead of O(edges x children) tests.
    The center parity uses the matching trick: within one child row all
    centers share ``cy``, so each straddling edge contributes a suffix of
    columns, accumulated with one scatter + prefix-sum.

    Returns ``(K, ny, nx)`` uint8 of positions (entries for zero-size
    children of narrow parents are meaningless and must be masked by the
    caller).
    """
    k = len(parents)
    cells = k * ny * nx
    box_idx, edge_idx, _ = _expand(owner, table)
    x0 = parents[box_idx, 0]
    y0 = parents[box_idx, 1]
    w = parents[box_idx, 2] - x0
    h = parents[box_idx, 3] - y0

    xe = table.xs[edge_idx].astype(np.int64)
    e_lo = table.lo[edge_idx].astype(np.int64)
    e_hi = table.hi[edge_idx].astype(np.int64)

    # --- hover marks from vertical edges -----------------------------
    c = xe - x0
    in_x = (c > 0) & (c < w)
    ci = np.zeros_like(c)
    np.floor_divide((c + 1) * nx - 1, w, out=ci, where=in_x)
    on_cut = (ci * w) // nx == c
    lo_rel = np.clip(e_lo - y0, 0, h)
    hi_rel = np.clip(e_hi - y0, 0, h)
    valid = in_x & ~on_cut & (hi_rel > lo_rel)
    ba = np.zeros_like(c)
    bb = np.zeros_like(c)
    np.floor_divide((lo_rel + 1) * ny - 1, h, out=ba, where=valid)
    np.floor_divide(hi_rel * ny - 1, h, out=bb, where=valid)
    spans = np.where(valid, bb - ba + 1, 0)
    row_of, bands = _ranged_expand(ba, spans)
    flat_v = (box_idx[row_of] * ny + bands) * nx + ci[row_of]
    hover_counts = np.bincount(flat_v, minlength=cells)

    # --- hover marks from horizontal edges ---------------------------
    ye = table.ys[edge_idx].astype(np.int64)
    x_lo = table.xlo[edge_idx].astype(np.int64)
    x_hi = table.xhi[edge_idx].astype(np.int64)
    d = ye - y0
    in_y = (d > 0) & (d < h)
    bi = np.zeros_like(d)
    np.floor_divide((d + 1) * ny - 1, h, out=bi, where=in_y)
    on_cut_y = (bi * h) // ny == d
    xlo_rel = np.clip(x_lo - x0, 0, w)
    xhi_rel = np.clip(x_hi - x0, 0, w)
    valid_h = in_y & ~on_cut_y & (xhi_rel > xlo_rel)
    ia = np.zeros_like(d)
    ib = np.zeros_like(d)
    np.floor_divide((xlo_rel + 1) * nx - 1, w, out=ia, where=valid_h)
    np.floor_divide(xhi_rel * nx - 1, w, out=ib, where=valid_h)
    spans_h = np.where(valid_h, ib - ia + 1, 0)
    row_of_h, cols = _ranged_expand(ia, spans_h)
    flat_h = (box_idx[row_of_h] * ny + bi[row_of_h]) * nx + cols
    hover_counts += np.bincount(flat_h, minlength=cells)
    hover = hover_counts.reshape(k, ny, nx) > 0

    # --- center parity ------------------------------------------------
    centers_y = cuts_y[:, :-1] + (cuts_y[:, 1:] - cuts_y[:, :-1]) // 2  # (K, ny)
    centers_x = cuts_x[:, :-1] + (cuts_x[:, 1:] - cuts_x[:, :-1]) // 2  # (K, nx)
    cy_rows = centers_y[box_idx]  # (R, ny)
    straddle = (e_lo[:, None] <= cy_rows) & (cy_rows < e_hi[:, None])
    row_s, band_s = np.nonzero(straddle)
    suffix_start = np.sum(
        centers_x[box_idx[row_s]] < xe[row_s, None], axis=1
    )
    keep = suffix_start < nx
    flat_s = (box_idx[row_s[keep]] * ny + band_s[keep]) * nx + suffix_start[keep]
    counts = np.bincount(flat_s, minlength=cells).reshape(k, ny, nx)
    np.cumsum(counts, axis=2, out=counts)
    inside = (counts & 1).astype(bool)

    out = np.full((k, ny, nx), _OUT, dtype=np.uint8)
    out[inside] = _IN
    out[hover] = _HOVER
    return out


def plan_levels(
    table_p: EdgeTable,
    table_q: EdgeTable,
    boxes: np.ndarray,
    owner: np.ndarray,
    cfg: LaunchConfig,
    method: Method,
    stats: KernelStats,
    n_pairs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Level-synchronous sampling-box subdivision for a whole pair batch.

    Returns ``(decided_inter, decided_union, leaf_boxes, leaf_owner)``
    where the decided arrays have one slot per pair and the leaves are the
    boxes awaiting pixelization.
    """
    if method is Method.PIXEL_ONLY:
        return (
            np.zeros(n_pairs, dtype=np.int64),
            np.zeros(n_pairs, dtype=np.int64),
            boxes,
            owner,
        )
    nosep = method is Method.NOSEP
    threshold = cfg.threshold
    nx, ny = cfg.grid
    dec_i = np.zeros(n_pairs, dtype=np.int64)
    dec_u = np.zeros(n_pairs, dtype=np.int64)
    leaf_parts: list[np.ndarray] = []
    leaf_owner_parts: list[np.ndarray] = []

    frontier, fowner = boxes, owner
    for depth in range(_MAX_DEPTH + 1):
        if not len(frontier):
            break
        sizes = (frontier[:, 2] - frontier[:, 0]) * (frontier[:, 3] - frontier[:, 1])
        stats.pops += len(frontier)
        is_leaf = (sizes < threshold) | (sizes == 1)
        if np.any(is_leaf):
            leaf_parts.append(frontier[is_leaf])
            leaf_owner_parts.append(fowner[is_leaf])
        frontier, fowner = frontier[~is_leaf], fowner[~is_leaf]
        if not len(frontier):
            break
        if depth == _MAX_DEPTH:
            raise KernelError(
                f"a sampling-box subdivision deeper than the stack bound "
                f"({_MAX_DEPTH} levels)"
            )

        stats.partitions += len(frontier)
        k = len(frontier)
        cuts_x, cuts_y = _split_cuts(frontier, nx, ny)
        phi1 = _level_positions(
            frontier, fowner, table_p, nx, ny, cuts_x, cuts_y
        ).reshape(-1)
        phi2 = _level_positions(
            frontier, fowner, table_q, nx, ny, cuts_x, cuts_y
        ).reshape(-1)
        cx0 = np.broadcast_to(cuts_x[:, None, :-1], (k, ny, nx))
        cx1 = np.broadcast_to(cuts_x[:, None, 1:], (k, ny, nx))
        cy0 = np.broadcast_to(cuts_y[:, :-1, None], (k, ny, nx))
        cy1 = np.broadcast_to(cuts_y[:, 1:, None], (k, ny, nx))
        children = np.stack([cx0, cy0, cx1, cy1], axis=-1).reshape(-1, 4)
        cowner = np.repeat(fowner, nx * ny)
        nonempty = (children[:, 2] > children[:, 0]) & (
            children[:, 3] > children[:, 1]
        )
        children = children[nonempty]
        cowner = cowner[nonempty]
        phi1 = phi1[nonempty]
        phi2 = phi2[nonempty]
        stats.boxes_classified += len(children)
        csizes = (children[:, 2] - children[:, 0]) * (
            children[:, 3] - children[:, 1]
        )

        if nosep:
            inter_decided = (
                (phi1 == _OUT) | (phi2 == _OUT) | ((phi1 == _IN) & (phi2 == _IN))
            )
            union_decided = (
                (phi1 == _IN) | (phi2 == _IN) | ((phi1 == _OUT) & (phi2 == _OUT))
            )
            cont = ~(inter_decided & union_decided)
            gain_i = ~cont & (phi1 == _IN) & (phi2 == _IN)
            gain_u = ~cont & ((phi1 == _IN) | (phi2 == _IN))
            np.add.at(dec_i, cowner[gain_i], csizes[gain_i])
            np.add.at(dec_u, cowner[gain_u], csizes[gain_u])
        else:
            cont = (
                (phi1 != _OUT)
                & (phi2 != _OUT)
                & ((phi1 == _HOVER) | (phi2 == _HOVER))
            )
            gain_i = (phi1 == _IN) & (phi2 == _IN)
            np.add.at(dec_i, cowner[gain_i], csizes[gain_i])

        stats.boxes_decided += int(np.count_nonzero(~cont))
        frontier, fowner = children[cont], cowner[cont]

    if leaf_parts:
        leaves = np.concatenate(leaf_parts, axis=0)
        leaf_owner = np.concatenate(leaf_owner_parts)
    else:
        leaves = np.zeros((0, 4), dtype=np.int64)
        leaf_owner = np.zeros(0, dtype=np.int64)
    return dec_i, dec_u, leaves, leaf_owner


# ----------------------------------------------------------------------
# Stacked leaf pixelization
# ----------------------------------------------------------------------
def stacked_leaf_counts(
    table_p: EdgeTable,
    table_q: EdgeTable,
    leaves: np.ndarray,
    leaf_owner: np.ndarray,
    want_union: bool,
    leaf_mode: str = "scan",
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel counts of ``p AND q`` (and optionally ``p OR q``) per leaf.

    ``"scan"`` mode: every polygon edge becomes two scatter events in a
    ``(leaves, H+1, W+1)`` tensor; one XOR-scan along y expands the edge
    spans and one along x resolves the ray-cast parity — O(pixels+edges).

    ``"crossing"`` mode: the paper's pixelization procedure verbatim —
    every pixel of every leaf is tested against every polygon edge
    (threads strided over pixels on the GPU, SIMD lanes here) —
    O(pixels x edges).
    """
    n = len(leaves)
    inter = np.zeros(n, dtype=np.int64)
    union = np.zeros(n, dtype=np.int64)
    if n == 0:
        return inter, union

    widths = leaves[:, 2] - leaves[:, 0]
    heights = leaves[:, 3] - leaves[:, 1]
    if leaf_mode == "crossing":
        # Tight buckets: the per-edge pixel loop multiplies any padding
        # waste, so round to multiples of 8 instead of powers of two, and
        # bucket by edge count as well.
        pad_w = _pad_multiple(widths, 8)
        pad_h = _pad_multiple(heights, 8)
        counts_p = table_p.counts()[leaf_owner]
        counts_q = table_q.counts()[leaf_owner]
        pad_e = _pad_multiple(np.maximum(counts_p, counts_q), 16)
        keys = (pad_w * (1 << 40) + pad_h * (1 << 20) + pad_e).astype(np.int64)
    else:
        pad_w = _pad_pow2(widths)
        pad_h = _pad_pow2(heights)
        keys = pad_w * (1 << 32) + pad_h
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        bw = int(pad_w[members[0]])
        bh = int(pad_h[members[0]])
        chunk = max(1, _CHUNK_CELLS // ((bw + 1) * (bh + 1)))
        for lo in range(0, len(members), chunk):
            part = members[lo : lo + chunk]
            if leaf_mode == "crossing":
                i_part, u_part = _bucket_counts_crossing(
                    table_p, table_q, leaves, leaf_owner, part, bw, bh,
                    want_union,
                )
            else:
                i_part, u_part = _bucket_counts(
                    table_p, table_q, leaves, leaf_owner, part, bw, bh,
                    want_union,
                )
            inter[part] = i_part
            if want_union:
                union[part] = u_part
    return inter, union


def _pad_pow2(extents: np.ndarray) -> np.ndarray:
    """Round extents up to the bucket grid (powers of two >= 8)."""
    clipped = np.maximum(extents, 8)
    return (1 << np.ceil(np.log2(clipped)).astype(np.int64)).astype(np.int64)


def _pad_multiple(extents: np.ndarray, step: int) -> np.ndarray:
    """Round extents up to the next multiple of ``step``."""
    return ((np.maximum(extents, 1) + step - 1) // step) * step


def _bucket_counts(
    table_p: EdgeTable,
    table_q: EdgeTable,
    leaves: np.ndarray,
    leaf_owner: np.ndarray,
    part: np.ndarray,
    bw: int,
    bh: int,
    want_union: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked parity counts for one bucket chunk."""
    count = len(part)
    boxes = leaves[part]
    owner = leaf_owner[part]
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    plane = (bh + 1) * (bw + 1)
    masks = []
    for table in (table_p, table_q):
        box_idx, edge_idx, _ = _expand(owner, table)
        cols = np.clip(table.xs[edge_idx] - boxes[box_idx, 0], 0, widths[box_idx])
        lows = np.clip(table.lo[edge_idx] - boxes[box_idx, 1], 0, heights[box_idx])
        highs = np.clip(table.hi[edge_idx] - boxes[box_idx, 1], 0, heights[box_idx])
        keep = (lows < highs) & (cols < widths[box_idx])
        base = box_idx[keep] * plane + cols[keep]
        flat = np.concatenate(
            [base + lows[keep] * (bw + 1), base + highs[keep] * (bw + 1)]
        )
        # XOR-toggling a bit equals the parity of how many events hit the
        # cell; np.bincount computes that ~100x faster than ufunc.at.
        toggles = np.bincount(flat, minlength=count * plane)
        grid = (toggles & 1).astype(np.uint8).reshape(count, bh + 1, bw + 1)
        np.bitwise_xor.accumulate(grid, axis=1, out=grid)  # expand y spans
        np.bitwise_xor.accumulate(grid, axis=2, out=grid)  # ray-cast parity
        masks.append(grid)

    valid = (np.arange(bh + 1)[None, :, None] < heights[:, None, None]) & (
        np.arange(bw + 1)[None, None, :] < widths[:, None, None]
    )
    mask_p, mask_q = masks
    inter = ((mask_p & mask_q).astype(bool) & valid).sum(axis=(1, 2), dtype=np.int64)
    if want_union:
        uni = ((mask_p | mask_q).astype(bool) & valid).sum(
            axis=(1, 2), dtype=np.int64
        )
    else:
        uni = np.zeros(count, dtype=np.int64)
    return inter, uni


def _padded_edges(
    table: EdgeTable, owner: np.ndarray, e_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-leaf ``(C, e_max)`` edge arrays padded with never-hit sentinels."""
    count = len(owner)
    counts = table.counts()[owner]
    xs = np.full((count, e_max), np.iinfo(np.int64).max, dtype=np.int64)
    lo = np.zeros((count, e_max), dtype=np.int64)
    hi = np.zeros((count, e_max), dtype=np.int64)
    slot = np.repeat(np.arange(count), counts)
    edge_idx, _ = ragged_rows(table.offsets[owner], counts)
    within = edge_idx - np.repeat(table.offsets[owner], counts)
    xs[slot, within] = table.xs[edge_idx]
    lo[slot, within] = table.lo[edge_idx]
    hi[slot, within] = table.hi[edge_idx]
    return xs, lo, hi


def _bucket_counts_crossing(
    table_p: EdgeTable,
    table_q: EdgeTable,
    leaves: np.ndarray,
    leaf_owner: np.ndarray,
    part: np.ndarray,
    bw: int,
    bh: int,
    want_union: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel ray-cast counts for one bucket chunk (paper-faithful).

    ``PixelInPoly`` of Algorithm 1: pixel ``(x, y)`` is inside when an odd
    number of vertical edges ``(xe, lo, hi)`` satisfy ``xe <= x`` and
    ``lo <= y < hi``.  The edge loop runs in Python; each iteration tests
    one edge slot of every pixel of every leaf in the chunk — the SIMD
    image of the GPU's per-thread edge loop (and the loop the paper
    unrolls in §3.3).
    """
    count = len(part)
    boxes = leaves[part]
    owner = leaf_owner[part]
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    px = boxes[:, 0][:, None, None] + np.arange(bw)[None, None, :]
    py = boxes[:, 1][:, None, None] + np.arange(bh)[None, :, None]

    masks = []
    for table in (table_p, table_q):
        e_max = int(table.counts()[owner].max())
        xs, lo, hi = _padded_edges(table, owner, e_max)
        acc = np.zeros((count, bh, bw), dtype=bool)
        for e in range(e_max):
            xe = xs[:, e][:, None, None]
            y_lo = lo[:, e][:, None, None]
            y_hi = hi[:, e][:, None, None]
            acc ^= (xe <= px) & (y_lo <= py) & (py < y_hi)
        masks.append(acc)

    valid = (np.arange(bh)[None, :, None] < heights[:, None, None]) & (
        np.arange(bw)[None, None, :] < widths[:, None, None]
    )
    mask_p, mask_q = masks
    inter = (mask_p & mask_q & valid).sum(axis=(1, 2), dtype=np.int64)
    if want_union:
        uni = ((mask_p | mask_q) & valid).sum(axis=(1, 2), dtype=np.int64)
    else:
        uni = np.zeros(count, dtype=np.int64)
    return inter, uni
