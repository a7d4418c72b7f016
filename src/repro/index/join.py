"""MBR pair join — the pipeline's filter stage.

Given two polygon sets segmented from the same tile, emit every pair whose
MBRs overlap (the ``&&`` join predicate of the optimized query in Figure
1(b)).  A one-shot join of two MBR arrays needs no index: each side is
sorted by its low coordinate on both axes (:class:`SortedMBRs`), and a
sweep along one axis (:func:`sweep_join`) turns every box into one
contiguous ``searchsorted`` range of the other side.  Two boxes overlap on
the swept axis exactly when the right box starts in ``[lo, hi)`` of the
left one, or the left box starts in ``(lo, hi)`` of the right one; each
overlapping pair lies in exactly one of the two ranges.  The sweep takes
the axis whose ranges hold fewer candidates, expands them in slices of at
most ``_SLICE``, and keeps a candidate only if it passes the strict
four-way ``&&`` test, so boxes that only touch do not join and no
intermediate array grows with the product of the two sides.  The two
index arrays it returns are exactly the input batch the PixelBox
aggregator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.polyset import PolygonSet

__all__ = ["PairJoinResult", "SortedMBRs", "mbr_pair_join", "sweep_join"]

# Candidates expanded and tested at once: bounds the sweep's scratch
# memory however many boxes share the swept axis.
_SLICE = 1 << 16

# Boxes ``a`` and ``b`` overlap (the ``&&`` test) exactly when each of
# ``b.x0, b.y0, -b.x1, -b.y1`` (``b``'s lead row) is below ``a.x1, a.y1,
# -a.x0, -a.y0`` (``a``'s trail row): one comparison, its four result
# bytes read as one uint32.
_SIGNS = np.array([1, 1, -1, -1])
_ALL4 = np.frombuffer(bytes([1, 1, 1, 1]), dtype=np.uint32)[0]


@dataclass(slots=True)
class PairJoinResult:
    """Candidate pairs from the MBR join.

    ``left_idx[k]``/``right_idx[k]`` index the input polygon sets (with
    them, a kernel ``PairBatch``); :meth:`pairs` materializes tuples.
    """

    left_idx: np.ndarray
    right_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.left_idx)

    def pairs(
        self,
        left: list[RectilinearPolygon],
        right: list[RectilinearPolygon],
    ) -> list[tuple[RectilinearPolygon, RectilinearPolygon]]:
        """Materialize ``(p, q)`` polygon tuples."""
        return [
            (left[i], right[j])
            for i, j in zip(self.left_idx.tolist(), self.right_idx.tolist())
        ]


@dataclass(frozen=True, slots=True)
class SortedMBRs:
    """One side of the join: ``boxes``, an ``(n, 4)`` int64 array of
    ``x0, y0, x1, y1`` rows, their ``lead`` and ``trail`` rows, and per
    axis (0 = x, 1 = y) the row ``order`` by low coordinate and those
    ``low`` coordinates in that order."""

    boxes: np.ndarray
    lead: np.ndarray
    trail: np.ndarray
    order: tuple[np.ndarray, np.ndarray]
    low: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, boxes: np.ndarray) -> "SortedMBRs":
        boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
        lead = boxes * _SIGNS
        trail = np.ascontiguousarray(-lead[:, [2, 3, 0, 1]])
        # A stable sort: NumPy's default argsort pages in a SIMD sort
        # library the rest of the comparison never uses.
        order = tuple(np.argsort(boxes[:, axis], kind="stable") for axis in (0, 1))
        low = (boxes[order[0], 0], boxes[order[1], 1])
        return cls(boxes, lead, trail, order, low)


def _ranges(probes: np.ndarray, low: np.ndarray, axis: int, first: str):
    """Per probe row, the start and length of the run of ``low`` in
    ``[probe lo, probe hi)`` (``first="left"``) or ``(probe lo, probe hi)``
    (``first="right"``) along ``axis``."""
    start = np.searchsorted(low, probes[:, axis], first)
    stop = np.searchsorted(low, probes[:, axis + 2], "left")
    return start, np.maximum(stop - start, 0)


def _expand(start: np.ndarray, count: np.ndarray):
    """``(owner, position)`` of every candidate of the ranges, in slices
    of at most ``_SLICE``: ``owner`` indexes the ranges, ``position`` the
    sorted side they run over."""
    end = np.cumsum(count)
    total = int(end[-1]) if len(end) else 0
    shift = start - end + count
    for lo in range(0, total, _SLICE):
        flat = np.arange(lo, min(lo + _SLICE, total))
        owner = np.searchsorted(end, flat, "right")
        yield owner, flat + shift[owner]


def _overlap(lead: np.ndarray, i: np.ndarray, trail: np.ndarray, j: np.ndarray):
    """The strict ``&&`` test of rows ``lead[i]`` against ``trail[j]``:
    every coordinate compares strictly, so a shared edge or corner is no
    overlap.  ``np.take`` gathers rows several times faster than fancy
    indexing."""
    below = np.take(lead, i, axis=0) < np.take(trail, j, axis=0)
    return below.view(np.uint32)[:, 0] == _ALL4


def sweep_join(left: SortedMBRs, right: SortedMBRs) -> PairJoinResult:
    """Every ``(i, j)`` whose boxes overlap (the ``&&`` test), left index
    ascending, then right; one sort-and-sweep along the axis with fewer
    candidates."""
    sweeps = [
        (
            _ranges(left.boxes, right.low[axis], axis, "left"),
            _ranges(right.boxes, left.low[axis], axis, "right"),
        )
        for axis in (0, 1)
    ]
    work = [int(lc.sum()) + int(rc.sum()) for (_, lc), (_, rc) in sweeps]
    axis = int(work[1] < work[0])
    (l_start, l_count), (r_start, r_count) = sweeps[axis]
    l_order, r_order = left.order[axis], right.order[axis]
    width = max(len(right.boxes), 1)
    keys = [np.zeros(0, dtype=np.int64)]
    # Left boxes against the right boxes starting inside them ...
    r_lead = np.take(right.lead, r_order, axis=0)
    for i, pos in _expand(l_start, l_count):
        keep = _overlap(r_lead, pos, left.trail, i)
        keys.append(i[keep] * width + r_order[pos[keep]])
    # ... and right boxes against the left boxes starting strictly inside.
    l_trail = np.take(left.trail, l_order, axis=0)
    for j, pos in _expand(r_start, r_count):
        keep = _overlap(right.lead, j, l_trail, pos)
        keys.append(l_order[pos[keep]] * width + j[keep])
    return PairJoinResult(*np.divmod(np.sort(np.concatenate(keys)), width))


def mbr_pair_join(left, right) -> PairJoinResult:
    """The MBR join of two polygon sets (e.g. the two segmentation results
    of one tile; :class:`PolygonSet` or lists).

    Pairs come left index ascending, then right index ascending.
    """
    return sweep_join(
        SortedMBRs.of(PolygonSet.from_polygons(left).mbrs),
        SortedMBRs.of(PolygonSet.from_polygons(right).mbrs),
    )
