"""Hilbert R-tree bulk loading (Kamel & Faloutsos, VLDB'94).

The paper's builder stage indexes every parsed tile with this loader
(§4.1: "Since polygons are small, Hilbert R-Tree is used to accelerate
index building"); here the SDBMS baseline's tables do
(:mod:`repro.sdbms`), while the pipeline joins MBR arrays by a sort and
sweep (:mod:`repro.index.join`).  Entries are sorted by the Hilbert key
of their MBR center and packed bottom-up into full nodes, producing a
balanced tree in O(n log n) with excellent leaf clustering for the
index scans that follow.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import Box
from repro.geometry.polyset import PolygonSet
from repro.index.hilbert import hilbert_keys
from repro.index.rtree import DEFAULT_FANOUT, RTree

__all__ = ["bulk_load", "bulk_load_polygons", "DEFAULT_ORDER"]

# 2^17 = 131072 cells per axis — covers whole-slide images (~100k pixels).
DEFAULT_ORDER = 17


def bulk_load(
    boxes: list[Box] | np.ndarray,
    fanout: int = DEFAULT_FANOUT,
    order: int = DEFAULT_ORDER,
) -> RTree:
    """Build a packed R-tree over ``boxes`` (payloads are row indices).

    ``boxes`` is a list of :class:`Box` or an ``(n, 4)`` int64 array of
    ``x0, y0, x1, y1`` rows, such as :attr:`PolygonSet.mbrs`.
    """
    if not isinstance(boxes, np.ndarray):
        boxes = np.array([b.as_tuple() for b in boxes], dtype=np.int64)
    boxes = boxes.reshape(-1, 4)
    centers = (boxes[:, :2] + boxes[:, 2:]) // 2
    rank = np.argsort(hilbert_keys(order, *centers.T), kind="stable")
    return RTree(fanout=fanout).pack(boxes[rank], rank)


def bulk_load_polygons(
    polygons,
    fanout: int = DEFAULT_FANOUT,
    order: int = DEFAULT_ORDER,
) -> RTree:
    """Bulk-load the MBRs of ``polygons`` — a :class:`PolygonSet` or a
    list of polygons (payload ``i`` = polygon ``i``)."""
    return bulk_load(PolygonSet.from_polygons(polygons).mbrs, fanout, order)
