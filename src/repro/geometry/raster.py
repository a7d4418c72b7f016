"""Conversions between binary pixel masks and rectilinear polygons.

Segmentation algorithms emit object boundaries traced on the pixel grid
(paper §3.1, Figure 3).  This module provides both directions:

* :func:`polygon_to_mask` — rasterize a polygon back to the boolean mask of
  pixels it encloses, using the same crossing-parity semantics as the
  PixelBox pixelization test.  This is the ground truth every area
  computation in the library is validated against.
* :func:`trace_mask` / :func:`extract_polygons` — trace the boundary loops
  of a mask into rectilinear rings, the way a segmentation pipeline
  produces its polygon output.

Mask convention: ``mask[y, x]`` is pixel ``(x + origin_x, y + origin_y)``;
row index is the y coordinate (y grows upwards in image terms — the
orientation is irrelevant to areas, only consistency matters).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import RasterError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon

__all__ = [
    "polygon_to_mask",
    "parity_fill",
    "trace_mask",
    "extract_polygons",
    "fill_holes",
]


# ----------------------------------------------------------------------
# Polygon -> mask
# ----------------------------------------------------------------------
def parity_fill(
    vertical_edges: np.ndarray, box: Box, out: np.ndarray | None = None
) -> np.ndarray:
    """Crossing-parity fill of a polygon over ``box``.

    For pixel center ``(x+0.5, y+0.5)`` the ray towards ``-x`` crosses the
    vertical edge ``(xe, y_lo, y_hi)`` exactly when ``xe <= x`` and
    ``y_lo <= y < y_hi``.  Instead of testing every pixel against every
    edge, each edge toggles a parity bit for the pixel columns to its right
    (one scatter per edge) and a single XOR-scan along x resolves the
    parity for every pixel — the same result as the per-pixel ray cast of
    paper §3.1, computed with two passes over the box.

    Parameters
    ----------
    vertical_edges:
        ``(k, 3)`` array of ``(x, y_lo, y_hi)`` vertical edges.
    box:
        Region of interest; the returned mask has shape
        ``(box.height, box.width)``.
    out:
        Optional pre-allocated uint8 scratch array of that shape.
    """
    h, w = box.height, box.width
    if out is None:
        flips = np.zeros((h, w), dtype=np.uint8)
    else:
        if out.shape != (h, w):
            raise RasterError(f"scratch shape {out.shape} != box shape {(h, w)}")
        flips = out
        flips[:] = 0
    for xe, y_lo, y_hi in vertical_edges:
        y0 = max(int(y_lo) - box.y0, 0)
        y1 = min(int(y_hi) - box.y0, h)
        if y0 >= y1:
            continue
        col = max(int(xe) - box.x0, 0)
        if col >= w:
            continue
        flips[y0:y1, col] ^= 1
    np.bitwise_xor.accumulate(flips, axis=1, out=flips)
    return flips.astype(bool, copy=False)


def polygon_to_mask(
    polygon: RectilinearPolygon, box: Box | None = None
) -> np.ndarray:
    """Boolean mask of the pixels enclosed by ``polygon`` within ``box``.

    ``box`` defaults to the polygon's MBR.  Pixels of the polygon that fall
    outside ``box`` are clipped away.
    """
    region = polygon.mbr if box is None else box
    return parity_fill(polygon.vertical_edges, region)


# ----------------------------------------------------------------------
# Mask -> polygons
# ----------------------------------------------------------------------
# Directions are encoded as (dx, dy); LEFT_TURN[d] rotates 90 degrees
# counter-clockwise, which at a saddle vertex keeps the trace hugging the
# same corner so that loops never cross themselves.
_LEFT_TURN = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}


def _boundary_edges(mask: np.ndarray) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Directed unit boundary edges of ``mask``, keyed by start vertex.

    Every edge keeps the interior on its left, so outer boundaries come out
    counter-clockwise (positive shoelace) and hole boundaries clockwise.
    """
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    inside = padded[1:-1, 1:-1]
    ys, xs = np.nonzero(inside)
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add(x0: int, y0: int, dx: int, dy: int) -> None:
        edges.setdefault((x0, y0), []).append((dx, dy))

    top_open = ~padded[2:, 1:-1][ys, xs]
    bottom_open = ~padded[:-2, 1:-1][ys, xs]
    left_open = ~padded[1:-1, :-2][ys, xs]
    right_open = ~padded[1:-1, 2:][ys, xs]
    for x, y, t, b, l, r in zip(
        xs.tolist(), ys.tolist(), top_open.tolist(), bottom_open.tolist(),
        left_open.tolist(), right_open.tolist()
    ):
        if b:
            add(x, y, 1, 0)  # bottom edge, +x, interior above
        if r:
            add(x + 1, y, 0, 1)  # right edge, +y, interior to the left
        if t:
            add(x + 1, y + 1, -1, 0)  # top edge, -x, interior below
        if l:
            add(x, y + 1, 0, -1)  # left edge, -y, interior to the right
    return edges


def _compress_ring(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge runs of collinear unit steps into maximal edges."""
    ring: list[tuple[int, int]] = []
    n = len(points)
    for i in range(n):
        prev = points[i - 1]
        cur = points[i]
        nxt = points[(i + 1) % n]
        d_in = (cur[0] - prev[0], cur[1] - prev[1])
        d_out = (nxt[0] - cur[0], nxt[1] - cur[1])
        turn_in = (d_in[0] and 1) or 0, (d_in[1] and 1) or 0
        turn_out = (d_out[0] and 1) or 0, (d_out[1] and 1) or 0
        if turn_in != turn_out:
            ring.append(cur)
    return ring


def trace_mask(
    mask: np.ndarray, origin: tuple[int, int] = (0, 0)
) -> tuple[list[RectilinearPolygon], list[RectilinearPolygon]]:
    """Trace all boundary loops of ``mask`` into rectilinear rings.

    Returns ``(outers, holes)``: counter-clockwise outer rings and
    clockwise hole rings.  At saddle vertices (two diagonal inside cells)
    the tracer turns left, which splits the boundary into loops that touch
    at the vertex but never cross.
    """
    if mask.ndim != 2:
        raise RasterError(f"mask must be 2-D, got shape {mask.shape}")
    ox, oy = origin
    edges = _boundary_edges(mask)
    # Pair every incoming edge with its outgoing successor up front.  At a
    # regular vertex there is a single choice; at a saddle vertex the
    # left-turn partner is always present, and pairing globally (instead of
    # while walking) guarantees loops never cross no matter where a walk
    # starts.
    visited: set[tuple[int, int, int, int]] = set()
    outers: list[RectilinearPolygon] = []
    holes: list[RectilinearPolygon] = []

    def successor(vertex: tuple[int, int], direction: tuple[int, int]):
        end = (vertex[0] + direction[0], vertex[1] + direction[1])
        options = edges.get(end)
        if not options:
            raise RasterError(f"boundary trace broke at vertex {end}")
        if len(options) == 1:
            return end, options[0]
        left = _LEFT_TURN[direction]
        if left not in options:
            raise RasterError(f"inconsistent saddle at vertex {end}")
        return end, left

    for start_vertex in sorted(edges):
        for start_dir in edges[start_vertex]:
            if (*start_vertex, *start_dir) in visited:
                continue
            ring_points: list[tuple[int, int]] = []
            vertex, direction = start_vertex, start_dir
            while (*vertex, *direction) not in visited:
                visited.add((*vertex, *direction))
                ring_points.append(vertex)
                vertex, direction = successor(vertex, direction)
            ring = _compress_ring(ring_points)
            poly = RectilinearPolygon(
                [(x + ox, y + oy) for x, y in ring], validate=False
            )
            if poly.signed_area > 0:
                outers.append(poly)
            else:
                holes.append(poly)
    return outers, holes


def extract_polygons(
    mask: np.ndarray,
    origin: tuple[int, int] = (0, 0),
    fill_interior_holes: bool = True,
    min_area: int = 1,
) -> list[RectilinearPolygon]:
    """Segment ``mask`` into object polygons, the library's "segmentation".

    Parameters
    ----------
    mask:
        Boolean pixel mask.
    origin:
        ``(x, y)`` offset added to every vertex — the tile position within
        the whole-slide image.
    fill_interior_holes:
        When ``True`` (default) interior holes are filled first so every
        returned polygon is simply connected, which matches how nuclei
        segmentations are post-processed in practice.  When ``False`` a
        mask with holes raises :class:`~repro.errors.RasterError`.
    min_area:
        Objects smaller than this many pixels are dropped (speckle
        removal).
    """
    work = fill_holes(mask) if fill_interior_holes else np.asarray(mask, dtype=bool)
    outers, holes = trace_mask(work, origin)
    if holes and not fill_interior_holes:
        raise RasterError(
            f"mask has {len(holes)} interior hole(s); pass "
            "fill_interior_holes=True to fill them"
        )
    return [p for p in outers if p.area >= min_area]


# ----------------------------------------------------------------------
# Mask utilities
# ----------------------------------------------------------------------
def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill interior holes: pixels not 4-connected to the mask border.

    Equivalent to ``scipy.ndimage.binary_fill_holes`` but self-contained;
    the test-suite cross-checks the two implementations.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise RasterError(f"mask must be 2-D, got shape {mask.shape}")
    h, w = mask.shape
    outside = np.zeros((h + 2, w + 2), dtype=bool)
    blocked = np.zeros((h + 2, w + 2), dtype=bool)
    blocked[1:-1, 1:-1] = mask
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    outside[0, 0] = True
    while queue:
        y, x = queue.popleft()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h + 2 and 0 <= nx < w + 2:
                if not outside[ny, nx] and not blocked[ny, nx]:
                    outside[ny, nx] = True
                    queue.append((ny, nx))
    return ~outside[1:-1, 1:-1]


def mask_bbox(mask: np.ndarray, origin: tuple[int, int] = (0, 0)) -> Box | None:
    """MBR of the true pixels of ``mask``, or ``None`` for an empty mask."""
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    if len(xs) == 0:
        return None
    ox, oy = origin
    return Box(
        int(xs.min()) + ox,
        int(ys.min()) + oy,
        int(xs.max()) + 1 + ox,
        int(ys.max()) + 1 + oy,
    )
