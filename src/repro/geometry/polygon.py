"""Rectilinear polygons with integer vertices.

Polygons segmented from raster pathology images are a special form of
rectilinear polygon (paper §3.1): vertex coordinates are integers and every
edge is horizontal or vertical, because the segmented boundary follows pixel
grid lines.  This module is the library-wide representation of such
polygons.

A polygon is stored as a closed ring of ``n`` vertices (the closing edge
from the last vertex back to the first is implicit).  Counter-clockwise
rings have positive signed area; the mask tracer in
:mod:`repro.geometry.raster` produces counter-clockwise outer rings.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import RectilinearityError, RingClosureError
from repro.geometry.box import Box

__all__ = ["RectilinearPolygon", "first_invalid_ring", "ring_edges", "signed_areas"]


def _next_vertex(offsets: np.ndarray) -> np.ndarray:
    """Each vertex's successor around its ring (the closing edge wraps)."""
    nxt = np.arange(1, offsets[-1] + 1, dtype=np.int64)
    ring = offsets[1:] > offsets[:-1]
    nxt[offsets[1:][ring] - 1] = offsets[:-1][ring]
    return nxt


def signed_areas(vertices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Shoelace signed area of every ring of a vertex CSR (see
    :attr:`RectilinearPolygon.signed_area`)."""
    x, y = vertices[:, 0], vertices[:, 1]
    nxt = _next_vertex(offsets)
    cross = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(x * y[nxt] - x[nxt] * y, out=cross[1:])
    return (cross[offsets[1:]] - cross[offsets[:-1]]) // 2


def ring_edges(vertices: np.ndarray, offsets: np.ndarray):
    """``(vertical, horizontal, v_offsets, h_offsets)`` of a vertex CSR:
    ``(x, y_lo, y_hi)`` and ``(y, x_lo, x_hi)`` rows in ring order, ``lo <
    hi`` whatever the traversal direction; offsets delimit each ring."""
    nxt = vertices[_next_vertex(offsets)]
    edges, spans = [], []
    for axis in (0, 1):
        along = vertices[:, axis] == nxt[:, axis]
        a, b = vertices[along, 1 - axis], nxt[along, 1 - axis]
        edges.append(np.column_stack([vertices[along, axis], np.minimum(a, b), np.maximum(a, b)]))
        spans.append(np.concatenate([[0], np.cumsum(along)])[offsets])
    return (*edges, *spans)


# A ring's checks, by bit; the highest failing bit is reported.  An
# explicit closing vertex is the most common input error.  Re-visiting a
# vertex elsewhere is legal: a pinched region's boundary does so.
_CHECKS = (
    (RectilinearityError, "edges around vertex {at} do not alternate horizontal/vertical"),
    (RectilinearityError, "edge starting at vertex {at} has zero length"),
    (RectilinearityError, "edge starting at vertex {at} is diagonal"),
    (RectilinearityError, "a rectilinear ring has an even vertex count, got {n}"),
    (RingClosureError, "ring must not repeat the first vertex at the end "
     "(rings are implicitly closed)"),
    (RingClosureError, "a rectilinear ring needs >= 4 vertices, got {n}"),
)


def first_invalid_ring(vertices: np.ndarray, offsets: np.ndarray):
    """``(ring, error)`` of the first ring of a vertex CSR that breaks the
    rectilinear-ring contract, or ``None``; ``error`` is the one
    :class:`RectilinearPolygon` raises for that ring alone (checks in
    :data:`_CHECKS` order, naming the first offending vertex)."""
    counts = np.diff(offsets)
    m = len(vertices)
    if m == 0:
        return (0, RingClosureError(_CHECKS[5][1].format(n=0))) if len(counts) else None
    nxt = _next_vertex(offsets)
    moves_x = vertices[nxt, 0] != vertices[:, 0]
    moves_y = vertices[nxt, 1] != vertices[:, 1]
    code = (moves_x & moves_y).view(np.uint8) << 2
    code |= (~(moves_x | moves_y)).view(np.uint8) << 1
    code |= (moves_x == moves_x[nxt]).view(np.uint8)
    # Empty rings (caught by the count check) take no part in the reduction,
    # so every other ring reduces over exactly its own vertices.
    ring_code = np.zeros(len(counts), dtype=np.uint8)
    ring_code[counts > 0] = np.bitwise_or.reduceat(code, offsets[:-1][counts > 0])
    starts = np.minimum(offsets[:-1], m - 1)
    closed = np.all(vertices[starts] == vertices[np.maximum(offsets[1:] - 1, 0)], axis=1)
    ring_code |= ((counts % 2 != 0) << 3 | closed << 4 | (counts < 4) << 5).astype(np.uint8)
    bad = np.flatnonzero(ring_code)
    if len(bad) == 0:
        return None
    r = int(bad[0])
    check = int(ring_code[r]).bit_length() - 1
    flags = code[offsets[r] : offsets[r + 1]] >> min(check, 2) & 1
    at = int(np.flatnonzero(flags)[0]) if check < 3 else 0
    error, message = _CHECKS[check]
    return r, error(message.format(n=int(counts[r]), at=at))


class RectilinearPolygon:
    """An immutable simple rectilinear polygon on the pixel grid.

    Parameters
    ----------
    vertices:
        Sequence of ``(x, y)`` integer pairs or an ``(n, 2)`` array.  The
        ring must not repeat the first vertex at the end; consecutive
        vertices (including last -> first) must differ in exactly one
        coordinate, and edge directions must alternate between horizontal
        and vertical.
    validate:
        Skip structural validation when ``False`` — used internally by
        constructors that produce rings that are correct by construction.
    """

    __slots__ = ("_vertices", "__dict__")

    def __init__(
        self, vertices: Sequence[tuple[int, int]] | np.ndarray, validate: bool = True
    ) -> None:
        arr = np.asarray(vertices, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise RingClosureError(
                f"vertices must be an (n, 2) array, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self._vertices = arr
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        bad = first_invalid_ring(self._vertices, self._ring)
        if bad is not None:
            raise bad[1]

    @property
    def _ring(self) -> np.ndarray:
        """This polygon as a one-ring CSR (``offsets`` of the set functions)."""
        return np.array([0, len(self._vertices)], dtype=np.int64)

    @classmethod
    def _view(cls, vertices: np.ndarray) -> "RectilinearPolygon":
        """Wrap a read-only int64 ``(n, 2)`` array the caller owns and has
        validated, without copying or re-validating it."""
        poly = cls.__new__(cls)
        poly._vertices = vertices
        return poly

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """Read-only ``(n, 2)`` int64 vertex array."""
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for x, y in self._vertices:
            yield (int(x), int(y))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectilinearPolygon):
            return NotImplemented
        return self._vertices.shape == other._vertices.shape and bool(
            np.array_equal(self._vertices, other._vertices)
        )

    def __hash__(self) -> int:
        return hash(self._vertices.tobytes())

    def __repr__(self) -> str:
        return (
            f"RectilinearPolygon({len(self)} vertices, area={self.area}, "
            f"mbr={self.mbr.as_tuple()})"
        )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @cached_property
    def signed_area(self) -> int:
        """Shoelace signed area; positive for counter-clockwise rings.

        This is ``PolyArea`` from Algorithm 1:
        ``A = 1/2 * sum(x_i * y_{i+1} - x_{i+1} * y_i)``.  For rectilinear
        integer rings the doubled sum is always even, so the result is an
        exact integer equal to the number of pixels enclosed (signed).
        """
        return int(signed_areas(self._vertices, self._ring)[0])

    @cached_property
    def area(self) -> int:
        """Unsigned area in pixels — ``ST_Area`` of this polygon."""
        return abs(self.signed_area)

    @cached_property
    def mbr(self) -> Box:
        """Minimum bounding rectangle."""
        v = self._vertices
        return Box(*v.min(axis=0).tolist(), *v.max(axis=0).tolist())

    @cached_property
    def vertical_edges(self) -> np.ndarray:
        """``(k, 3)`` array of vertical edges as ``(x, y_lo, y_hi)``.

        ``y_lo < y_hi`` regardless of the ring's traversal direction.  Only
        vertical edges matter for the horizontal-ray parity test used
        throughout the library.
        """
        return ring_edges(self._vertices, self._ring)[0]

    @cached_property
    def horizontal_edges(self) -> np.ndarray:
        """``(k, 3)`` array of horizontal edges as ``(y, x_lo, x_hi)``."""
        return ring_edges(self._vertices, self._ring)[1]

    @property
    def orientation(self) -> int:
        """``+1`` for counter-clockwise rings, ``-1`` for clockwise."""
        return 1 if self.signed_area > 0 else -1

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def contains_pixel(self, x: int, y: int) -> bool:
        """Parity (ray-casting) test for the pixel ``(x, y)``.

        A horizontal ray is cast from the pixel center ``(x+0.5, y+0.5)``
        towards ``-x`` and crossings with vertical edges are counted
        (paper §3.1 / Figure 4(b)).  Centers sit strictly between grid
        lines, so a crossing with edge ``(xe, y_lo, y_hi)`` happens exactly
        when ``xe <= x`` and ``y_lo <= y < y_hi`` — no degenerate cases.
        """
        edges = self.vertical_edges
        hit = (edges[:, 0] <= x) & (edges[:, 1] <= y) & (y < edges[:, 2])
        return bool(np.count_nonzero(hit) % 2)

    def contains_point(self, px: float, py: float) -> bool:
        """Parity test for an arbitrary point strictly off the grid lines."""
        edges = self.vertical_edges
        hit = (edges[:, 0] < px) & (edges[:, 1] < py) & (py < edges[:, 2])
        return bool(np.count_nonzero(hit) % 2)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translate(self, dx: int, dy: int) -> "RectilinearPolygon":
        """The polygon shifted by ``(dx, dy)``."""
        return RectilinearPolygon(
            self._vertices + np.array([dx, dy], dtype=np.int64), validate=False
        )

    def scale(self, factor: int) -> "RectilinearPolygon":
        """Multiply every coordinate by ``factor``.

        This is the paper's §5.2 "scale factor" stress transformation: a
        factor of ``s`` grows the pixel count by ``s**2`` while keeping the
        vertex count unchanged.
        """
        if factor <= 0:
            raise RectilinearityError(f"scale factor must be positive, got {factor}")
        return RectilinearPolygon(self._vertices * np.int64(factor), validate=False)

    def reversed(self) -> "RectilinearPolygon":
        """The same ring traversed in the opposite direction."""
        return RectilinearPolygon(self._vertices[::-1], validate=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_box(cls, box: Box) -> "RectilinearPolygon":
        """The counter-clockwise rectangle ring covering ``box``."""
        return cls(
            [
                (box.x0, box.y0),
                (box.x1, box.y0),
                (box.x1, box.y1),
                (box.x0, box.y1),
            ],
            validate=False,
        )

    @classmethod
    def from_pairs(cls, flat: Iterable[int]) -> "RectilinearPolygon":
        """Build from a flat ``x0 y0 x1 y1 ...`` coordinate iterable."""
        coords = list(flat)
        if len(coords) % 2 != 0:
            raise RingClosureError("flat coordinate list has odd length")
        arr = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        return cls(arr)
