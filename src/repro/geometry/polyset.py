"""Columnar polygon sets: many rings in one vertex CSR.

The paper's parser stage emits device-ready arrays, so no later stage
touches a per-polygon structure (§4.1).  A :class:`PolygonSet` derives
areas, MBRs and the kernel's CSR :class:`EdgeTable` for all its rings
by whole-array operations — the CSR functions of
:mod:`repro.geometry.polygon`, which a single polygon calls with a
one-ring CSR — and a pair list's table is one gather out of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import GeometryError, RectilinearityError
from repro.geometry.polygon import (
    RectilinearPolygon,
    first_invalid_ring,
    ring_edges,
    signed_areas,
)

__all__ = ["EdgeTable", "PolygonSet", "ragged_rows"]

_INT32 = np.iinfo(np.int32)


def ragged_rows(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs ``starts[k] + arange(counts[k])`` concatenated, and the offsets
    of each run in the result (the gather of CSR segments)."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    rows = np.repeat(starts - bounds[:-1], counts) + np.arange(bounds[-1], dtype=np.int64)
    return rows, bounds


@dataclass(slots=True)
class EdgeTable:
    """CSR edge table for one side of a pair list.

    ``xs/lo/hi`` concatenate the *vertical* edges of every polygon and
    ``ys/xlo/xhi`` the *horizontal* ones; a rectilinear ring alternates
    the two families, so their counts are equal and both share
    ``offsets`` (``offsets[i]:offsets[i+1]`` is polygon ``i``'s span).
    Coordinates are int32, the kernel's hot-path width.
    """

    xs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ys: np.ndarray
    xlo: np.ndarray
    xhi: np.ndarray
    offsets: np.ndarray

    def counts(self) -> np.ndarray:
        """Edges per polygon (per family)."""
        return np.diff(self.offsets)

    def take(self, idx: np.ndarray) -> "EdgeTable":
        """The table of polygons ``idx``, in that order (one gather)."""
        rows, offsets = ragged_rows(self.offsets[idx], self.counts()[idx])
        columns = (self.xs, self.lo, self.hi, self.ys, self.xlo, self.xhi)
        return EdgeTable(*(column[rows] for column in columns), offsets)


@dataclass(frozen=True, eq=False)
class PolygonSet(Sequence):
    """An immutable set of rectilinear rings in one vertex CSR.

    Ring ``i`` is ``vertices[offsets[i]:offsets[i + 1]]`` (``int64``),
    implicitly closed; ``areas``, ``mbrs`` and ``edges`` are derived for
    the whole set on first use.  As a ``Sequence`` it yields unvalidated
    :class:`RectilinearPolygon` views.  Construction raises the error
    :class:`RectilinearPolygon` raises for the first invalid ring.
    """

    vertices: np.ndarray
    offsets: np.ndarray

    def __init__(self, vertices, offsets) -> None:
        v = np.array(vertices, dtype=np.int64).reshape(-1, 2)
        off = np.array(offsets, dtype=np.int64).reshape(-1)
        if off[:1].tolist() != [0] or off[-1] != len(v) or np.any(np.diff(off) < 0):
            raise GeometryError(f"offsets must rise from 0 to the vertex count {len(v)}")
        bad = first_invalid_ring(v, off)
        if bad is not None:
            raise bad[1]
        self._own(v, off)

    @classmethod
    def _trusted(cls, vertices: np.ndarray, offsets: np.ndarray) -> "PolygonSet":
        """A set over a CSR its producer has validated, without re-validating."""
        pset = cls.__new__(cls)
        pset._own(np.asarray(vertices, dtype=np.int64), np.asarray(offsets, dtype=np.int64))
        return pset

    def _own(self, vertices: np.ndarray, offsets: np.ndarray) -> None:
        for name, array in (("vertices", vertices), ("offsets", offsets)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_polygons(cls, polygons) -> "PolygonSet":
        """One set over ``polygons`` (a set is returned as it is)."""
        if isinstance(polygons, PolygonSet):
            return polygons
        arrays = [p.vertices for p in polygons]
        offsets = np.cumsum([0] + [len(a) for a in arrays])
        return cls._trusted(np.concatenate(arrays + [np.zeros((0, 2), np.int64)]), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> RectilinearPolygon:
        i = range(len(self))[i]
        return RectilinearPolygon._view(self.vertices[self.offsets[i] : self.offsets[i + 1]])

    def __eq__(self, other: object) -> bool:
        """Equal to another set or sequence holding equal polygons."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(p == q for p, q in zip(self, other))

    @cached_property
    def areas(self) -> np.ndarray:
        """``int64[n]`` unsigned areas in pixels."""
        return np.abs(signed_areas(self.vertices, self.offsets))

    @cached_property
    def mbrs(self) -> np.ndarray:
        """``int64[n, 4]`` minimum bounding rectangles ``x0, y0, x1, y1``."""
        starts = self.offsets[:-1]
        if not len(self.vertices):
            return np.zeros((len(starts), 4), dtype=np.int64)
        lo = np.minimum.reduceat(self.vertices, starts)
        return np.hstack([lo, np.maximum.reduceat(self.vertices, starts)])

    @cached_property
    def edges(self) -> EdgeTable:
        """The whole set's :class:`EdgeTable`.  Its int32 columns cannot
        hold every int64 coordinate: one outside raises, naming its
        polygon, rather than wrapping into a silently wrong area."""
        v = self.vertices
        if len(v) and (v.min() < _INT32.min or v.max() > _INT32.max):
            out = np.flatnonzero(np.any((v < _INT32.min) | (v > _INT32.max), axis=1))
            ring = int(np.searchsorted(self.offsets, out[0], side="right")) - 1
            raise GeometryError(
                f"polygon {ring}: vertex {tuple(v[out[0]].tolist())} is outside "
                "the int32 coordinate range of the kernel's edge tables"
            )
        vert, horz, offsets, h_offsets = ring_edges(v.astype(np.int32), self.offsets)
        if not np.array_equal(offsets, h_offsets):
            raise RectilinearityError("rectilinear ring with unbalanced edge families")
        return EdgeTable(*vert, *horz, offsets)
