"""Polygon tables and the catalog — the storage layer of the mini SDBMS.

A :class:`PolygonTable` is a named, immutable collection of polygons with
an optional GiST-style spatial index over polygon MBRs (built with the
Hilbert bulk loader, timed under the profiler's ``Index_Build`` bucket —
the "build indexes" step of the paper's §2.2 workflow).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.errors import CatalogError
from repro.geometry.polygon import RectilinearPolygon
from repro.index.hilbert_rtree import bulk_load_polygons
from repro.index.rtree import RTree
from repro.io.polyfile import read_polygons
from repro.obs.clock import StageClock
from repro.sdbms.profiler import Bucket

__all__ = ["PolygonTable", "Catalog"]


class PolygonTable:
    """An immutable polygon relation."""

    def __init__(self, name: str, polygons: list[RectilinearPolygon]) -> None:
        if not name.isidentifier():
            raise CatalogError(f"table name must be an identifier: {name!r}")
        self.name = name
        self.polygons = list(polygons)
        self._index: RTree | None = None

    def __len__(self) -> int:
        return len(self.polygons)

    def __repr__(self) -> str:
        indexed = "indexed" if self._index is not None else "no index"
        return f"PolygonTable({self.name!r}, {len(self)} rows, {indexed})"

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_files(
        cls, name: str, paths: Iterable[str | Path]
    ) -> "PolygonTable":
        """COPY-style load from polygon text files."""
        polygons: list[RectilinearPolygon] = []
        for path in paths:
            polygons.extend(read_polygons(path))
        return cls(name, polygons)

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    def build_index(self, profiler: StageClock | None = None) -> RTree:
        """Build (or return) the spatial index over polygon MBRs."""
        if self._index is None:
            prof = profiler or StageClock()
            with prof.measure(Bucket.INDEX_BUILD):
                self._index = bulk_load_polygons(self.polygons)
        return self._index

    @property
    def index(self) -> RTree:
        """The spatial index (raises if not yet built)."""
        if self._index is None:
            raise CatalogError(
                f"table {self.name!r} has no index; call build_index() first"
            )
        return self._index

    def chunk(self, parts: int) -> list["PolygonTable"]:
        """Split into ``parts`` near-equal tables (PostGIS-M partitioning)."""
        if parts < 1:
            raise CatalogError(f"parts must be >= 1, got {parts}")
        step = -(-len(self.polygons) // parts) if self.polygons else 1
        out = []
        for k, lo in enumerate(range(0, max(len(self.polygons), 1), step)):
            out.append(
                PolygonTable(
                    f"{self.name}_part{k}", self.polygons[lo : lo + step]
                )
            )
        return out


class Catalog:
    """Name -> table registry."""

    def __init__(self) -> None:
        self._tables: dict[str, PolygonTable] = {}

    def register(self, table: PolygonTable) -> None:
        """Add a table; duplicate names are an error."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def get(self, name: str) -> PolygonTable:
        """Look up a table by name."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._tables)
