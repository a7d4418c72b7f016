"""Task types flowing through the cross-comparing pipeline.

A computation task at every stage is defined at the image-tile scale
(paper §4.1): the parser consumes the two polygon files of one tile, the
builder indexes the parsed polygons, the filter emits the tile's
MBR-intersecting pair batch, and the aggregator reduces pair areas into
the tile's partial similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geometry.polygon import RectilinearPolygon
from repro.index.rtree import RTree
from repro.metrics.jaccard import PairwiseJaccard

__all__ = ["ParseTask", "ParsedTile", "BuiltTile", "FilteredBatch", "TileResult"]


@dataclass(frozen=True, slots=True)
class ParseTask:
    """Input to the parser: one tile's two polygon files."""

    tile_id: int
    file_a: Path
    file_b: Path

    @property
    def input_bytes(self) -> int:
        """Raw text size (the throughput metric's numerator, §5.6)."""
        return self.file_a.stat().st_size + self.file_b.stat().st_size


@dataclass(slots=True)
class ParsedTile:
    """Parser output: binary polygon sets of one tile."""

    tile_id: int
    polygons_a: list[RectilinearPolygon]
    polygons_b: list[RectilinearPolygon]
    input_bytes: int = 0


@dataclass(slots=True)
class BuiltTile:
    """Builder output: parsed tile plus the spatial index over set B."""

    tile_id: int
    polygons_a: list[RectilinearPolygon]
    polygons_b: list[RectilinearPolygon]
    index: RTree
    input_bytes: int = 0


@dataclass(slots=True)
class FilteredBatch:
    """Filter output: the tile's MBR-intersecting polygon pairs."""

    tile_id: int
    pairs: list[tuple[RectilinearPolygon, RectilinearPolygon]]
    left_idx: np.ndarray
    right_idx: np.ndarray
    count_a: int
    count_b: int
    input_bytes: int = 0

    @property
    def size(self) -> int:
        """Pair count — the migrator's 'smallest task' ordering key."""
        return len(self.pairs)


@dataclass(slots=True)
class TileResult:
    """Aggregator output: one tile's ``J'`` partial."""

    tile_id: int
    partial: PairwiseJaccard
    input_bytes: int = 0
    executed_on: str = "gpu"
