"""Integer pixel-grid geometry substrate.

Everything the paper computes lives on the pixel grid of a scanned slide:
polygons are rectilinear with integer vertices, areas are exact pixel
counts, and MBRs are integer boxes.  This package provides those
primitives plus lossless conversions between binary masks and polygons.
"""

from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.polyset import PolygonSet
from repro.geometry.raster import (
    extract_polygons,
    fill_holes,
    parity_fill,
    polygon_to_mask,
    trace_mask,
)
from repro.geometry.wkt import polygon_from_wkt, polygon_to_wkt

__all__ = [
    "Box",
    "RectilinearPolygon",
    "PolygonSet",
    "polygon_to_mask",
    "parity_fill",
    "trace_mask",
    "extract_polygons",
    "fill_holes",
    "polygon_from_wkt",
    "polygon_to_wkt",
]
