"""The polygon text-file format (the pipeline's raw input).

One polygon per line, vertices as comma-joined pairs separated by spaces::

    12,7 18,7 18,13 12,13
    30,2 35,2 35,9 30,9

Lines starting with ``#`` are comments; blank lines are ignored.  All
coordinates are non-negative integers on the pixel grid of the source
image (tile offsets are already applied by the segmentation step, as in
the paper's data layout where one polygon file holds one tile's objects).

:func:`write_polygons` / :func:`read_polygons` are the canonical
serializers; the performance parsers in :mod:`repro.io.parser_cpu`
consume the same format and are validated against
:func:`read_polygons`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from repro.errors import ParseError
from repro.geometry.polygon import RectilinearPolygon

__all__ = ["write_polygons", "read_polygons", "format_polygon", "parse_line"]


def format_polygon(polygon: RectilinearPolygon) -> str:
    """One line of the text format."""
    return " ".join(f"{x},{y}" for x, y in polygon)


def parse_line(line: str, lineno: int = 0) -> RectilinearPolygon:
    """Parse one polygon line (raises :class:`ParseError` with context)."""
    pairs = []
    for token in line.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: bad vertex token {token!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(
                f"line {lineno}: non-integer coordinate in {token!r}"
            ) from exc
    if len(pairs) < 4:
        raise ParseError(f"line {lineno}: only {len(pairs)} vertices")
    try:
        return RectilinearPolygon(np.asarray(pairs, dtype=np.int64))
    except Exception as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def write_polygons(path: str | Path, polygons: Iterable[RectilinearPolygon]) -> int:
    """Write polygons to ``path``; returns the number written."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        for polygon in polygons:
            handle.write(format_polygon(polygon))
            handle.write("\n")
            count += 1
    return count


def read_polygons(path: str | Path) -> list[RectilinearPolygon]:
    """Read a polygon file (reference implementation)."""
    out: list[RectilinearPolygon] = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            out.append(parse_line(stripped, lineno))
    return out
