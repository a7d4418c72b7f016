"""Polygon file IO: the text format and the CPU parsers."""

from repro.io.parser_cpu import parse_fsm, parse_vectorized, tokenize_numbers
from repro.io.polyfile import (
    format_polygon,
    parse_line,
    read_polygons,
    write_polygons,
)
from repro.io.tiles import TilePair, list_tile_files, pair_result_sets, tile_name

__all__ = [
    "write_polygons",
    "read_polygons",
    "format_polygon",
    "parse_line",
    "parse_fsm",
    "parse_vectorized",
    "tokenize_numbers",
    "TilePair",
    "tile_name",
    "list_tile_files",
    "pair_result_sets",
]
