"""Unit tests for repro.io: polygon files, parsers, tile layout."""

import numpy as np
import pytest

from repro.errors import DatasetError, ParseError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.io.parser_cpu import parse_fsm, parse_vectorized, tokenize_numbers
from repro.io.polyfile import (
    format_polygon,
    parse_line,
    read_polygons,
    write_polygons,
)
from repro.io.tiles import list_tile_files, pair_result_sets, tile_name
from tests.conftest import random_polygon

SQUARE = RectilinearPolygon.from_box(Box(3, 4, 7, 9))


class TestPolyfileFormat:
    def test_format_line(self):
        assert format_polygon(SQUARE) == "3,4 7,4 7,9 3,9"

    def test_parse_line_roundtrip(self):
        assert parse_line(format_polygon(SQUARE)) == SQUARE

    def test_write_read_roundtrip(self, tmp_path, rng):
        polys = [random_polygon(rng) for _ in range(25)]
        path = tmp_path / "tile.txt"
        assert write_polygons(path, polys) == 25
        assert read_polygons(path) == polys

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n\n3,4 7,4 7,9 3,9\n\n# trailer\n")
        assert read_polygons(path) == [SQUARE]

    @pytest.mark.parametrize(
        "bad",
        ["1,2 3,4", "1,2 3,4 5", "1;2 3;4 5;6 7;8", "a,b c,d e,f g,h"],
    )
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ParseError):
            parse_line(bad, lineno=3)


class TestParsers:
    def _sample_text(self, rng, count=40):
        polys = [random_polygon(rng) for _ in range(count)]
        text = "# generated sample\n" + "\n".join(
            format_polygon(p) for p in polys
        ) + "\n"
        return polys, text

    def test_fsm_matches_reference(self, rng):
        polys, text = self._sample_text(rng)
        assert parse_fsm(text) == polys

    def test_vectorized_matches_reference(self, rng):
        polys, text = self._sample_text(rng)
        assert parse_vectorized(text) == polys

    def test_parsers_agree_on_edge_formatting(self):
        text = "#c\n0,0  10,0 10,10 0,10\r\n1,1 2,1 2,2 1,2"
        assert parse_fsm(text) == parse_vectorized(text)

    def test_empty_input(self):
        assert parse_fsm("") == []
        assert parse_vectorized(b"") == []

    def test_fsm_rejects_odd_coordinates(self):
        with pytest.raises(ParseError):
            parse_fsm("1,1 2,1 2,2 1\n")

    def test_vectorized_rejects_odd_coordinates(self):
        with pytest.raises(ParseError):
            parse_vectorized("1,1 2,1 2,2 1\n")

    def test_fsm_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_fsm("1,1 2,1 2,2 1,2 !\n")

    def test_tokenizer(self):
        values, positions = tokenize_numbers(
            np.frombuffer(b"12,7 340,9", dtype=np.uint8)
        )
        assert values.tolist() == [12, 7, 340, 9]
        assert positions.tolist() == [0, 3, 5, 9]

    def test_tokenizer_empty(self):
        values, positions = tokenize_numbers(
            np.frombuffer(b", , \n", dtype=np.uint8)
        )
        assert len(values) == 0 and len(positions) == 0

    def test_vectorized_from_path(self, tmp_path, rng):
        polys, text = self._sample_text(rng, 10)
        path = tmp_path / "x.txt"
        path.write_text(text)
        assert parse_vectorized(path) == polys


class TestTileLayout:
    def test_tile_name(self):
        assert tile_name(3) == "tile_0003.txt"
        with pytest.raises(DatasetError):
            tile_name(-1)

    def test_list_and_pair(self, tmp_path):
        for side in ("result_a", "result_b"):
            d = tmp_path / side
            d.mkdir()
            for t in range(3):
                (d / tile_name(t)).write_text("0,0 1,0 1,1 0,1\n")
        pairs = pair_result_sets(tmp_path / "result_a", tmp_path / "result_b")
        assert [p.tile_id for p in pairs] == [0, 1, 2]

    def test_strict_mismatch_raises(self, tmp_path):
        for side, tiles in (("a", [0, 1]), ("b", [0, 2])):
            d = tmp_path / side
            d.mkdir()
            for t in tiles:
                (d / tile_name(t)).write_text("0,0 1,0 1,1 0,1\n")
        with pytest.raises(DatasetError):
            pair_result_sets(tmp_path / "a", tmp_path / "b")
        lax = pair_result_sets(tmp_path / "a", tmp_path / "b", strict=False)
        assert [p.tile_id for p in lax] == [0]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError):
            list_tile_files(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DatasetError):
            list_tile_files(tmp_path / "empty")
