"""The measured half of the §4 reproduction: per-tile stage costs.

Each tile of a dataset runs once through the production stage bodies —
:func:`repro.io.parser_cpu.parse_vectorized`, then
:func:`repro.metrics.jaccard.jaccard_tile` — under a fresh
:class:`~repro.obs.clock.StageClock`, exactly as
:meth:`repro.Session.compare_files` runs it.  The clock's four buckets
become the tile's :class:`~repro.pipeline.model.TileCost`; the tiles'
partials sum, in tile order, into the dataset's ``J'``, so every
similarity the §4 experiments print is a real comparison.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.options import DEFAULT_OPTIONS
from repro.backends import get_backend
from repro.io.parser_cpu import parse_vectorized
from repro.io.tiles import pair_result_sets
from repro.metrics.jaccard import PairwiseJaccard, jaccard_tile
from repro.obs.clock import StageClock
from repro.pipeline.model import TileCost

__all__ = ["measure_tiles"]


def measure_tiles(
    dir_a: str | Path, dir_b: str | Path
) -> tuple[tuple[TileCost, ...], PairwiseJaccard]:
    """Stage seconds of every tile of two result sets, and their ``J'``.

    A malformed tile file raises the parser's own
    :class:`~repro.errors.ParseError`, as on the production path.
    """
    config = DEFAULT_OPTIONS.launch_config()
    costs: list[TileCost] = []
    total = PairwiseJaccard()
    with get_backend(DEFAULT_OPTIONS.backend) as backend:
        for tile in pair_result_sets(dir_a, dir_b):
            clock = StageClock("pipeline.")
            with clock.measure("parser", tile=tile.tile_id):
                raw_a = tile.file_a.read_bytes()
                raw_b = tile.file_b.read_bytes()
                set_a = parse_vectorized(raw_a)
                set_b = parse_vectorized(raw_b)
            partial = jaccard_tile(
                set_a,
                set_b,
                lambda pairs: backend.compare_pairs(pairs, config),
                clock,
            )
            costs.append(
                TileCost(
                    tile_id=tile.tile_id,
                    parser=clock.seconds("parser"),
                    builder=clock.seconds("builder"),
                    filter=clock.seconds("filter"),
                    aggregator=clock.seconds("aggregator"),
                    pairs=partial.candidate_pairs,
                    input_bytes=len(raw_a) + len(raw_b),
                )
            )
            total += partial
    return tuple(costs), total
