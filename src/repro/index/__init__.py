"""Spatial indexing substrate: the MBR join, Hilbert curve and R-tree.

The pipeline joins two parsed sets' MBR arrays without an index: its
builder stage sorts one side on both axes and its filter stage sweeps
the other against it for the aggregator's pair batch
(:mod:`repro.index.join`).  The Hilbert R-tree §4.1 builds per tile
serves the SDBMS baseline (:mod:`repro.sdbms`), the PostGIS stand-in of
Fig. 2, Table 1 and Fig. 12; it is no pipeline stage.
"""

from repro.index.hilbert import d_to_xy, hilbert_keys, xy_to_d
from repro.index.hilbert_rtree import DEFAULT_ORDER, bulk_load, bulk_load_polygons
from repro.index.join import PairJoinResult, SortedMBRs, mbr_pair_join, sweep_join
from repro.index.rtree import DEFAULT_FANOUT, RTree

__all__ = [
    "xy_to_d",
    "d_to_xy",
    "hilbert_keys",
    "RTree",
    "DEFAULT_FANOUT",
    "DEFAULT_ORDER",
    "bulk_load",
    "bulk_load_polygons",
    "PairJoinResult",
    "SortedMBRs",
    "mbr_pair_join",
    "sweep_join",
]
