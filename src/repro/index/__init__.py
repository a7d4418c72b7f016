"""Spatial indexing substrate: Hilbert curve, R-tree, and the MBR join.

The pipeline's builder stage bulk-loads a Hilbert R-tree per tile from a
parsed set's MBR array; the filter stage probes it with the other set's
MBRs in one batched search for the aggregator's pair batch (§4.1).
"""

from repro.index.hilbert import d_to_xy, hilbert_keys, xy_to_d
from repro.index.hilbert_rtree import DEFAULT_ORDER, bulk_load, bulk_load_polygons
from repro.index.join import PairJoinResult, mbr_pair_join
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
    "mbr_pair_join",
]
