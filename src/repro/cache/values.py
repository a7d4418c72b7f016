"""Copy/size helpers for the values the result cache stores.

The store holds plain values; these helpers keep its owners honest about
aliasing (cached arrays must never be mutated by callers) and about the
byte accounting the LRU budget runs on.
"""

from __future__ import annotations

from repro.pixelbox.common import KernelStats
from repro.pixelbox.kernel import BatchAreas

__all__ = ["areas_nbytes", "copy_areas"]

# Rough per-entry bookkeeping charge (key string, dict/object headers) so
# many tiny entries still count against the budget.
_ENTRY_OVERHEAD = 256


def copy_areas(areas: BatchAreas) -> BatchAreas:
    """A deep copy safe to hand to a caller (or keep in a store)."""
    return BatchAreas(
        intersection=areas.intersection.copy(),
        union=areas.union.copy(),
        area_p=areas.area_p.copy(),
        area_q=areas.area_q.copy(),
        stats=KernelStats(**areas.stats.as_dict()),
    )


def areas_nbytes(areas: BatchAreas) -> int:
    """Byte charge for one cached :class:`BatchAreas`."""
    return (
        areas.intersection.nbytes
        + areas.union.nbytes
        + areas.area_p.nbytes
        + areas.area_q.nbytes
        + _ENTRY_OVERHEAD
    )

