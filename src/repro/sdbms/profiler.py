"""Component names of the SDBMS profile (Figure 2's bars).

The paper splits cross-comparing query execution into components — index
build, index search, ``ST_Intersects``, area-of-intersection,
area-of-union, stand-alone ``ST_Area`` — and measures the time the engine
spends in each on a single core.  The executor and spatial functions
charge their work to these buckets of a
:class:`repro.obs.clock.StageClock`.
"""

from __future__ import annotations

from repro.obs.clock import OTHER

__all__ = ["Bucket"]


class Bucket:
    """Canonical component names (Figure 2's bars)."""

    INDEX_BUILD = "Index_Build"
    INDEX_SEARCH = "Index_Search"
    ST_INTERSECTS = "ST_Intersects"
    AREA_OF_INTERSECTION = "Area_Of_Intersection"
    AREA_OF_UNION = "Area_Of_Union"
    ST_AREA = "ST_Area"
    OTHER = OTHER
