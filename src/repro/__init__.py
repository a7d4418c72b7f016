"""repro — reproduction of "Accelerating Pathology Image Data
Cross-Comparison on CPU-GPU Hybrid Systems" (PixelBox / SCCG, VLDB 2012).

Public API tour
---------------
* :mod:`repro.api` — the session-centric front door (:class:`Session`,
  :class:`CompareRequest`, :func:`explain`).
* :mod:`repro.geometry` — rectilinear polygons on the pixel grid.
* :mod:`repro.exact` — exact vector overlay (the GEOS/PostGIS stand-in).
* :mod:`repro.pixelbox` — the paper's PixelBox algorithm (all variants).
* :mod:`repro.gpu` — SIMT GPU simulator used for architecture experiments.
* :mod:`repro.index` — the sort-and-sweep MBR pair join; the Hilbert
  R-tree of the SDBMS baseline.
* :mod:`repro.sdbms` — mini spatial DBMS with per-operator profiling.
* :mod:`repro.io` / :mod:`repro.data` — polygon files and synthetic slides.
* :mod:`repro.pipeline` — the paper's §4 schemes (pipelined, NoPipe-S/M,
  task migration): measured stage costs replayed through a
  deterministic machine model; run by Table 1, Fig. 11/12.
* :mod:`repro.backends` — interchangeable execution backends (registry).
* :mod:`repro.service` / :mod:`repro.cluster` — async serving + sharding.
* :mod:`repro.metrics` — Jaccard similarity of polygon sets.
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart
----------
>>> from repro import Session
>>> from repro.data import generate_tile_pair
>>> with Session() as session:
...     result = session.compare_sets(*generate_tile_pair(seed=7))
>>> 0.0 < result.jaccard_mean <= 1.0
True
"""

from repro._version import __version__
from repro.geometry import Box, RectilinearPolygon

__all__ = [
    "__version__",
    "Box",
    "RectilinearPolygon",
    "Session",
    "CompareOptions",
    "CompareRequest",
    "CompareResult",
    "PairOutcome",
    "ResolvedPlan",
    "explain",
    "ComparisonService",
    "ServiceConfig",
]

_API_NAMES = {
    "Session",
    "CompareOptions",
    "CompareRequest",
    "CompareResult",
    "PairOutcome",
    "ResolvedPlan",
    "explain",
    "ComparisonService",
    "ServiceConfig",
}


def __getattr__(name: str):
    """Load the high-level API lazily.

    ``repro.api`` pulls in the index and kernel packages; deferring the
    import keeps ``import repro`` cheap for users who only need geometry.
    """
    if name in _API_NAMES:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
