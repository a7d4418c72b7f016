"""Exception hierarchy for the SCCG reproduction.

Every package raises subclasses of :class:`ReproError` so applications can
catch library failures with a single ``except`` clause while still being
able to distinguish geometry problems from, say, pipeline misuse.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GeometryError",
    "RectilinearityError",
    "RingClosureError",
    "RasterError",
    "WktError",
    "ParseError",
    "IndexError_",
    "QueryError",
    "CatalogError",
    "KernelError",
    "CacheError",
    "DeviceError",
    "PipelineError",
    "RequestError",
    "SessionClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "ClusterError",
    "ClusterConfigError",
    "ClusterProtocolError",
    "DatasetError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GeometryError(ReproError):
    """Invalid geometric input (malformed polygon, empty box, ...)."""


class RectilinearityError(GeometryError):
    """A polygon violates the rectilinear (axis-aligned edges) contract."""


class RingClosureError(GeometryError):
    """A polygon ring is not closed or has too few vertices."""


class RasterError(GeometryError):
    """A raster mask cannot be converted to/from polygons."""


class WktError(GeometryError):
    """Malformed Well-Known-Text input."""


class ParseError(ReproError):
    """Malformed polygon file content."""


class IndexError_(ReproError):
    """Spatial index construction or query misuse."""


class QueryError(ReproError):
    """Invalid SDBMS query plan or expression."""


class CatalogError(ReproError):
    """Unknown table/column or duplicate registration in the catalog."""


class KernelError(ReproError):
    """PixelBox kernel misconfiguration (bad threshold, empty batch, ...)."""


class CacheError(ReproError):
    """Result-cache misuse (bad byte budget, malformed cache key)."""


class DeviceError(ReproError):
    """GPU simulator / device model misuse."""


class PipelineError(ReproError):
    """A machine record or scheme the §4 model cannot run."""


class RequestError(ReproError):
    """Invalid :class:`repro.api.CompareRequest` / :class:`CompareOptions`."""


class SessionClosedError(ReproError):
    """A closed :class:`repro.Session` was asked to execute a request."""


class ServiceError(ReproError):
    """Comparison-service misuse or runtime failure."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request (queue at capacity)."""


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that is shutting down."""


class ClusterError(ReproError):
    """Distributed shard-cluster failure (transport, scheduling, workers)."""


class ClusterConfigError(ClusterError):
    """Invalid cluster configuration (malformed host list, bad options)."""


class ClusterProtocolError(ClusterError):
    """Malformed or out-of-contract frame on the cluster wire protocol."""


class DatasetError(ReproError):
    """Synthetic dataset specification or generation failure."""


class ExperimentError(ReproError):
    """Experiment harness misuse (unknown experiment id, bad params)."""
