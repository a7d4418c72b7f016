"""Registry shims for the two worker-process backends.

Both are :class:`repro.cluster.coordinator.ClusterBackend`: ``cluster``
runs on its hosts (``REPRO_CLUSTER_HOSTS`` by default) or, without any,
on local worker processes; ``multiprocess`` always runs on local worker
processes.  The coordinator imports :mod:`repro.backends.base`, so both
register through lazy factories that keep the two packages' imports
free of cycles whichever is imported first.
"""

from __future__ import annotations

from repro.backends.base import register


@register("cluster")
def cluster_backend(**kwargs):
    """Factory for :class:`repro.cluster.coordinator.ClusterBackend`."""
    from repro.cluster.coordinator import ClusterBackend

    return ClusterBackend(**kwargs)


@register("multiprocess")
def multiprocess_backend(**kwargs):
    """``ClusterBackend`` on ``workers`` local worker processes."""
    from repro.cluster.coordinator import ClusterBackend

    if "hosts" in kwargs:
        raise TypeError("multiprocess runs local workers and takes no hosts")
    backend = ClusterBackend(hosts=(), **kwargs)
    backend.name = "multiprocess"
    backend.description = "pair shards on local worker processes"
    return backend
