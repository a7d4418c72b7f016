"""The content-addressed result cache: one tier, at the front door.

The same slide pairs under the same configs should cost a lookup, not a
recomputation.  One bounded-memory LRU store
(:class:`LRUCacheStore`), one key (:func:`pairs_key`: pair geometry +
launch config — every backend runs the same policy, so the executor is
not part of it) and one tier, held by the two front
doors — ``Session`` (``session.request``) and ``ComparisonService``
(``service.request``) — with a :class:`SingleFlight` stampede guard.
``sets`` and ``files`` requests are cached per tile, by the geometry of
the tile's candidate pairs.  Nothing below the front door caches
results: every lower key contained the whole request's digest, so a
lower tier could only hit when the front door already had.

``CompareOptions(cache=True, cache_bytes=...)`` threads the knob through
library, CLI, and service identically; ``repro cache stats|clear``
inspects a running service.
"""

from repro.cache.keys import config_token, pairs_key
from repro.cache.store import CacheSnapshot, CacheStore, LRUCacheStore, SingleFlight
from repro.cache.values import areas_nbytes, copy_areas

__all__ = [
    "CacheSnapshot",
    "CacheStore",
    "LRUCacheStore",
    "SingleFlight",
    "areas_nbytes",
    "config_token",
    "copy_areas",
    "pairs_key",
]
