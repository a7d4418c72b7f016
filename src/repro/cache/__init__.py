"""Three-tier content-addressed result cache.

The repeat-traffic answer to the ROADMAP's "millions of users" north
star: the same slide pairs under the same configs should cost a lookup,
not a recomputation.  One bounded-memory LRU store implementation
(:class:`LRUCacheStore`) backs three tiers:

* **shard tier** — worker-side (``ShardWorker``) and local
  (``MultiprocessBackend``) shard results keyed by
  ``(bundle_digest, shard range, ExecutionPolicy, LaunchConfig)``, so
  straggler speculation, failure re-dispatch, and service retries hit
  instead of recomputing.
* **merge tier** — coordinator-side (``ClusterBackend``) assembled
  results keyed by the same identity minus the shard range.
* **request tier** — front-door (``Session`` / ``ComparisonService``)
  results keyed by the canonical serialized ``CompareRequest``, with a
  :class:`SingleFlight` stampede guard.

``CompareOptions(cache=True, cache_bytes=...)`` threads the knob through
library, CLI, and service identically; ``repro cache stats|clear``
inspects a running service.
"""

from repro.cache.keys import (
    config_token,
    merge_key,
    pairs_key,
    policy_token,
    request_key,
    shard_key,
)
from repro.cache.store import CacheSnapshot, CacheStore, LRUCacheStore, SingleFlight
from repro.cache.values import (
    areas_nbytes,
    copy_areas,
    copy_shard_result,
    shard_result_nbytes,
)

__all__ = [
    "CacheSnapshot",
    "CacheStore",
    "LRUCacheStore",
    "SingleFlight",
    "areas_nbytes",
    "config_token",
    "copy_areas",
    "copy_shard_result",
    "merge_key",
    "pairs_key",
    "policy_token",
    "request_key",
    "shard_key",
    "shard_result_nbytes",
]
