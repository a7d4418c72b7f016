"""The bounded-memory LRU store behind the front-door result cache.

A thread-safe LRU keyed by content-derived strings (see
:mod:`repro.cache.keys`), evicting least-recently-used entries once a
configurable byte budget is exceeded.  Values are opaque to the store —
the front door that owns it is responsible for copying mutable values
on the way in and out (see :mod:`repro.cache.values`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.errors import CacheError

__all__ = ["CacheSnapshot", "LRUCacheStore"]


@dataclass(frozen=True, slots=True)
class CacheSnapshot:
    """Point-in-time counters for one cache store."""

    name: str
    hits: int
    misses: int
    insertions: int
    evictions: int
    entries: int
    current_bytes: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "insertions": self.insertions,
            "evictions": self.evictions,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
        }


class LRUCacheStore:
    """Thread-safe LRU cache bounded by a byte budget.

    Parameters
    ----------
    max_bytes:
        Byte budget; inserting past it evicts least-recently-used
        entries until the total fits again.  Must be positive — an
        owner that wants caching off simply does not construct a store.
    name:
        Label carried into :class:`CacheSnapshot`: the tier the store
        reports as (``"session.request"``, or ``"service.request"`` for
        the session a service owns).
    """

    def __init__(self, max_bytes: int, name: str = "cache") -> None:
        if max_bytes <= 0:
            raise CacheError(f"cache byte budget must be > 0, got {max_bytes}")
        self.name = name
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0

    def get(self, key: str) -> Any | None:
        """The cached value, freshened in LRU order; ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def contains(self, key: str) -> bool:
        """Membership test that touches neither counters nor LRU order.

        ``explain()`` uses this to predict a hit without perturbing the
        cache it is describing.
        """
        with self._lock:
            return key in self._entries

    def put(self, key: str, value: Any, nbytes: int) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries over budget.

        A value larger than the whole budget is silently not stored —
        caching it would just evict everything else for a single entry.
        """
        if nbytes < 0:
            raise CacheError(f"entry size cannot be negative, got {nbytes}")
        nbytes = int(nbytes)
        if nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            self._insertions += 1
            while self._bytes > self.max_bytes and self._entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; counters other than ``entries`` survive."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> CacheSnapshot:
        with self._lock:
            return CacheSnapshot(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                entries=len(self._entries),
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
            )
