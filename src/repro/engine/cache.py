"""A small LRU cache used by the query engine's client-side page cache."""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional


class LruCache:
    """Least-recently-used cache with hit/miss accounting.

    Backed by the insertion order of a plain dict: a ``get`` re-inserts the
    key (making it most-recent) and a ``put`` beyond capacity evicts the
    oldest entry.  Values must tolerate being shared between users — the
    engine only caches objects that are treated as read-only after decode.

    Operations are guarded by a lock, so one cache may safely serve
    several threads (e.g. concurrent :meth:`QueryEngine.execute` calls,
    which all share the engine's page cache).
    """

    __slots__ = ("capacity", "hits", "misses", "_entries", "_lock")

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` on a miss."""
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._entries[key] = value  # re-insert as most recently used
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the least-recent entry when full."""
        with self._lock:
            entries = self._entries
            if key in entries:
                del entries[key]
            elif len(entries) >= self.capacity:
                del entries[next(iter(entries))]
            entries[key] = value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LruCache(capacity={self.capacity}, size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class NullCache:
    """A cache-shaped no-op used when caching is disabled.

    Measurement runs need an engine without client-side decode caching
    (``cache_entries=0``): every ``get`` misses, every ``put`` is dropped, and
    the miss count keeps the batch statistics meaningful.  The counter is
    lock-guarded for the same reason :class:`LruCache` is.
    """

    __slots__ = ("hits", "misses", "_lock")

    capacity = 0

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        return None

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __contains__(self, key: Hashable) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NullCache(misses={self.misses})"
