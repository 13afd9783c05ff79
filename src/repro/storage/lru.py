"""O(1) LRU structures shared by all caching levels.

The main-memory buffer, the NVEM cache and both kinds of disk caches are
LRU-managed (§3.2, §3.3).  :class:`LRUCache` provides the common
mechanism: a hash map into an intrusive doubly-linked list ordered from
most- to least-recently used, with per-entry ``dirty`` and ``fix_count``
bookkeeping so the buffer manager and disk-cache policies can express
their replacement rules ("least recently accessed unmodified page",
"LRU unfixed frame") as victim predicates.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Optional

__all__ = ["LRUCache", "LRUEntry"]


class LRUEntry:
    """One cached page; links are managed by the owning :class:`LRUCache`."""

    __slots__ = ("key", "dirty", "fix_count", "pending_write", "_prev", "_next")

    def __init__(self, key: Hashable):
        self.key = key
        self.dirty = False
        self.fix_count = 0
        #: Event for an in-flight asynchronous disk write, if any.
        self.pending_write = None
        self._prev: Optional["LRUEntry"] = None
        self._next: Optional["LRUEntry"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.dirty:
            flags.append("dirty")
        if self.fix_count:
            flags.append(f"fixed={self.fix_count}")
        return f"<LRUEntry {self.key!r} {' '.join(flags)}>"


class LRUCache:
    """Hash map + intrusive MRU->LRU list with victim selection.

    The cache never evicts on its own: callers check :meth:`is_full` and
    pick a victim explicitly, because every caching level in TPSIM has
    its own replacement constraints (write-backs, migration to the next
    level, unmodified-only victims, ...).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._map: dict = {}
        # Sentinel nodes: _head.next is MRU, _tail.prev is LRU.
        self._head = LRUEntry("__head__")
        self._tail = LRUEntry("__tail__")
        self._head._next = self._tail
        self._tail._prev = self._head

    # -- linked-list plumbing ---------------------------------------------
    def _unlink(self, entry: LRUEntry) -> None:
        entry._prev._next = entry._next
        entry._next._prev = entry._prev
        entry._prev = entry._next = None

    def _link_front(self, entry: LRUEntry) -> None:
        entry._next = self._head._next
        entry._prev = self._head
        self._head._next._prev = entry
        self._head._next = entry

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._map

    @property
    def is_full(self) -> bool:
        return len(self._map) >= self.capacity

    def peek(self, key: Hashable) -> Optional[LRUEntry]:
        """Look up without touching recency."""
        return self._map.get(key)

    def get(self, key: Hashable) -> Optional[LRUEntry]:
        """Look up and move to MRU position."""
        entry = self._map.get(key)
        if entry is not None:
            # Unlink + relink inline, skipped when already MRU.
            head = self._head
            first = head._next
            if first is not entry:
                prev = entry._prev
                nxt = entry._next
                prev._next = nxt
                nxt._prev = prev
                entry._prev = head
                entry._next = first
                first._prev = entry
                head._next = entry
        return entry

    def touch(self, entry: LRUEntry) -> None:
        """Move an entry to the MRU position."""
        self._unlink(entry)
        self._link_front(entry)

    # -- mutation ------------------------------------------------------------
    def insert(self, key: Hashable, dirty: bool = False) -> LRUEntry:
        """Insert a new page at the MRU position.

        The caller must have made room first; inserting beyond capacity
        or inserting a duplicate is a logic error in the caller.
        """
        if key in self._map:
            raise KeyError(f"page {key!r} already cached")
        if len(self._map) >= self.capacity:
            raise OverflowError(
                f"cache full ({self.capacity}); evict before inserting"
            )
        entry = LRUEntry(key)
        entry.dirty = dirty
        self._map[key] = entry
        self._link_front(entry)
        return entry

    def remove(self, key: Hashable) -> LRUEntry:
        """Remove and return the entry for ``key``."""
        entry = self._map.pop(key)
        self._unlink(entry)
        return entry

    def victim(
        self,
        predicate: Optional[Callable[[LRUEntry], bool]] = None,
    ) -> Optional[LRUEntry]:
        """The least recently used entry satisfying ``predicate``.

        With no predicate this is plain LRU.  The entry is *not*
        removed; callers decide what to do with it (write back, migrate,
        then :meth:`remove`).  Returns None when nothing qualifies.
        """
        entry = self._tail._prev
        while entry is not self._head:
            if predicate is None or predicate(entry):
                return entry
            entry = entry._prev
        return None

    # -- iteration ------------------------------------------------------------
    def items_mru_to_lru(self) -> Iterator[LRUEntry]:
        entry = self._head._next
        while entry is not self._tail:
            nxt = entry._next
            yield entry
            entry = nxt

    def items_lru_to_mru(self) -> Iterator[LRUEntry]:
        entry = self._tail._prev
        while entry is not self._head:
            prv = entry._prev
            yield entry
            entry = prv

    def keys(self) -> list:
        return list(self._map.keys())

    def clear(self) -> None:
        # Unlink the dropped entries so they die by reference counting.
        for entry in self._map.values():
            entry._prev = entry._next = None
        self._map.clear()
        self._head._next = self._tail
        self._tail._prev = self._head
