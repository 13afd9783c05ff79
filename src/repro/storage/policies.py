"""Replacement policies behind a common interface (§3.2, §3.3).

The paper's every caching level is LRU-managed; this module extracts the
*interface* those levels actually rely on — lookup with/without recency
update, explicit insert/remove, and predicate-guarded victim selection —
into :class:`ReplacementPolicy`, so the buffer manager, the NVEM cache
and the disk-cache policies can run under any registered policy:

* ``"lru"`` — the reference implementation
  (:class:`~repro.storage.lru.LRUCache`, unchanged semantics);
* ``"clock"`` — second-chance CLOCK: a reference bit per page and a
  sweeping hand, the classic low-overhead LRU approximation;
* ``"2q"`` — Johnson & Shasha's 2Q: a FIFO admission queue (A1in), a
  ghost queue of recently evicted keys (A1out) and a main LRU queue
  (Am); pages are promoted to Am only on re-reference after eviction,
  which keeps sequential scans from flushing the hot set.

All policies share the contract of the LRU mechanism: they never evict
on their own — callers pick victims explicitly (``victim(predicate)``)
because every caching level has its own replacement constraints
(unfixed-only frames, unmodified-only pages, write-backs, migration).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Hashable, Iterator, Optional

from repro.storage.lru import LRUCache
from repro.storage.registry import register_policy

__all__ = [
    "CacheEntry",
    "ClockPolicy",
    "ReplacementPolicy",
    "TwoQPolicy",
]


class CacheEntry:
    """One cached page with the bookkeeping every caller relies on."""

    __slots__ = ("key", "dirty", "fix_count", "pending_write")

    def __init__(self, key: Hashable, dirty: bool = False):
        self.key = key
        self.dirty = dirty
        self.fix_count = 0
        #: Event for an in-flight asynchronous disk write, if any.
        self.pending_write = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.dirty:
            flags.append("dirty")
        if self.fix_count:
            flags.append(f"fixed={self.fix_count}")
        return f"<{type(self).__name__} {self.key!r} {' '.join(flags)}>"


class ReplacementPolicy(ABC):
    """Contract shared by all page-replacement structures.

    Entries expose ``key``, ``dirty``, ``fix_count`` and
    ``pending_write``; the structure never evicts on its own.
    """

    capacity: int

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, key: Hashable) -> bool: ...

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    @abstractmethod
    def peek(self, key: Hashable):
        """Look up without touching recency state."""

    @abstractmethod
    def get(self, key: Hashable):
        """Look up and record a reference (policy-specific)."""

    @abstractmethod
    def touch(self, entry) -> None:
        """Record a reference for an already-held entry."""

    @abstractmethod
    def insert(self, key: Hashable, dirty: bool = False):
        """Insert a new page; the caller must have made room first."""

    @abstractmethod
    def remove(self, key: Hashable):
        """Remove and return the entry for ``key``."""

    @abstractmethod
    def victim(self, predicate: Optional[Callable] = None):
        """The policy's preferred eviction candidate satisfying
        ``predicate`` (not removed), or None when nothing qualifies."""

    @abstractmethod
    def entries(self) -> Iterator:
        """All entries, preferred-to-keep first where meaningful."""

    def keys(self) -> list:
        return [e.key for e in self.entries()]

    @abstractmethod
    def clear(self) -> None: ...


# The LRU mechanism predates the abstraction and already satisfies it
# (entries() is items_mru_to_lru, added below to avoid a rename churn).
ReplacementPolicy.register(LRUCache)
if not hasattr(LRUCache, "entries"):
    LRUCache.entries = LRUCache.items_mru_to_lru


class _ClockEntry(CacheEntry):
    __slots__ = ("referenced", "_prev", "_next")

    def __init__(self, key: Hashable, dirty: bool = False):
        super().__init__(key, dirty)
        self.referenced = True
        self._prev: Optional["_ClockEntry"] = None
        self._next: Optional["_ClockEntry"] = None


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK over an intrusive circular ring.

    Insert, remove and hand advancement are all O(1) — the same cost
    class as the linked-list LRU this policy substitutes for in the
    buffer manager's hottest path.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._map: dict = {}
        self._hand: Optional[_ClockEntry] = None

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._map

    def peek(self, key: Hashable) -> Optional[_ClockEntry]:
        return self._map.get(key)

    def get(self, key: Hashable) -> Optional[_ClockEntry]:
        entry = self._map.get(key)
        if entry is not None:
            entry.referenced = True
        return entry

    def touch(self, entry: _ClockEntry) -> None:
        entry.referenced = True

    def insert(self, key: Hashable, dirty: bool = False) -> _ClockEntry:
        if key in self._map:
            raise KeyError(f"page {key!r} already cached")
        if len(self._map) >= self.capacity:
            raise OverflowError(
                f"cache full ({self.capacity}); evict before inserting"
            )
        entry = _ClockEntry(key, dirty)
        self._map[key] = entry
        hand = self._hand
        if hand is None:
            entry._prev = entry._next = entry
            self._hand = entry
        else:
            # New pages enter just behind the hand: a full sweep passes
            # them last, giving them the longest grace period.
            entry._prev = hand._prev
            entry._next = hand
            hand._prev._next = entry
            hand._prev = entry
        return entry

    def remove(self, key: Hashable) -> _ClockEntry:
        entry = self._map.pop(key)
        if entry._next is entry:
            self._hand = None
        else:
            if self._hand is entry:
                self._hand = entry._next
            entry._prev._next = entry._next
            entry._next._prev = entry._prev
        entry._prev = entry._next = None
        return entry

    def victim(self, predicate: Optional[Callable] = None):
        entry = self._hand
        if entry is None:
            return None
        # Two full sweeps suffice: the first clears every reference bit,
        # the second must find any qualifying entry.
        for _ in range(2 * len(self._map)):
            if entry.referenced:
                entry.referenced = False
                entry = self._hand = entry._next
            elif predicate is None or predicate(entry):
                self._hand = entry
                return entry
            else:
                entry = self._hand = entry._next
        return None

    def entries(self) -> Iterator[_ClockEntry]:
        result = []
        entry = self._hand
        for _ in range(len(self._map)):
            result.append(entry)
            entry = entry._next
        return iter(result)

    def clear(self) -> None:
        # Unlink the ring so the dropped entries die by reference counting.
        for entry in self._map.values():
            entry._prev = entry._next = None
        self._map.clear()
        self._hand = None


class TwoQPolicy(ReplacementPolicy):
    """Full 2Q: A1in FIFO + A1out ghost keys + Am LRU [JS94].

    ``kin`` bounds the admission queue (default capacity/4); the ghost
    queue remembers up to capacity/2 recently evicted keys.  A page is
    admitted to the hot queue Am only when it is re-inserted while its
    key is still in the ghost queue.
    """

    def __init__(self, capacity: int, kin: Optional[int] = None,
                 kout: Optional[int] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.kin = max(1, capacity // 4) if kin is None else max(1, kin)
        self.kout = max(1, capacity // 2) if kout is None else max(1, kout)
        self._a1in: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._a1out: "OrderedDict[Hashable, None]" = OrderedDict()
        self._am: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._a1in or key in self._am

    def peek(self, key: Hashable) -> Optional[CacheEntry]:
        entry = self._a1in.get(key)
        if entry is None:
            entry = self._am.get(key)
        return entry

    def get(self, key: Hashable) -> Optional[CacheEntry]:
        entry = self._am.get(key)
        if entry is not None:
            self._am.move_to_end(key)
            return entry
        # A hit in A1in does not promote: 2Q promotes only pages that
        # prove their worth by surviving eviction (via A1out).
        return self._a1in.get(key)

    def touch(self, entry: CacheEntry) -> None:
        if entry.key in self._am:
            self._am.move_to_end(entry.key)

    def insert(self, key: Hashable, dirty: bool = False) -> CacheEntry:
        if key in self:
            raise KeyError(f"page {key!r} already cached")
        if len(self) >= self.capacity:
            raise OverflowError(
                f"cache full ({self.capacity}); evict before inserting"
            )
        entry = CacheEntry(key, dirty)
        if key in self._a1out:
            del self._a1out[key]
            self._am[key] = entry
        else:
            self._a1in[key] = entry
        return entry

    def remove(self, key: Hashable) -> CacheEntry:
        entry = self._a1in.pop(key, None)
        if entry is not None:
            self._remember_ghost(key)
            return entry
        entry = self._am.pop(key)
        return entry

    def _remember_ghost(self, key: Hashable) -> None:
        self._a1out[key] = None
        self._a1out.move_to_end(key)
        while len(self._a1out) > self.kout:
            self._a1out.popitem(last=False)

    def _scan(self, queue, predicate) -> Optional[CacheEntry]:
        for entry in queue.values():  # oldest first
            if predicate is None or predicate(entry):
                return entry
        return None

    def victim(self, predicate: Optional[Callable] = None):
        if len(self._a1in) > self.kin or not self._am:
            first, second = self._a1in, self._am
        else:
            first, second = self._am, self._a1in
        entry = self._scan(first, predicate)
        if entry is None:
            entry = self._scan(second, predicate)
        return entry

    def entries(self) -> Iterator[CacheEntry]:
        hot = list(reversed(self._am.values()))
        recent = list(reversed(self._a1in.values()))
        return iter(hot + recent)

    def clear(self) -> None:
        self._a1in.clear()
        self._a1out.clear()
        self._am.clear()


register_policy("lru", LRUCache)
register_policy("clock", ClockPolicy)
register_policy("2q", TwoQPolicy)
