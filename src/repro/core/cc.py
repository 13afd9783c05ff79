"""Concurrency control: strict two-phase locking with deadlock detection.

The paper (§3.2) uses strict 2PL with long read and write locks, a
deadlock check on every denied lock request, and aborts "the transaction
causing the deadlock" (the requester) to break the cycle.  Locking
granularity — none, page-level or object-level — is chosen per
partition; the transaction manager translates object references into
lock resource ids accordingly.

Implementation notes
--------------------
* Each transaction is a single process and therefore waits for at most
  one lock at a time; the waits-for graph is computed on the fly from
  the lock table during the cycle check.
* Lock conversions (S held, X requested) are granted immediately for a
  sole holder and otherwise wait at the *front* of the queue (standard
  conversion priority).
* As an extension beyond the paper, alternative victim policies are
  supported ("requester" — the paper's policy — and "youngest", which
  aborts the most recently started transaction in the cycle).  Waiting
  victims are woken with a DEADLOCK outcome.
"""

from __future__ import annotations

from collections import deque
from enum import Enum, IntEnum
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.core.metrics import MetricsCollector
from repro.core.transaction import Transaction
from repro.sim import Environment
from repro.sim.core import Event

__all__ = ["LockManager", "LockMode", "LockOutcome"]


class LockMode(IntEnum):
    """Lock modes; higher value = stronger."""

    S = 0
    X = 1


class LockOutcome(Enum):
    """Result of a lock request."""

    GRANTED = "granted"
    DEADLOCK = "deadlock"


class _Waiter:
    __slots__ = ("tx", "mode", "event", "is_conversion")

    def __init__(self, tx: Transaction, mode: LockMode, event: Event,
                 is_conversion: bool):
        self.tx = tx
        self.mode = mode
        self.event = event
        self.is_conversion = is_conversion


class _Lock:
    __slots__ = ("holders", "queue")

    def __init__(self):
        #: tx_id -> LockMode currently held.
        self.holders: Dict[int, LockMode] = {}
        self.queue: Deque[_Waiter] = deque()

    def compatible(self, mode: LockMode, exclude_tx: Optional[int] = None) -> bool:
        for tx_id, held in self.holders.items():
            if tx_id == exclude_tx:
                continue
            if mode is LockMode.X or held is LockMode.X:
                return False
        return True


class LockManager:
    """Lock table + waits-for deadlock detection."""

    def __init__(self, env: Environment, metrics: MetricsCollector,
                 victim_policy: str = "requester"):
        if victim_policy not in ("requester", "youngest"):
            raise ValueError(f"unknown victim policy {victim_policy!r}")
        self.env = env
        self.metrics = metrics
        self.victim_policy = victim_policy
        self._locks: Dict = {}
        #: Span sink when tracing is on (``None`` otherwise); only the
        #: wait path below touches it, never an immediate grant.
        self.tracer = None
        #: tx_id -> (_Waiter, resource_id) for every blocked transaction.
        self._waiting: Dict[int, Tuple[_Waiter, object]] = {}
        #: tx_id -> Transaction for cycle-victim selection.
        self._tx_by_id: Dict[int, Transaction] = {}

    # -- public API ------------------------------------------------------
    def try_acquire(self, tx: Transaction, resource_id,
                    mode: LockMode) -> bool:
        """Grant the lock now if no wait is needed; a plain call.

        The per-reference hot path: callers try this first and enter
        the :meth:`acquire` generator only when it returns False, the
        way :meth:`~repro.core.bm.BufferManager.fix_page_fast` precedes
        ``fix_page_miss``.  A grant is accounted exactly as an
        immediate grant inside :meth:`acquire`; a refusal changes no
        state and records nothing.
        """
        locks = self._locks
        lock = locks.get(resource_id)
        if lock is None:
            lock = locks[resource_id] = _Lock()
        held = tx.held_locks.get(resource_id)
        if (held is not None and held >= mode) or \
                self._grant(tx, lock, resource_id, mode, held is not None):
            self.metrics.record_lock_request(True)
            return True
        return False

    def acquire(self, tx: Transaction, resource_id, mode: LockMode) -> Generator:
        """Request a lock; yields while waiting.

        Returns :data:`LockOutcome.GRANTED` or
        :data:`LockOutcome.DEADLOCK` (the transaction must then abort —
        it is the deadlock victim).
        """
        if self.try_acquire(tx, resource_id, mode):
            return LockOutcome.GRANTED
        # The request must wait (the lock entry exists: try_acquire
        # created it): check for a deadlock first.
        lock = self._locks[resource_id]
        is_conversion = resource_id in tx.held_locks  # held S, wants X
        self.metrics.record_lock_request(False)
        while True:
            victim = self._select_deadlock_victim(tx, lock, mode,
                                                  is_conversion)
            if victim is None:
                break
            self.metrics.record_deadlock()
            if victim is tx:
                return LockOutcome.DEADLOCK
            # Aborting another victim may have made this very request
            # grantable (the victim might have been queued ahead of us
            # or held the lock) — re-evaluate.
            self._abort_waiting_victim(victim)
            if self._grant(tx, lock, resource_id, mode, is_conversion):
                self.metrics.record_lock_request(False)
                return LockOutcome.GRANTED

        waiter = _Waiter(tx, mode, Event(self.env), is_conversion)
        if is_conversion:
            lock.queue.appendleft(waiter)
        else:
            lock.queue.append(waiter)
        self._waiting[tx.tx_id] = (waiter, resource_id)
        self._tx_by_id[tx.tx_id] = tx
        tx.waiting_for = resource_id

        wait_start = self.env.now
        outcome = yield waiter.event
        waited = self.env.now - wait_start
        tx.wait_lock += waited
        self.metrics.record_lock_wait(waited)
        tx.waiting_for = None
        if tx.traced and self.tracer is not None and waited > 0:
            self.tracer.span("lock", tx.tx_id, wait_start, self.env.now)
        return outcome

    @staticmethod
    def _grant(tx: Transaction, lock: _Lock, resource_id, mode: LockMode,
               is_conversion: bool) -> bool:
        """Make ``tx`` a holder if compatible; no accounting.

        A conversion (S held, X wanted) needs every *other* holder
        gone and jumps the queue; a fresh request needs an empty queue
        and a compatible holder set."""
        if is_conversion:
            if not lock.compatible(LockMode.X, exclude_tx=tx.tx_id):
                return False
            mode = LockMode.X
        elif lock.queue or not lock.compatible(mode):
            return False
        lock.holders[tx.tx_id] = mode
        tx.held_locks[resource_id] = mode
        return True

    def withdraw(self, tx: Transaction) -> None:
        """Remove ``tx``'s pending lock wait without waking it.

        Used when the waiting process itself is torn down (interrupted
        / externally aborted) rather than woken as a deadlock victim:
        the waiter entry must leave the queue immediately, or deadlock
        detection would chase a ghost edge and the queue slot would
        block compatible requests behind it.
        """
        entry = self._waiting.pop(tx.tx_id, None)
        if entry is None:
            return
        waiter, resource_id = entry
        lock = self._locks.get(resource_id)
        if lock is not None:
            try:
                lock.queue.remove(waiter)
            except ValueError:  # pragma: no cover - consistency guard
                pass
            self._grant_from_queue(resource_id, lock)
            if not lock.holders and not lock.queue:
                del self._locks[resource_id]
        tx.waiting_for = None

    def release_all(self, tx: Transaction) -> None:
        """Strict 2PL unlock: drop every lock and wake grantable waiters."""
        for resource_id in list(tx.held_locks.keys()):
            lock = self._locks.get(resource_id)
            if lock is None:
                continue
            lock.holders.pop(tx.tx_id, None)
            self._grant_from_queue(resource_id, lock)
            if not lock.holders and not lock.queue:
                del self._locks[resource_id]
        tx.held_locks.clear()
        self._tx_by_id.pop(tx.tx_id, None)

    # -- queue management ------------------------------------------------------
    def _grant_from_queue(self, resource_id, lock: _Lock) -> None:
        while lock.queue:
            head = lock.queue[0]
            tx = head.tx
            if head.is_conversion:
                if not lock.compatible(LockMode.X, exclude_tx=tx.tx_id):
                    return
            elif not lock.compatible(head.mode):
                return
            lock.queue.popleft()
            lock.holders[tx.tx_id] = max(
                head.mode, lock.holders.get(tx.tx_id, LockMode.S)
            )
            tx.held_locks[resource_id] = lock.holders[tx.tx_id]
            self._waiting.pop(tx.tx_id, None)
            head.event.succeed(LockOutcome.GRANTED)

    def _abort_waiting_victim(self, victim: Transaction) -> None:
        """Wake a blocked victim with a DEADLOCK outcome."""
        entry = self._waiting.pop(victim.tx_id, None)
        if entry is None:  # pragma: no cover - guarded by caller
            return
        waiter, resource_id = entry
        lock = self._locks.get(resource_id)
        if lock is not None:
            try:
                lock.queue.remove(waiter)
            except ValueError:  # pragma: no cover - consistency guard
                pass
            self._grant_from_queue(resource_id, lock)
        waiter.event.succeed(LockOutcome.DEADLOCK)

    # -- deadlock detection ------------------------------------------------------
    def _blockers_for(self, tx_id: int, lock: _Lock, mode: LockMode,
                      is_conversion: bool,
                      ahead_of: Optional[_Waiter]) -> Set[int]:
        """Transactions that must finish before this request is granted."""
        blockers: Set[int] = set()
        if is_conversion:
            blockers.update(
                holder for holder in lock.holders if holder != tx_id
            )
            return blockers
        for holder, held_mode in lock.holders.items():
            if holder == tx_id:
                continue
            if mode is LockMode.X or held_mode is LockMode.X:
                blockers.add(holder)
        for waiter in lock.queue:
            if ahead_of is not None and waiter is ahead_of:
                break
            if waiter.tx.tx_id == tx_id:
                continue
            if mode is LockMode.X or waiter.mode is LockMode.X:
                blockers.add(waiter.tx.tx_id)
        return blockers

    def _cycle_with(self, tx: Transaction, lock: _Lock, mode: LockMode,
                    is_conversion: bool) -> Optional[List[int]]:
        """If blocking ``tx`` on ``lock`` closes a cycle, return it."""
        start = tx.tx_id
        initial = self._blockers_for(start, lock, mode, is_conversion, None)
        # Depth-first search through the waits-for graph.
        stack: List[Tuple[int, List[int]]] = [
            (blocker, [start, blocker]) for blocker in initial
        ]
        visited: Set[int] = set()
        while stack:
            current, path = stack.pop()
            if current == start:
                return path
            if current in visited:
                continue
            visited.add(current)
            entry = self._waiting.get(current)
            if entry is None:
                continue
            waiter, resource_id = entry
            blocked_lock = self._locks.get(resource_id)
            if blocked_lock is None:
                continue
            next_blockers = self._blockers_for(
                current, blocked_lock, waiter.mode, waiter.is_conversion,
                ahead_of=waiter,
            )
            for blocker in next_blockers:
                if blocker == start:
                    return path + [start]
                if blocker not in visited:
                    stack.append((blocker, path + [blocker]))
        return None

    def _select_deadlock_victim(self, tx: Transaction, lock: _Lock,
                                mode: LockMode,
                                is_conversion: bool) -> Optional[Transaction]:
        """Return the victim if waiting would deadlock, else None."""
        cycle = self._cycle_with(tx, lock, mode, is_conversion)
        if cycle is None:
            return None
        if self.victim_policy == "requester":
            return tx
        # "youngest": abort the transaction with the latest start time.
        candidates = [tx]
        for tx_id in cycle:
            other = self._tx_by_id.get(tx_id)
            if other is not None and other is not tx:
                candidates.append(other)
        return max(candidates, key=lambda t: (t.start_time, t.tx_id))

    # -- introspection ------------------------------------------------------
    def held_count(self) -> int:
        return sum(len(lock.holders) for lock in self._locks.values())

    def waiting_count(self) -> int:
        return len(self._waiting)
