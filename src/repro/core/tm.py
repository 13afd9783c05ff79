"""The transaction manager: admission, execution, commit, restart (§3.2).

The TM runs an *open* system: the SOURCE submits transactions at their
arrival rate; at most ``MPL`` are active concurrently, the rest wait in
a FIFO input queue.  Execution charges CPU at BOT, per object reference
and at EOT (exponentially distributed instruction counts), requests
locks from the lock manager (granularity per partition), fixes pages
through the buffer manager, and commits in two phases: (1) the buffer
manager writes log data and — under FORCE — forces modified pages;
(2) locks are released.

A transaction denied by deadlock detection aborts, releases its locks
and restarts immediately with the *same* reference string (access
invariance [FRT90]); its response time keeps accumulating across
restarts.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.bm import BufferManager
from repro.core.cc import LockManager, LockMode, LockOutcome
from repro.core.config import CCMode, PartitionConfig, SystemConfig
from repro.core.cpu import CPUPool
from repro.core.metrics import MetricsCollector
from repro.core.transaction import Transaction
from repro.sim import Environment, Event, Interrupt, Resource

__all__ = ["TransactionManager"]


class TransactionManager:
    """Controls the execution of transactions on one computing module."""

    def __init__(self, env: Environment, config: SystemConfig,
                 cpu: CPUPool, locks: LockManager, bm: BufferManager,
                 metrics: MetricsCollector, streams=None):
        self.env = env
        self.config = config
        self.cm = config.cm
        self.cpu = cpu
        self.locks = locks
        self.bm = bm
        self.metrics = metrics
        #: RNG for the randomized restart backoff (optional; without it
        #: aborted transactions restart immediately).
        self.streams = streams
        self.partitions: List[PartitionConfig] = list(config.partitions)
        #: Per-partition lock plan, indexed like ``partitions``: None
        #: when the partition takes no locks, else True for page-level
        #: locks ``(partition, 0, page_no)`` and False for object-level
        #: ones ``(partition, 1, object_no)``.
        self._lock_plan: List[Optional[bool]] = [
            None if part.cc_mode is CCMode.NONE
            else part.cc_mode is CCMode.PAGE
            for part in self.partitions
        ]
        #: Span sink (:class:`repro.trace.Tracer`) when the run enabled
        #: tracing; ``None`` keeps the hot path free of per-event
        #: branching (the traced twin of ``_execute`` is selected once
        #: per transaction).
        self.tracer = None
        self.mpl_slots = Resource(env, self.cm.mpl, name="mpl")
        self.active = 0
        self.submitted = 0
        self.completed = 0
        #: Live lifecycle processes by tx id — the crash controller
        #: interrupts all of them when the CM fails.
        self._lifecycles = {}
        #: Pending while the CM is down (crash/restart); admission and
        #: execution wait on it.  ``None`` means online.
        self._offline_gate: "Event | None" = None

    # -- admission ------------------------------------------------------
    def submit(self, tx: Transaction):
        """Accept a new transaction from the SOURCE (open system).

        Returns the lifecycle :class:`~repro.sim.Process` so callers
        implementing external abort policies can ``interrupt()`` it.
        """
        tx.arrival_time = self.env.now
        self.submitted += 1
        if self.tracer is not None:
            self.tracer.admit(tx)
        proc = self.env.process(self._lifecycle(tx))
        # env.process schedules lazily, so the lifecycle has not run
        # (and cannot have deregistered itself) yet.
        self._lifecycles[tx.tx_id] = proc
        return proc

    @property
    def input_queue_length(self) -> int:
        return self.mpl_slots.queue_length

    # -- crash support (see repro.recovery.crash) -----------------------
    @property
    def is_online(self) -> bool:
        """False while a crash/restart outage is in progress."""
        return self._offline_gate is None

    def take_offline(self) -> None:
        """Shut the admission gate: nothing starts until go_online()."""
        if self._offline_gate is None:
            self._offline_gate = Event(self.env)

    def go_online(self) -> None:
        """Reopen the gate; every transaction waiting on it proceeds."""
        gate = self._offline_gate
        if gate is not None:
            self._offline_gate = None
            gate.succeed()

    def interrupt_active(self, cause="crash") -> int:
        """Interrupt every live lifecycle; returns how many there were.

        Transactions submitted *after* this call (e.g. arrivals during
        the restart) are untouched — they wait at the offline gate.
        """
        victims = list(self._lifecycles.values())
        for proc in victims:
            proc.interrupt(cause)
        return len(victims)

    def _lifecycle(self, tx: Transaction) -> Generator:
        env = self.env
        try:
            gate = self._offline_gate
            if gate is not None:
                # The CM is down (crash/restart): wait out the outage.
                # The wait counts as input-queue time, so availability
                # shows up in the response-time composition.
                queued_at = env.now
                try:
                    yield gate
                except Interrupt:
                    self.metrics.record_abort(tx, restarted=False)
                    return
                tx.wait_input_queue += env.now - queued_at
                if tx.traced and self.tracer is not None \
                        and env.now > queued_at:
                    self.tracer.span("queue", tx.tx_id, queued_at, env.now)
            slot = self.mpl_slots.request()
            queued_at = env.now
            self.metrics.note_input_queue(self.mpl_slots.queue_length)
            try:
                yield slot
            except Interrupt:
                # Interrupted while queueing for admission.  The kernel
                # has already withdrawn the request
                # (Request._abandoned); the explicit cancel is an
                # idempotent belt-and-braces for callers that resume
                # this generator by hand.  Count the shed transaction as
                # an abort so submitted stays equal to completed +
                # aborted + in-flight.
                self.mpl_slots.cancel(slot)
                self.metrics.record_abort(tx, restarted=False)
                return
            tx.wait_input_queue += env.now - queued_at
            if tx.traced and self.tracer is not None \
                    and env.now > queued_at:
                self.tracer.span("queue", tx.tx_id, queued_at, env.now)
            self.active += 1
            try:
                yield from self._execute(tx)
                # Only a committed lifecycle counts as completed: the
                # distributed layer reports ``completed`` as the node's
                # committed count.
                self.completed += 1
            except Interrupt:
                # Externally aborted mid-flight (crash or an abort
                # policy beyond the paper's requester-aborts default):
                # back out any pending lock wait and release everything
                # held, then fall through to the finally block to free
                # the MPL slot.  The CPU / device / NVEM units the
                # transaction held are returned by the interrupt-safe
                # service events themselves.
                self.locks.withdraw(tx)
                self.locks.release_all(tx)
                self.metrics.record_abort(tx, restarted=False)
            finally:
                self.active -= 1
                self.mpl_slots.release(slot)
        finally:
            self._lifecycles.pop(tx.tx_id, None)

    # -- execution ------------------------------------------------------
    # Every execute loop (these two, the cluster coordinator and branch,
    # the data-sharing node) locks a reference the same way: the lock
    # id comes from ``_lock_plan``, ``LockManager.try_acquire`` grants
    # without a generator, and only a refused request enters the
    # ``acquire`` generator to wait (or to learn it is the deadlock
    # victim).
    def _execute(self, tx: Transaction) -> Generator:
        if tx.traced and self.tracer is not None:
            # One dispatch per transaction; the untraced loop below
            # stays exactly as it always was (zero-overhead invariant).
            yield from self._execute_traced(tx)
            return
        locks = self.locks
        try_lock = locks.try_acquire
        lock_plan = self._lock_plan
        X, S = LockMode.X, LockMode.S
        while True:
            tx.start_time = self.env.now
            burst = self.cpu.execute_event(tx, self.cm.instr_bot)
            if burst is not None:
                yield burst
            aborted = False
            for ref in tx.refs:
                pidx = ref.partition_index
                page_level = lock_plan[pidx]
                if page_level is not None:
                    lock_id = ((pidx, 0, ref.page_no) if page_level
                               else (pidx, 1, ref.object_no))
                    mode = X if ref.is_write else S
                    if not try_lock(tx, lock_id, mode):
                        outcome = yield from locks.acquire(tx, lock_id, mode)
                        if outcome is LockOutcome.DEADLOCK:
                            aborted = True
                            break
                burst = self.cpu.execute_event(tx, self.cm.instr_or)
                if burst is not None:
                    yield burst
                # Hot path: a buffer hit costs no simulated time, so it
                # is a plain call — only misses enter the generator.
                if self.bm.fix_page_fast(tx, ref) is None:
                    yield from self.bm.fix_page_miss(tx, ref)
            if not aborted:
                burst = self.cpu.execute_event(tx, self.cm.instr_eot)
                if burst is not None:
                    yield burst
                # Commit phase 1: log + (FORCE) forced page writes.
                yield from self.bm.commit(tx)
                # Commit phase 2: release locks.
                self.locks.release_all(tx)
                self.metrics.record_commit(
                    tx, self.env.now - tx.arrival_time
                )
                return
            # Deadlock abort: back out and retry with the same
            # reference string.  A small randomized backoff breaks the
            # livelock where two transactions keep re-colliding in
            # lockstep (the paper is silent on restart timing).
            self.locks.release_all(tx)
            self.metrics.record_abort(tx)
            tx.reset_for_restart()
            if self.streams is not None:
                backoff = self.streams.exponential(
                    "restart-backoff", 0.002 * min(tx.restarts, 5)
                )
                if backoff > 0:
                    yield self.env.timeout(backoff)

    def _execute_traced(self, tx: Transaction) -> Generator:
        """Span-emitting twin of :meth:`_execute` — keep in lockstep.

        Duplicated rather than branched-per-event so enabling tracing
        cannot slow the untraced path.  Every time-advancing segment is
        wrapped in exactly one phase span ("cpu.bot", "lock" — emitted
        by the lock manager —, "cpu.ref", "fix", "cpu.eot", "commit",
        "backoff"), and the input queue is covered by the lifecycle's
        "queue" span, so for a committed transaction the phase spans
        tile the whole arrival-to-commit interval: the attribution
        table sums to the measured response time by construction.
        Span names are the literals from
        :data:`repro.trace.tracer.PHASE_SPANS` (no import: core must
        not depend on the observability package).
        """
        tracer = self.tracer
        env = self.env
        locks = self.locks
        try_lock = locks.try_acquire
        lock_plan = self._lock_plan
        X, S = LockMode.X, LockMode.S
        while True:
            tx.start_time = env.now
            t0 = env.now
            burst = self.cpu.execute_event(tx, self.cm.instr_bot)
            if burst is not None:
                yield burst
                if env.now > t0:
                    tracer.span("cpu.bot", tx.tx_id, t0, env.now)
            aborted = False
            for ref in tx.refs:
                pidx = ref.partition_index
                page_level = lock_plan[pidx]
                if page_level is not None:
                    lock_id = ((pidx, 0, ref.page_no) if page_level
                               else (pidx, 1, ref.object_no))
                    mode = X if ref.is_write else S
                    if not try_lock(tx, lock_id, mode):
                        outcome = yield from locks.acquire(tx, lock_id, mode)
                        if outcome is LockOutcome.DEADLOCK:
                            aborted = True
                            break
                t0 = env.now
                burst = self.cpu.execute_event(tx, self.cm.instr_or)
                if burst is not None:
                    yield burst
                    if env.now > t0:
                        tracer.span("cpu.ref", tx.tx_id, t0, env.now)
                if self.bm.fix_page_fast(tx, ref) is None:
                    t0 = env.now
                    yield from self.bm.fix_page_miss(tx, ref)
                    if env.now > t0:
                        tracer.span("fix", tx.tx_id, t0, env.now)
            if not aborted:
                t0 = env.now
                burst = self.cpu.execute_event(tx, self.cm.instr_eot)
                if burst is not None:
                    yield burst
                    if env.now > t0:
                        tracer.span("cpu.eot", tx.tx_id, t0, env.now)
                t0 = env.now
                yield from self.bm.commit(tx)
                if env.now > t0:
                    tracer.span("commit", tx.tx_id, t0, env.now)
                self.locks.release_all(tx)
                self.metrics.record_commit(
                    tx, self.env.now - tx.arrival_time
                )
                tracer.span("tx", tx.tx_id, tx.arrival_time, env.now)
                return
            self.locks.release_all(tx)
            self.metrics.record_abort(tx)
            tx.reset_for_restart()
            if self.streams is not None:
                backoff = self.streams.exponential(
                    "restart-backoff", 0.002 * min(tx.restarts, 5)
                )
                if backoff > 0:
                    t0 = env.now
                    yield self.env.timeout(backoff)
                    tracer.span("backoff", tx.tx_id, t0, env.now)
