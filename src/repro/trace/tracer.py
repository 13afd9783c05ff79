"""Span recording for the observability layer.

A *span* is one timed interval of a transaction's life —
``(name, tx_id, node, t0, t1, attrs)`` in simulation seconds.  The
instrumented components (TM lifecycle, lock manager, buffer manager,
2PC state machines, restart/media replay) each hold a ``tracer``
attribute that is ``None`` unless the run enabled tracing, so the
disabled path costs one attribute test per *transaction* (never per
event) and the kernel in ``sim/core.py`` is untouched.

Span names come in two layers:

* **phase spans** (:data:`PHASE_SPANS`) — contiguous, per-transaction,
  mutually non-overlapping segments emitted by the TM state machines.
  For a committed transaction they tile the whole arrival-to-commit
  interval, so summing them reproduces the measured response time
  exactly (the invariant the attribution table and the span-accounting
  property test rely on).
* **detail spans** — nested inside phases (device reads, log forces,
  2PC piece work, restart replay).  They carry the *why* (which log
  placement, which device level) and may overlap phase spans freely.

Sampling draws from a dedicated ``trace-sample`` substream of the
run's :class:`~repro.sim.rng.RandomStreams`, so tracing N-th
transactions never perturbs the variates any simulation component
sees — results stay bit-identical with tracing off, sampled, or full.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["DETAIL_SPANS", "PHASE_SPANS", "ROOT_SPAN", "Span", "Tracer"]

#: One recorded span: (name, tx_id, node, t0, t1, attrs).
Span = Tuple[str, Optional[int], int, float, float, object]

#: The per-transaction root span (arrival to commit).
ROOT_SPAN = "tx"

#: Contiguous per-transaction segments; for a committed transaction
#: they are non-overlapping and sum to its response time.
PHASE_SPANS = frozenset({
    "queue",          # input-queue (and offline-gate) wait before admission
    "cpu.bot",        # begin-of-transaction CPU burst (wait + service)
    "lock",           # lock wait (emitted by the lock manager's wait path)
    "lock.remote",    # data sharing: lock request round trip to node 0
    "cpu.ref",        # per-reference CPU burst
    "fix",            # buffer-miss page fix (redo gate + fetch)
    "cpu.eot",        # end-of-transaction CPU burst
    "commit",         # commit phase 1 (log write / force, FORCE write-back)
    "backoff",        # randomized restart backoff after a deadlock abort
    "2pc.work",       # coordinator: farm out remote pieces, await work
    "2pc.prepare",    # coordinator: PREPARE round trip, votes collected
    "2pc.decision",   # coordinator: decision record forced via home log
    "2pc.notify",     # coordinator: decision messages to participants
    "gem.propagate",  # data sharing: committed pages written to GEM
    "invalidate",     # data sharing: invalidation broadcast at commit
})

#: Nested diagnostic spans (device/log/2PC-piece/recovery detail).
DETAIL_SPANS = frozenset({
    "io.read",        # one database-page fetch, attrs = storage level
    "redo.wait",      # online-redo gate wait inside a page fix
    "log.force",      # one log write/force, attrs = io kind (placement)
    "piece.work",     # participant: remote piece execution
    "piece.prepare",  # participant: prepare record forced
    "piece.indoubt",  # participant: vote-to-decision in-doubt window
    "restart.scan",   # crash restart: log scan
    "restart.redo",   # crash restart: redo pass
    "media.restore",  # media recovery: archive restore + log redo
})


class Tracer:
    """Bounded, sampled span sink shared by one system's components.

    All per-node views created with :meth:`for_node` append into the
    same buffer, so a cluster run yields one chronologically grouped
    span stream with per-node ``node`` tags.
    """

    __slots__ = ("env", "node", "sample", "max_spans", "spans",
                 "_shared", "_rng")

    def __init__(self, env, streams=None, sample: int = 1,
                 max_spans: int = 250_000, node: int = 0):
        self.env = env
        self.node = node
        self.sample = max(1, int(sample))
        self.max_spans = max_spans
        self.spans: List[Span] = []
        #: Shared mutable state (aliased by every node view): spans
        #: dropped after the buffer filled, and the warm-up boundary.
        self._shared = {"dropped": 0, "measure_start": 0.0}
        self._rng = (streams.stream("trace-sample")
                     if streams is not None and self.sample > 1 else None)

    def for_node(self, node_id: int) -> "Tracer":
        """A view writing into the same buffer with a different node tag."""
        view = Tracer.__new__(Tracer)
        view.env = self.env
        view.node = node_id
        view.sample = self.sample
        view.max_spans = self.max_spans
        view.spans = self.spans
        view._shared = self._shared
        view._rng = self._rng
        return view

    @property
    def dropped(self) -> int:
        """Spans discarded after the buffer filled (bounded memory)."""
        return self._shared["dropped"]

    @property
    def measure_start(self) -> float:
        """Warm-up boundary: attribution only trusts root spans that
        start at or after this instant (their children are complete)."""
        return self._shared["measure_start"]

    # -- sampling ---------------------------------------------------------
    def admit(self, tx) -> bool:
        """Sampling decision for a new transaction (sets ``tx.traced``).

        ``sample == 1`` traces everything without consuming any random
        bits; larger N traces each transaction with probability 1/N
        from the dedicated ``trace-sample`` substream.
        """
        if self.sample == 1:
            tx.traced = True
            return True
        traced = self._rng.random() * self.sample < 1.0
        tx.traced = traced
        return traced

    # -- recording --------------------------------------------------------
    def span(self, name: str, tx_id: Optional[int], t0: float, t1: float,
             attrs=None) -> None:
        """Record one completed span (no-op once the buffer is full)."""
        if len(self.spans) < self.max_spans:
            self.spans.append((name, tx_id, self.node, t0, t1, attrs))
        else:
            self._shared["dropped"] += 1

    def clear(self) -> None:
        """Drop everything recorded so far and mark the warm-up
        boundary, so the spans describe the measured window only."""
        self.spans.clear()
        self._shared["dropped"] = 0
        self._shared["measure_start"] = self.env.now
