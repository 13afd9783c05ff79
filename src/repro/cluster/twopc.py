"""Presumed-abort two-phase commit across cluster nodes.

The protocol follows the presumed-abort variant of [MLO86] as TP
monitors of the paper's era shipped it:

* The coordinator (the transaction's home node) farms each remote
  piece out to its participant node, where a *branch transaction*
  acquires locks and fixes pages through that node's own lock table,
  buffer and devices.
* At commit, the coordinator sends PREPARE; the participant **forces a
  prepare record** through its real log device, votes YES and is then
  *in doubt* — its locks stay held until a decision arrives.
* The coordinator **forces the commit decision record** through its
  own log device (this is the ordinary commit log write), mirrors the
  decision into the cluster's global extended memory, and notifies the
  participants; participant commit records are written outside the
  coordinator's critical path (presumed abort never forces them).
* No decision record ⇒ abort.  A participant that asks about an
  unknown transaction is told to abort — which is exactly how the GEM
  failover resolves the in-doubt pieces of a crashed coordinator
  (:mod:`repro.cluster.faults`).

Because both forced records go through each node's **device
registry**, NVEM-vs-disk log placement changes commit latency exactly
as the paper's §4 shows for the central case — paid once per phase.

Deadlock safety across nodes: per-node detectors cannot see
distributed cycles, so the coordinator completes **all remote work
before acquiring any home lock**.  Every transaction then locks its
single remote account page before any home page; with the
Debit-Credit reference strings (one ACCOUNT page, then one
BRANCH/TELLER page) all lock acquisitions follow one global
ACCOUNT-before-BRANCH/TELLER order, which no two transactions can
invert — no cross-node deadlock can form.
"""

from __future__ import annotations

from typing import Generator, List, Sequence, Tuple

from repro.core.tm import TransactionManager
from repro.core.transaction import ObjectRef, Transaction
from repro.sim import Event

__all__ = ["ClusterBlock", "ClusterTransaction",
           "ClusterTransactionManager", "RemotePiece"]


class ClusterBlock:
    """The ``Results.cluster`` block of a shared-nothing cluster: its
    size and $ cost (the price-performance inputs) plus the per-phase
    2PC counters."""

    def __init__(self, nodes: int, cost: float):
        self.nodes = nodes
        self.cost = cost
        self.reset()

    def reset(self) -> None:
        self.local_commits = 0
        self.distributed_commits = 0
        self.commit_phase_total = 0.0
        self.prepared_pieces = 0
        self.in_doubt_total = 0.0
        self.failover_resolved = 0

    def record_commit(self, distributed: bool, commit_phase: float) -> None:
        """One commit; ``commit_phase`` is its EOT-to-lock-release time."""
        if distributed:
            self.distributed_commits += 1
        else:
            self.local_commits += 1
        self.commit_phase_total += commit_phase

    def finalize(self) -> dict:
        return {
            "nodes": float(self.nodes),
            "cost_dollars": self.cost,
            "local_commits": float(self.local_commits),
            "distributed_commits": float(self.distributed_commits),
            "commit_phase_total": self.commit_phase_total,
            "prepared_pieces": float(self.prepared_pieces),
            "in_doubt_total": self.in_doubt_total,
            "failover_resolved": float(self.failover_resolved),
        }


class ClusterTransaction(Transaction):
    """A transaction with a home node and optional remote pieces."""

    __slots__ = ("home_node", "remote_work", "pieces")

    def __init__(self, tx_id: int, tx_type: str, refs: List[ObjectRef],
                 home_node: int,
                 remote_work: Sequence[Tuple[int, Tuple[ObjectRef, ...]]]
                 = ()):
        super().__init__(tx_id, tx_type, refs)
        self.home_node = home_node
        #: ``(participant_node, refs)`` per remote piece.
        self.remote_work = tuple(remote_work)
        #: The current attempt's :class:`RemotePiece` per remote piece.
        self.pieces: Sequence["RemotePiece"] = ()

    @property
    def is_distributed(self) -> bool:
        return bool(self.remote_work)


class RemotePiece:
    """One remote branch of a distributed transaction.

    The four events are the 2PC wire protocol between coordinator and
    participant; each is signalled at most once (all senders guard on
    ``triggered`` — abort paths and GEM failover may race with the
    normal protocol)."""

    __slots__ = ("node_id", "refs", "branch_tx", "work_done",
                 "prepare_req", "vote", "decision", "in_doubt_from")

    def __init__(self, env, node_id: int, refs: Tuple[ObjectRef, ...],
                 branch_tx: Transaction):
        self.node_id = node_id
        self.refs = refs
        self.branch_tx = branch_tx
        #: Participant finished its work: value "ok" or "failed".
        self.work_done = Event(env)
        #: Coordinator's PREPARE request.
        self.prepare_req = Event(env)
        #: Participant's vote: "yes" (prepare record forced) or "no".
        self.vote = Event(env)
        #: Final decision: "commit" or "abort".
        self.decision = Event(env)
        #: Instant the participant voted (start of the in-doubt window).
        self.in_doubt_from = 0.0


class ClusterTransactionManager(TransactionManager):
    """Per-node TM running coordinator and participant state machines."""

    def __init__(self, node, cluster):
        super().__init__(cluster.env, node.config, node.cpu, node.locks,
                         node.bm, cluster.metrics, streams=cluster.streams)
        self.node = node
        self.cluster = cluster

    # -- participant side ------------------------------------------------
    def spawn_piece(self, tx: ClusterTransaction,
                    piece: RemotePiece) -> None:
        """Start the participant process for one remote piece.

        Registered in this node's lifecycle table (keyed by the unique
        branch id) so a crash of the *participant* node interrupts it
        like any local transaction."""
        key = ("piece", piece.branch_tx.tx_id)
        proc = self.env.process(self._piece_lifecycle(key, tx, piece))
        self._lifecycles[key] = proc

    def _piece_lifecycle(self, key, tx: ClusterTransaction,
                         piece: RemotePiece) -> Generator:
        try:
            yield from self._piece_body(tx, piece)
        finally:
            self._lifecycles.pop(key, None)

    def _piece_body(self, tx: ClusterTransaction,
                    piece: RemotePiece) -> Generator:
        from repro.sim import Interrupt

        env = self.env
        btx = piece.branch_tx
        # Participant spans are diagnostic details keyed by the branch
        # id (piece.work / piece.prepare / piece.indoubt).  The branch's
        # references emit no phase spans: that time already lies inside
        # the coordinator's "2pc.work" span.
        traced = btx.traced and self.tracer is not None
        try:
            gate = self._offline_gate
            if gate is not None:
                # The participant node is down: the piece waits out the
                # restart (the coordinator blocks on work_done).
                yield gate
            btx.start_time = env.now
            work_from = env.now
            if not (yield from self._run_refs(btx, None)):
                self.locks.release_all(btx)
                if not piece.work_done.triggered:
                    piece.work_done.succeed("failed")
                return
            if not piece.work_done.triggered:
                piece.work_done.succeed("ok")
            if traced and env.now > work_from:
                self.tracer.span("piece.work", btx.tx_id, work_from,
                                 env.now)
            # Wait for PREPARE — or an abort decision (coordinator
            # deadlock, a sibling piece's NO vote, or GEM failover
            # after a coordinator crash: presumed abort).
            yield env.any_of([piece.prepare_req, piece.decision])
            if piece.decision.triggered:
                self.locks.release_all(btx)
                return
            # Phase 1: force the prepare record through this node's
            # log device, then vote YES.  From here until the decision
            # arrives the piece is in doubt: locks stay held.
            prepare_from = env.now
            yield from self.bm.force_log_record(btx)
            if traced:
                self.tracer.span("piece.prepare", btx.tx_id,
                                 prepare_from, env.now)
            piece.in_doubt_from = env.now
            home = self.cluster.nodes[tx.home_node]
            yield from self.cluster.bus.one_way(
                btx, self.cpu, home.cpu, kind="2pc_vote")
            if not piece.vote.triggered:
                piece.vote.succeed("yes")
            decision = yield piece.decision
            twopc = self.cluster.twopc
            twopc.prepared_pieces += 1
            twopc.in_doubt_total += env.now - piece.in_doubt_from
            if traced and env.now > piece.in_doubt_from:
                self.tracer.span("piece.indoubt", btx.tx_id,
                                 piece.in_doubt_from, env.now)
            if decision == "commit":
                # Participant commit record + (FORCE) page writes —
                # off the coordinator's response-time path.
                yield from self.bm.commit(btx)
            self.locks.release_all(btx)
        except Interrupt:
            # Participant node crash: volatile state is gone; redo is
            # the restart replayer's job.  Tell the coordinator so it
            # does not block on a dead piece.
            self.locks.withdraw(btx)
            self.locks.release_all(btx)
            if not piece.work_done.triggered:
                piece.work_done.succeed("failed")
            if not piece.vote.triggered:
                piece.vote.succeed("no")

    # -- coordinator side: the commit-variant hooks of the base TM -----
    def _farm_out(self, tx: Transaction, tracer) -> Generator:
        """Farm the remote pieces out and wait for all of them: remote
        work completes before any home lock is taken (the cross-node
        deadlock-avoidance order, see module docstring)."""
        remote_work = getattr(tx, "remote_work", ())
        if not remote_work:
            return True
        cluster = self.cluster
        env = self.env
        work_from = env.now
        pieces = tx.pieces = []
        for node_id, refs in remote_work:
            branch = Transaction(cluster.next_branch_id(), tx.tx_type,
                                 list(refs))
            branch.traced = tx.traced
            pieces.append(RemotePiece(env, node_id, refs, branch))
        # Registered before the first message: a coordinator crash at
        # any later instant leaves the pieces for the GEM failover to
        # resolve.
        cluster.register_pieces(tx, pieces)
        for piece in pieces:
            remote = cluster.nodes[piece.node_id]
            yield from cluster.bus.one_way(
                tx, self.cpu, remote.cpu, kind="2pc_work")
            remote.tm.spawn_piece(tx, piece)
        ok = True
        for piece in pieces:
            status = yield piece.work_done
            if status != "ok":
                ok = False
        if tracer is not None and env.now > work_from:
            tracer.span("2pc.work", tx.tx_id, work_from, env.now)
        return ok

    def _commit(self, tx: Transaction, tracer) -> Generator:
        """Presumed-abort 2PC over the pieces ``_farm_out`` started, or
        a plain 1PC commit for a local transaction; either way the
        commit phase is measured for the 1PC-vs-2PC ablation."""
        cluster = self.cluster
        env = self.env
        commit_from = env.now
        pieces = getattr(tx, "pieces", ())
        if not pieces:
            yield from super()._commit(tx, tracer)
            cluster.twopc.record_commit(False, env.now - commit_from)
            return True
        # Phase 1: PREPARE every participant, collect votes.
        for piece in pieces:
            remote = cluster.nodes[piece.node_id]
            yield from cluster.bus.one_way(
                tx, self.cpu, remote.cpu, kind="2pc_prepare")
            if not piece.prepare_req.triggered:
                piece.prepare_req.succeed()
        votes = []
        for piece in pieces:
            votes.append((yield piece.vote))
        if tracer is not None and env.now > commit_from:
            tracer.span("2pc.prepare", tx.tx_id, commit_from, env.now)
        if not all(vote == "yes" for vote in votes):
            return False
        # Phase 2: force the decision record through the home log
        # device, mirror it into GEM, then notify the participants.
        t0 = env.now
        yield from self.bm.commit(tx)
        if tracer is not None and env.now > t0:
            tracer.span("2pc.decision", tx.tx_id, t0, env.now)
        cluster.record_decision(tx.tx_id)
        t0 = env.now
        for piece in pieces:
            remote = cluster.nodes[piece.node_id]
            yield from cluster.bus.one_way(
                tx, self.cpu, remote.cpu, kind="2pc_commit")
            if not piece.decision.triggered:
                piece.decision.succeed("commit")
        if tracer is not None and env.now > t0:
            tracer.span("2pc.notify", tx.tx_id, t0, env.now)
        cluster.clear_pieces(tx)
        cluster.twopc.record_commit(True, env.now - commit_from)
        return True

    def _abort(self, tx: Transaction) -> None:
        """Presumed abort needs no abort record: just tell the live
        participants before the home locks go."""
        for piece in getattr(tx, "pieces", ()):
            if not piece.decision.triggered:
                piece.decision.succeed("abort")
        self.cluster.clear_pieces(tx)
