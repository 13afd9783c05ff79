"""Per-node crash injection and GEM failover for the cluster.

A node crash follows the same sequence as the central case's
:class:`~repro.recovery.crash.CrashController` — gate shut, in-flight
work interrupted, volatile buffer discarded, restart replay through
the node's real devices — but scoped to one node while its siblings
keep processing.

What is new is the *distributed* consequence: a crashed coordinator
leaves prepared participants on other nodes **in doubt**, holding
their locks.  In Rahm's shared-nothing-with-GEM argument, the commit
decisions mirrored into global extended memory let a surviving node
resolve those pieces after failure detection instead of waiting out
the full restart: after ``gem_failover_delay`` the injector looks
every orphaned piece up in the GEM decision table — decision present
⇒ commit, absent ⇒ presumed abort — and releases the participants.
The in-doubt window (vote to decision) feeds the ``in_doubt_time``
column of the results.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.recovery.crash import RecoveryBlock, RestartStats

__all__ = ["ClusterFaultInjector"]


class ClusterFaultInjector:
    """Crashes nodes on the configured deterministic schedule."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        #: ``(node_id, RestartStats)`` per restart, most recent last.
        self.restarts: List[Tuple[int, RestartStats]] = []

    def start(self) -> None:
        """Wire per-node recovery and spawn the injector process.

        No-op without a crash schedule, so fault-free clusters pay
        neither DPT bookkeeping nor checkpoint traffic.
        """
        if not self.cluster.config.crash_schedule:
            return
        self.block = self.cluster.metrics.block("recovery", RecoveryBlock)
        for node in self.cluster.nodes:
            node.enable_recovery()
            node.start_recovery()
        self.env.process(self._run())

    # -- internals -------------------------------------------------------
    def _run(self) -> Generator:
        for node_id, instant in self.cluster.config.crash_schedule:
            delay = instant - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            node = self.cluster.nodes[node_id]
            if not node.tm.is_online:
                # This node is already down (its restart is still
                # replaying): the scheduled crash adds nothing.
                continue
            # Restarts run as their own processes so a second node can
            # crash while the first is still replaying — the metrics
            # charge the *union* of the overlapping down-intervals.
            self.env.process(self._crash_and_restart(node))

    def _crash_and_restart(self, node) -> Generator:
        cluster = self.cluster
        env = self.env
        crashed_at = env.now
        # 1. Gate shut; the rest of the cluster keeps running.
        cluster.metrics.outage.start()
        node.tm.take_offline()
        # 2. Volatile state lost: local transactions, remote pieces
        #    hosted here (their coordinators are told "failed"/"no"),
        #    and any checkpoint in progress.
        admitted = node.tm.active
        node.tm.interrupt_active("crash")
        if node.checkpointer is not None:
            node.checkpointer.on_crash()
        snapshot = node.tracker.on_crash(
            time=crashed_at,
            log_tail=node.storage.log_page_count,
            in_flight=admitted,
        )
        node.bm.crash_reset()
        # 3. GEM failover runs concurrently with the restart: the
        #    in-doubt pieces this node *coordinated* on other nodes are
        #    resolved from the mirrored decision table after failure
        #    detection — they do not wait for the full restart.
        env.process(self._failover(node.node_id))
        # Let the interrupt carriers deliver so victims unwind first.
        yield env.timeout(0.0)
        # 4. Restart replay through this node's devices.
        stats = yield from node.replayer.replay(snapshot)
        self.restarts.append((node.node_id, stats))
        self.block.record_crash(env.now - crashed_at, stats)
        # 5. Reopen for business.
        node.tm.go_online()

    def _failover(self, node_id: int) -> Generator:
        yield self.env.timeout(self.cluster.config.gem_failover_delay)
        self.cluster.resolve_in_doubt(node_id)
