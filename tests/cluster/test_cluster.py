"""Tests for the sharded multi-node cluster (repro.cluster).

Covers the 2PC commit path end to end (local vs distributed commits,
NVEM-vs-disk log placement), node-template settings no cluster
honours, the abort path after a failed piece,
coordinator-crash failover through the GEM decision table,
determinism, and the fingerprint contract that keeps the
content-addressed point cache honest about cluster knobs.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    CouplingConfig,
    PartitionMap,
    cluster_config,
    node_scheme,
)
from repro.cluster.workload import ShardedDebitCreditWorkload
from repro.core.config import DeviceFault, MediaConfig, RecoveryConfig
from repro.core.fingerprint import fingerprint, point_fingerprint
from repro.experiments.defaults import debit_credit_config, disk_only


def build_cluster(num_nodes=2, log="nvem", rate=50.0, dist=0.15,
                  seed=1, **kwargs):
    config = cluster_config(scheme=node_scheme(log=log),
                            num_nodes=num_nodes, seed=seed, **kwargs)
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=rate, distributed_fraction=dist)
    return config, workload


def run_cluster(num_nodes=2, log="nvem", rate=50.0, dist=0.15,
                warmup=1.0, duration=4.0, seed=1, **kwargs):
    config, workload = build_cluster(num_nodes, log, rate, dist,
                                     seed=seed, **kwargs)
    system = config.build_system(workload, seed=seed)
    results = system.run(warmup=warmup, duration=duration)
    return results, system


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0).validate()
        with pytest.raises(ValueError):
            cluster_config(gem_failover_delay=-1.0)
        with pytest.raises(ValueError):
            cluster_config(checkpoint_interval=0.0)
        # Crash schedule: node id in range, instants increasing.
        with pytest.raises(ValueError):
            cluster_config(num_nodes=2, crash_schedule=((5, 1.0),))
        with pytest.raises(ValueError):
            cluster_config(num_nodes=2,
                           crash_schedule=((0, 2.0), (1, 1.0)))

    @pytest.mark.parametrize("data_sharing", [False, True])
    def test_node_recovery_settings_rejected(self, data_sharing):
        """Node crashes come from crash_schedule; the template's
        single-system crash model would be silently ignored."""
        config = self._coupled(data_sharing)
        config.node.recovery = RecoveryConfig(enabled=True,
                                              crash_times=(3.0,))
        with pytest.raises(ValueError, match="node.recovery.enabled"):
            config.validate()

    @pytest.mark.parametrize("data_sharing", [False, True])
    def test_node_media_settings_rejected(self, data_sharing):
        config = self._coupled(data_sharing)
        config.node.media = MediaConfig(
            enabled=True, faults=(DeviceFault(device="db0", time=3.0),))
        with pytest.raises(ValueError, match="node.media.enabled"):
            config.validate()

    @staticmethod
    def _coupled(data_sharing):
        if data_sharing:
            return ClusterConfig(node=debit_credit_config(disk_only()),
                                 data_sharing=True)
        return cluster_config(num_nodes=2)

    def test_node_scheme_log_placements(self):
        nvem = node_scheme(log="nvem")
        disk = node_scheme(log="disk")
        assert nvem.log.device != disk.log.device
        assert any(u.name == "log0" for u in disk.disk_units)
        with pytest.raises(ValueError):
            node_scheme(log="papyrus")

    def test_workload_validation(self):
        config = cluster_config(num_nodes=2)
        with pytest.raises(ValueError):
            ShardedDebitCreditWorkload.for_cluster(
                config, arrival_rate_per_node=0.0)
        with pytest.raises(ValueError):
            ShardedDebitCreditWorkload.for_cluster(
                config, arrival_rate_per_node=50.0,
                distributed_fraction=1.5)


class TestClusterRun:
    def test_two_nodes_commit_locally_and_distributed(self):
        results, system = run_cluster()
        assert results.committed > 50
        cluster = results.cluster
        assert cluster is not None
        assert results.nodes == 2
        assert cluster["local_commits"] > 0
        assert cluster["distributed_commits"] > 0
        assert 0.0 < results.dist_fraction < 0.5
        # Every distributed commit exchanged work/prepare/vote/decision.
        messages = system.message_stats()
        for kind in ("2pc_work", "2pc_prepare", "2pc_vote", "2pc_commit"):
            assert messages[kind] > 0
        assert messages["2pc_prepare"] == messages["2pc_vote"]
        # Per-node shares are measured-window deltas: they add up to
        # the cluster-wide committed count (no warmup leakage).
        shares = system.node_results()
        assert len(shares) == 2
        assert sum(s.committed for s in shares) == results.committed

    def test_single_node_has_no_distributed_work(self):
        results, system = run_cluster(num_nodes=1, dist=0.5)
        assert results.nodes == 1
        assert results.cluster["distributed_commits"] == 0
        assert results.dist_fraction == 0.0
        assert results.commit_phase_ms > 0.0  # 1PC still forces a log
        assert system.message_stats().get("messages", 0) == 0

    def test_nvem_log_beats_disk_log_on_commit_phase(self):
        """The paper's §4 effect, doubled by 2PC: prepare + decision
        records forced through NVEM cost microseconds; through one log
        disk per node they cost two rotational latencies."""
        nvem, _ = run_cluster(log="nvem", dist=0.25)
        disk, _ = run_cluster(log="disk", dist=0.25)
        assert nvem.commit_phase_ms < disk.commit_phase_ms / 5
        assert nvem.in_doubt_time < disk.in_doubt_time

    def test_dollars_per_tps_populated(self):
        results, _ = run_cluster()
        assert results.dollars_per_tps > 0
        assert results.cluster["cost_dollars"] > 0

    def test_deterministic(self):
        a, _ = run_cluster(seed=5)
        b, _ = run_cluster(seed=5)
        assert a == b
        assert a.cluster == b.cluster


class TestCoordinatorCrash:
    def test_in_doubt_pieces_resolve_via_gem_failover(self):
        """Crashing node 0 mid-run leaves participants on node 1 in
        doubt (prepared, locks held).  They must not wait out the full
        restart: after ``gem_failover_delay`` the injector resolves
        them from the GEM-mirrored decision table, while the crashed
        node replays its log and the availability clock runs."""
        results, system = run_cluster(
            log="disk", rate=60.0, dist=1.0,
            coupling=CouplingConfig.network_coupling(),
            crash_schedule=((0, 2.5),), checkpoint_interval=2.0,
            warmup=1.0, duration=6.0, seed=7)
        cluster = results.cluster
        assert cluster["failover_resolved"] > 0
        assert cluster["in_doubt_total"] > 0
        # The outage is bounded: the restart completed inside the
        # window, so availability and MTTR are both populated.
        assert 0.0 < results.availability < 1.0
        assert results.restart_time_mean > 0.0
        assert len(system.faults.restarts) == 1
        node_id, stats = system.faults.restarts[0]
        assert node_id == 0
        assert stats.redo_pages > 0
        # The surviving node kept committing during the outage.
        shares = {s.node_id: s.committed for s in system.node_results()}
        assert shares[1] > shares[0]

    def test_no_schedule_means_no_recovery_overhead(self):
        results, system = run_cluster()
        assert results.recovery is None
        assert all(n.checkpointer is None for n in system.nodes)


class _Idle:
    """Workload stand-in: the test submits its transactions by hand."""

    def start(self, system):
        pass


class TestTwoPhaseAbort:
    def test_failed_piece_aborts_every_piece_and_restarts(self):
        """A participant piece that loses a deadlock on its node reports
        ``work_done == "failed"``.  The coordinator then sends "abort"
        to every piece (the sibling that finished its work too),
        releases its locks on every node, drops the
        pending registration and restarts with the same references;
        the retry commits through 2PC."""
        from repro.cluster.twopc import ClusterTransaction
        from repro.core.transaction import ObjectRef, Transaction

        config, _ = build_cluster(num_nodes=3)
        system = config.build_system(_Idle(), seed=1)
        attempts = []
        register = system.register_pieces

        def spy(tx, pieces):
            attempts.append(list(pieces))
            register(tx, pieces)

        system.register_pieces = spy

        def page(no):
            return ObjectRef(1, no, no, True)

        # The piece on node 1 locks page 10, reads three ACCOUNT pages,
        # then wants page 20; node 1's local transaction holds 20 and
        # waits for 10 long before that, so the piece closes the cycle
        # and is the (requester) victim.
        piece_refs = (page(10), ObjectRef(0, 1, 1, True),
                      ObjectRef(0, 2, 2, True), ObjectRef(0, 3, 3, True),
                      page(20))
        home_refs = [page(30)]
        sibling_refs = (page(40),)
        remote_work = [(1, piece_refs), (2, sibling_refs)]
        coordinator = ClusterTransaction(1, "t", list(home_refs), 0,
                                         remote_work)
        local = Transaction(2, "t", [page(20), page(10)])
        system.nodes[0].tm.submit(coordinator)
        system.nodes[1].tm.submit(local)
        system.env.run()

        assert len(attempts) == 2
        failed, retried = attempts
        assert [p.work_done.value for p in failed] == ["failed", "ok"]
        assert [p.decision.value for p in failed] == ["abort", "abort"]
        assert [p.decision.value for p in retried] == ["commit", "commit"]
        assert [(p.node_id, p.refs) for p in retried] == \
            [(p.node_id, p.refs) for p in failed] == remote_work
        assert coordinator.refs == home_refs
        assert coordinator.restarts == 1
        for node in system.nodes:
            assert node.locks.held_count() == 0
            assert node.locks.waiting_count() == 0
        assert system._pending == {} and system.decisions == {}
        metrics = system.metrics
        assert metrics.committed == 2
        assert system.twopc.distributed_commits == 1
        in_flight = sum(node.tm.active for node in system.nodes)
        terminal_aborts = metrics.aborted - metrics.restarts
        assert system.tm.submitted == \
            metrics.committed + terminal_aborts + in_flight


class TestClusterFingerprint:
    """The content-addressed cache must miss when cluster knobs change."""

    def test_node_count_change_misses_cache(self):
        cfg2, wl2 = build_cluster(num_nodes=2)
        cfg4, wl4 = build_cluster(num_nodes=4)
        assert point_fingerprint(cfg2, wl2, 1.0, 4.0, 1) \
            != point_fingerprint(cfg4, wl4, 1.0, 4.0, 1)
        # The workload alone is enough: its shard map depends on N.
        assert fingerprint(wl2) != fingerprint(wl4)

    def test_identical_cluster_points_share_a_fingerprint(self):
        cfg_a, wl_a = build_cluster(num_nodes=2)
        cfg_b, wl_b = build_cluster(num_nodes=2)
        assert point_fingerprint(cfg_a, wl_a, 1.0, 4.0, 1) \
            == point_fingerprint(cfg_b, wl_b, 1.0, 4.0, 1)

    def test_cluster_knobs_are_fingerprinted(self):
        base, wl = build_cluster()
        for kwargs in ({"gem_failover_delay": 0.5},
                       {"crash_schedule": ((0, 3.0),)},
                       {"node_price": 1.0},
                       {"checkpoint_interval": 5.0}):
            changed, _ = build_cluster(**kwargs)
            assert fingerprint(changed) != fingerprint(base), kwargs
        assert fingerprint(
            ShardedDebitCreditWorkload.for_cluster(
                base, arrival_rate_per_node=50.0,
                distributed_fraction=0.3)) != fingerprint(wl)


def tiny_cluster_spec():
    """A two-point cluster sweep small enough for determinism tests."""
    from repro.experiments.api import CurveSpec, ExperimentSpec, SweepProfile

    def build(x):
        return build_cluster(num_nodes=int(x), rate=40.0, dist=0.3)

    return ExperimentSpec(
        id="_tiny_cluster", title="tiny cluster", x_label="nodes",
        y_label="tps",
        curves=[CurveSpec(label="nvem", build=build)],
        profiles={"fast": SweepProfile(xs=(1.0, 2.0), warmup=0.5,
                                       duration=1.5),
                  "full": SweepProfile(xs=(1.0, 2.0), warmup=0.5,
                                       duration=1.5)},
    )


class TestClusterDeterminism:
    """The cluster path honours the experiment-harness contract: the
    serial, parallel and cached evaluation paths are byte-identical."""

    def canonical(self, result) -> str:
        import json

        from repro.experiments.export import experiment_to_dict

        return json.dumps(experiment_to_dict(result), sort_keys=True,
                          separators=(",", ":"))

    def test_serial_parallel_and_cached_identical(self, tmp_path):
        import warnings

        from repro.experiments.api import ExperimentRunner
        from repro.experiments.store import ResultStore

        spec = tiny_cluster_spec()
        serial = self.canonical(
            ExperimentRunner().run_one(spec, profile="fast"))
        with warnings.catch_warnings():
            # A sandbox without working process pools degrades the
            # parallel runner to serial evaluation — same output.
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = self.canonical(
                ExperimentRunner(parallel=True).run_one(spec,
                                                        profile="fast"))
        store = ResultStore(str(tmp_path))
        cold_runner = ExperimentRunner(store=store)
        cold = self.canonical(cold_runner.run_one(spec, profile="fast"))
        warm_runner = ExperimentRunner(store=store)
        warm = self.canonical(warm_runner.run_one(spec, profile="fast"))
        assert serial == parallel == cold == warm
        assert cold_runner.last_stats.hits == 0
        assert warm_runner.last_stats.misses == 0
        assert warm_runner.last_stats.hits == warm_runner.last_stats.total


class TestWorkloadRouting:
    def test_home_node_matches_partition_map(self):
        """The workload routes by the same PartitionMap the shards use
        — every generated transaction's refs stay in range of its
        node's partition sizes."""
        config, workload = build_cluster(num_nodes=3, dist=0.5)
        system = config.build_system(workload, seed=3)
        pmap = PartitionMap(3)
        branches = config.branches_per_node
        for _ in range(300):
            tx = workload.make_transaction(system.streams)
            assert 0 <= tx.home_node < 3
            for node_id, refs in tx.remote_work:
                assert node_id != tx.home_node
                assert 0 <= node_id < 3
                assert refs
        assert pmap.node_of(branches * 3 - 1) in range(3)
