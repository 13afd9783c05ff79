"""Unit tests for traces: format, I/O, workload, generator."""

import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.experiments.trace_setup import trace_for
from repro.sim.rng import RandomStreams
from repro.workload.trace import (
    Trace,
    TraceFile,
    TraceTransaction,
    TraceWorkload,
    build_trace_partitions,
    read_trace,
    write_trace,
)
from repro.workload.tracegen import RealWorkloadProfile, generate_trace


def tiny_trace():
    files = [TraceFile("f0", 100), TraceFile("f1", 50)]
    txs = [
        TraceTransaction("query", [(0, 1, False), (0, 2, False)]),
        TraceTransaction("update", [(1, 3, True), (0, 1, False)]),
        TraceTransaction("query", [(1, 4, False)]),
    ]
    return Trace.from_transactions(files, txs)


class TestTraceContainer:
    def test_lengths(self):
        trace = tiny_trace()
        assert len(trace) == 3
        assert trace.num_accesses == 5

    def test_transaction_roundtrip(self):
        trace = tiny_trace()
        tx = trace.transaction(1)
        assert tx.type_name == "update"
        assert tx.refs == [(1, 3, True), (0, 1, False)]
        assert tx.is_update

    def test_statistics(self):
        trace = tiny_trace()
        assert trace.write_fraction == pytest.approx(0.2)
        assert trace.update_tx_fraction == pytest.approx(1 / 3)
        assert trace.distinct_pages == 4  # (0,1),(0,2),(1,3),(1,4)
        assert trace.largest_tx == 2
        assert trace.mean_tx_size == pytest.approx(5 / 3)

    def test_iter_transactions(self):
        trace = tiny_trace()
        types = [tx.type_name for tx in trace.iter_transactions()]
        assert types == ["query", "update", "query"]

    def test_offset_validation(self):
        import numpy as np
        with pytest.raises(ValueError):
            Trace([], [], np.zeros(1, dtype=np.int16),
                  np.zeros(1, dtype=np.int64),
                  np.zeros(0, dtype=np.int16),
                  np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))


class TestTraceIO:
    def test_write_read_roundtrip(self, tmp_path):
        trace = tiny_trace()
        path = str(tmp_path / "trace.txt")
        write_trace(trace, path)
        loaded = read_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.num_accesses == trace.num_accesses
        assert [f.name for f in loaded.files] == ["f0", "f1"]
        for i in range(len(trace)):
            a, b = trace.transaction(i), loaded.transaction(i)
            assert a.type_name == b.type_name
            assert a.refs == b.refs

    def test_read_rejects_access_before_transaction(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A 0 1 R\n")
        with pytest.raises(ValueError, match="before any transaction"):
            read_trace(str(path))

    def test_read_rejects_bad_mode(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("T q\nA 0 1 Z\n")
        with pytest.raises(ValueError, match="bad mode"):
            read_trace(str(path))

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("WHAT 1 2 3\n")
        with pytest.raises(ValueError, match="unparseable"):
            read_trace(str(path))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment\n\nF f0 10\nT q\nA 0 1 R\n")
        trace = read_trace(str(path))
        assert len(trace) == 1


class TestBuildPartitions:
    def test_one_partition_per_file(self):
        parts = build_trace_partitions(tiny_trace(), allocation="db0")
        assert [p.name for p in parts] == ["f0", "f1"]
        assert parts[0].num_objects == 100
        assert parts[0].block_factor == 1


class TestTraceWorkload:
    def test_requires_exactly_one_rate_spec(self):
        trace = tiny_trace()
        with pytest.raises(ValueError):
            TraceWorkload(trace)
        with pytest.raises(ValueError):
            TraceWorkload(trace, arrival_rate=1.0,
                          per_type_rates={"query": 1.0})

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TraceWorkload(tiny_trace(), arrival_rate=0.0)

    @pytest.mark.parametrize("max_accesses, fed", [
        (-1, 2), (0, 2), (2, 2), (3, 4), (4, 4), (5, 5), (10**6, 5),
    ])
    def test_prewarm_stops_after_the_transaction_reaching_the_cap(
            self, max_accesses, fed):
        """Whole transactions, up to the first one that brings the
        replayed count to ``max_accesses`` (transaction sizes 2, 2, 1)."""

        class RecordingBM:
            def prewarm(self, refs):
                self.refs = list(refs)

        class System:
            bm = RecordingBM()

        trace = tiny_trace()
        TraceWorkload(trace, arrival_rate=1.0).prewarm(System, max_accesses)
        expected = [ref for tx in trace.iter_transactions()
                    for ref in tx.refs][:fed]
        assert System.bm.refs == expected

    def test_per_type_rates_unknown_type(self):
        from repro.core.config import CMConfig, LogAllocation, NVEM, NVEMConfig, SystemConfig
        from repro.core.model import TransactionSystem

        trace = tiny_trace()
        workload = TraceWorkload(trace, per_type_rates={"ghost": 1.0})
        config = SystemConfig(
            partitions=build_trace_partitions(trace, allocation=NVEM),
            disk_units=[],
            nvem=NVEMConfig(),
            cm=CMConfig(),
            log=LogAllocation(device=NVEM),
        )
        system = TransactionSystem(config, workload)
        with pytest.raises(ValueError, match="no transactions of type"):
            system.start_workload()

    def test_replay_preserves_order_and_converts_refs(self):
        from repro.core.config import CMConfig, LogAllocation, NVEM, NVEMConfig, SystemConfig
        from repro.core.model import TransactionSystem

        trace = tiny_trace()
        workload = TraceWorkload(trace, arrival_rate=100.0, loop=False)
        config = SystemConfig(
            partitions=build_trace_partitions(trace, allocation=NVEM),
            disk_units=[],
            nvem=NVEMConfig(),
            cm=CMConfig(),
            log=LogAllocation(device=NVEM),
        )
        system = TransactionSystem(config, workload)
        submitted = []
        original = system.tm.submit

        def spy(tx):
            submitted.append(tx)
            original(tx)

        system.tm.submit = spy
        system.start_workload()
        system.env.run(until=5.0)
        assert [tx.tx_type for tx in submitted] == \
            ["query", "update", "query"]
        first = submitted[0]
        assert first.refs[0].partition_index == 0
        assert first.refs[0].page_no == 1
        assert first.refs[0].tag == "f0"

    def test_loop_wraps_around(self):
        from repro.core.config import CMConfig, LogAllocation, NVEM, NVEMConfig, SystemConfig
        from repro.core.model import TransactionSystem

        trace = tiny_trace()
        workload = TraceWorkload(trace, arrival_rate=100.0, loop=True,
                                 limit=7)
        config = SystemConfig(
            partitions=build_trace_partitions(trace, allocation=NVEM),
            disk_units=[],
            nvem=NVEMConfig(),
            cm=CMConfig(),
            log=LogAllocation(device=NVEM),
        )
        system = TransactionSystem(config, workload)
        system.start_workload()
        system.env.run(until=5.0)
        assert workload.submitted == 7


class TestTraceGenerator:
    @pytest.fixture(scope="class")
    def trace(self):
        profile = RealWorkloadProfile(
            num_transactions=800,
            target_accesses=45_000,
            adhoc_count=1,
            adhoc_accesses=3_000,
            total_pages=20_000,
        )
        return generate_trace(profile, seed=7)

    def test_transaction_count(self, trace):
        assert len(trace) == 800

    def test_access_volume_near_target(self, trace):
        assert trace.num_accesses == pytest.approx(45_000, rel=0.15)

    def test_twelve_types(self, trace):
        assert len(trace.type_names) == 12

    def test_write_fraction_near_published(self, trace):
        assert trace.write_fraction == pytest.approx(0.016, rel=0.35)

    def test_update_tx_fraction_near_published(self, trace):
        assert trace.update_tx_fraction == pytest.approx(0.20, abs=0.05)

    def test_adhoc_is_largest_and_sequential(self, trace):
        assert trace.largest_tx == 3_000
        for tx in trace.iter_transactions():
            if tx.type_name == "adhoc-query":
                pages = [page for _, page, _ in tx.refs]
                file_size = trace.files[0].num_pages
                for prev, nxt in zip(pages, pages[1:]):
                    assert nxt == (prev + 1) % file_size
                assert not tx.is_update
                break
        else:  # pragma: no cover
            pytest.fail("no ad-hoc query found")

    def test_thirteen_files_and_footprint(self, trace):
        assert len(trace.files) == 13
        assert sum(f.num_pages for f in trace.files) == 20_000

    def test_pages_within_file_bounds(self, trace):
        for i in range(len(trace)):
            for file_id, page, _ in trace.transaction(i).refs:
                assert 0 <= page < trace.files[file_id].num_pages

    def test_update_transactions_write_at_least_once(self, trace):
        for tx in trace.iter_transactions():
            writes = sum(1 for _, _, w in tx.refs if w)
            if writes:
                assert tx.is_update

    def test_deterministic_for_seed(self):
        profile = RealWorkloadProfile(
            num_transactions=100, target_accesses=4000,
            adhoc_count=0, total_pages=5000,
        )
        a = generate_trace(profile, seed=3)
        b = generate_trace(profile, seed=3)
        assert a.num_accesses == b.num_accesses
        assert a.transaction(50).refs == b.transaction(50).refs

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RealWorkloadProfile(num_types=5).validate()
        with pytest.raises(ValueError):
            RealWorkloadProfile(locality_sizes=(0.5, 0.5, 0.5)).validate()
        with pytest.raises(ValueError):
            RealWorkloadProfile(update_tx_fraction=1.5).validate()


#: sha256 over the registered fast trace's columns (generator seed 42),
#: little-endian, in the order tx_types, offsets, file_ids, pages,
#: writes.  Every fast trace-driven figure replays this trace, so a
#: generator change that moves it must be deliberate.
FAST_TRACE_SHA256 = \
    "1d7d4a57d4dcebc0d6415e5e991fd3a513ef95df0f2f23ce6677651b7dfb710f"


def test_fast_trace_content_is_pinned():
    trace = trace_for(fast=True)
    digest = hashlib.sha256()
    for column in (trace.tx_types, trace.offsets, trace.file_ids,
                   trace.pages, trace.writes):
        digest.update(column.astype(column.dtype.newbyteorder("<"))
                      .tobytes())
    assert (len(trace), trace.num_accesses) == (1_500, 89_353)
    assert digest.hexdigest() == FAST_TRACE_SHA256


class TestWeightedChooser:
    """``weighted_chooser`` is a drop-in for repeated ``choice_weighted``
    draws with fixed weights: same indices, same stream state."""

    weights = st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=1e-9, max_value=1e9),
                  st.integers(min_value=0, max_value=1000)),
        min_size=1, max_size=12,
    )

    @given(weights=weights, draws=st.integers(min_value=1, max_value=80),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_matches_choice_weighted(self, weights, draws, seed):
        assume(sum(weights) > 0)
        scanned, chosen = RandomStreams(seed), RandomStreams(seed)
        choose = chosen.weighted_chooser("s", weights)
        assert [choose() for _ in range(draws)] == \
            [scanned.choice_weighted("s", weights) for _ in range(draws)]
        assert chosen.stream("s").getstate() == \
            scanned.stream("s").getstate()

    def test_boundary_draws(self):
        """Draws landing exactly on a running sum, and a draw at the
        total (the linear scan's fall-through), pick the same index."""

        class Scripted:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        weights = [1.0, 0.0, 1.0, 0.0, 2.0, 0.0]
        values = [0.0, 0.25, 0.5, 0.75, 1.0, 0.999]
        scanned, chosen = RandomStreams(1), RandomStreams(1)
        scanned._streams["s"] = Scripted(values)
        chosen._streams["s"] = Scripted(values)
        choose = chosen.weighted_chooser("s", weights)
        expected = [scanned.choice_weighted("s", weights) for _ in values]
        assert [choose() for _ in values] == expected == [0, 2, 4, 4, 5, 4]

    def test_rejects_what_choice_weighted_rejects(self):
        streams = RandomStreams(1)
        for bad in ([1.0, -0.5], [0.0, 0.0], []):
            with pytest.raises(ValueError):
                streams.choice_weighted("s", bad)
            with pytest.raises(ValueError):
                streams.weighted_chooser("s", bad)
