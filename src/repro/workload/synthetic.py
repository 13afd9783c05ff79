"""The general synthetic workload model (§3.1, Tables 3.1/3.2).

The database is a set of partitions; each partition's internal access
distribution follows a generalized b/c rule expressed as subpartitions
with relative sizes and access probabilities.  Transaction types are
characterized by arrival rate, mean size, write probability, sequential
or random access, fixed or variable (exponential) size, and a row of
the relative reference matrix assigning access fractions to partitions.

Example — the §4.7 contention workload::

    partitions = [
        PartitionConfig("hot", num_objects=10_000, block_factor=10, ...),
        PartitionConfig("cold", num_objects=100_000, block_factor=10, ...),
    ]
    tx = TransactionTypeConfig(
        "update", arrival_rate=100.0, tx_size=10, write_prob=1.0,
        reference_matrix={"hot": 0.8, "cold": 0.2}, var_size=True,
    )
    workload = SyntheticWorkload(config)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import PartitionConfig, SystemConfig, TransactionTypeConfig
from repro.core.transaction import ObjectRef, Transaction
from repro.workload.base import PoissonArrivals

__all__ = ["SyntheticWorkload"]


class _PartitionSampler:
    """Pre-computed subpartition ranges for object selection."""

    def __init__(self, index: int, part: PartitionConfig):
        self.index = index
        self.part = part
        total_size = sum(sp.size for sp in part.subpartitions)
        self.ranges: List[Tuple[int, int]] = []
        self.weights: List[float] = []
        start = 0
        remaining = part.num_objects
        for i, sp in enumerate(part.subpartitions):
            if i == len(part.subpartitions) - 1:
                count = remaining
            else:
                count = int(round(part.num_objects * sp.size / total_size))
                count = min(count, remaining)
            count = max(count, 1) if remaining > 0 else 0
            self.ranges.append((start, start + count - 1))
            self.weights.append(sp.access_prob)
            start += count
            remaining -= count
        #: Next object for sequential-append partitions.
        self.append_cursor = 0

    def sample_object(self, streams, stream_name: str) -> int:
        if len(self.ranges) == 1:
            low, high = self.ranges[0]
            return streams.uniform_int(stream_name, low, high)
        idx = streams.choice_weighted(stream_name + "-sub", self.weights)
        low, high = self.ranges[idx]
        return streams.uniform_int(stream_name, low, high)

    def append_object(self) -> int:
        obj = self.append_cursor
        self.append_cursor = (self.append_cursor + 1) % max(
            self.part.num_objects, 1
        )
        return obj


class SyntheticWorkload:
    """SOURCE for the general synthetic model."""

    def __init__(self, config: SystemConfig):
        if not config.tx_types:
            raise ValueError("synthetic workload needs tx_types in the config")
        self.config = config
        self._samplers = [
            _PartitionSampler(i, part)
            for i, part in enumerate(config.partitions)
        ]
        self._by_name = {
            part.name: sampler
            for part, sampler in zip(config.partitions, self._samplers)
        }
        self._tx_counter = 0

    def fingerprint_data(self) -> dict:
        """Point-cache identity: the config fully describes this source
        (partitions, tx types, rates); samplers and counters derive
        from it."""
        return {"config": self.config}

    # -- transaction construction ------------------------------------------
    def _tx_size(self, streams, tx_type: TransactionTypeConfig) -> int:
        if tx_type.var_size:
            return streams.geometric_like_size(
                f"size-{tx_type.name}", tx_type.tx_size
            )
        return max(1, int(round(tx_type.tx_size)))

    def _build_sequential(self, streams, tx_type: TransactionTypeConfig,
                          size: int) -> List[ObjectRef]:
        """Sequential access: one partition, consecutive objects (§3.1)."""
        names = list(tx_type.reference_matrix.keys())
        weights = [tx_type.reference_matrix[n] for n in names]
        chosen = names[streams.choice_weighted(
            f"seq-part-{tx_type.name}", weights
        )]
        sampler = self._by_name[chosen]
        part = sampler.part
        first = sampler.sample_object(streams, f"seq-obj-{tx_type.name}")
        refs = []
        for i in range(size):
            obj = (first + i) % part.num_objects
            is_write = streams.bernoulli(
                f"write-{tx_type.name}", tx_type.write_prob
            )
            refs.append(ObjectRef(sampler.index, obj,
                                  part.page_of_object(obj), is_write))
        return refs

    def _build_random(self, streams, tx_type: TransactionTypeConfig,
                      size: int) -> List[ObjectRef]:
        names = list(tx_type.reference_matrix.keys())
        weights = [tx_type.reference_matrix[n] for n in names]
        refs = []
        for _ in range(size):
            chosen = names[streams.choice_weighted(
                f"part-{tx_type.name}", weights
            )]
            sampler = self._by_name[chosen]
            part = sampler.part
            if part.sequential_append:
                obj = sampler.append_object()
            else:
                obj = sampler.sample_object(streams, f"obj-{tx_type.name}")
            is_write = streams.bernoulli(
                f"write-{tx_type.name}", tx_type.write_prob
            )
            refs.append(ObjectRef(sampler.index, obj,
                                  part.page_of_object(obj), is_write))
        return refs

    def make_transaction(self, streams,
                         tx_type: TransactionTypeConfig) -> Transaction:
        size = self._tx_size(streams, tx_type)
        if tx_type.sequential:
            refs = self._build_sequential(streams, tx_type, size)
        else:
            refs = self._build_random(streams, tx_type, size)
        self._tx_counter += 1
        return Transaction(self._tx_counter, tx_type.name, refs)

    # -- warm start ------------------------------------------------------
    def prewarm(self, system, n_txs: Optional[int] = None) -> None:
        """Warm cache levels with a representative synthetic stream."""
        if n_txs is None:
            n_txs = max(4000, 3 * system.config.cm.buffer_size)
        rates = [t.arrival_rate for t in self.config.tx_types]
        total = sum(rates)
        if total <= 0:
            return
        system.bm.prewarm(self._prewarm_refs(system.streams, rates, n_txs))

    def _prewarm_refs(self, streams, rates: List[float], n_txs: int):
        """The references of ``n_txs`` transactions, drawn lazily."""
        for _ in range(n_txs):
            idx = streams.choice_weighted("prewarm-type", rates)
            tx = self.make_transaction(streams, self.config.tx_types[idx])
            for ref in tx.refs:
                yield ref.partition_index, ref.page_no, ref.is_write

    # -- SOURCE ------------------------------------------------------------
    def start(self, system) -> None:
        for tx_type in self.config.tx_types:
            if tx_type.arrival_rate <= 0:
                continue
            source = PoissonArrivals(
                rate=tx_type.arrival_rate,
                factory=lambda _n, tt=tx_type: self.make_transaction(
                    system.streams, tt
                ),
                stream_name=f"arrivals-{tx_type.name}",
            )
            source.start(system)
