"""Database traces: format, I/O and the trace-driven SOURCE (§3.1).

A trace records, per transaction, its type and every page reference
with its access mode.  The trace-driven SOURCE replays transactions in
their original order at a configurable arrival rate (one common rate,
or one rate per transaction type — both as in the paper).

Storage is columnar (numpy arrays) so the million-access trace of
§4.6 fits comfortably in memory; a line-oriented text format
(:func:`write_trace` / :func:`read_trace`) allows interchange with real
trace data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CCMode, NVEMCachingMode, PartitionConfig
from repro.core.transaction import ObjectRef, Transaction

__all__ = [
    "Trace",
    "TraceFile",
    "TraceTransaction",
    "TraceWorkload",
    "build_trace_partitions",
    "read_trace",
    "write_trace",
]


@dataclass(frozen=True)
class TraceFile:
    """One database file referenced by the trace."""

    name: str
    num_pages: int


class TraceTransaction:
    """A materialized trace transaction: type + (file, page, write) refs."""

    __slots__ = ("type_name", "refs")

    def __init__(self, type_name: str,
                 refs: Sequence[Tuple[int, int, bool]]):
        self.type_name = type_name
        self.refs = list(refs)

    def __len__(self) -> int:
        return len(self.refs)

    @property
    def is_update(self) -> bool:
        return any(w for _, _, w in self.refs)


class Trace:
    """Columnar trace: flat reference arrays + transaction boundaries."""

    def __init__(self, files: List[TraceFile], type_names: List[str],
                 tx_types: np.ndarray, offsets: np.ndarray,
                 file_ids: np.ndarray, pages: np.ndarray,
                 writes: np.ndarray):
        if len(offsets) != len(tx_types) + 1:
            raise ValueError("offsets must have len(tx_types) + 1 entries")
        if not (len(file_ids) == len(pages) == len(writes)):
            raise ValueError("reference columns must have equal length")
        if len(offsets) and offsets[-1] != len(file_ids):
            raise ValueError("last offset must equal the reference count")
        self.files = files
        self.type_names = type_names
        self.tx_types = tx_types
        self.offsets = offsets
        self.file_ids = file_ids
        self.pages = pages
        self.writes = writes

    # -- construction ------------------------------------------------------
    @classmethod
    def from_transactions(cls, files: List[TraceFile],
                          transactions: Sequence[TraceTransaction]) -> "Trace":
        type_names: List[str] = []
        type_index: Dict[str, int] = {}
        tx_types = np.empty(len(transactions), dtype=np.int16)
        offsets = np.zeros(len(transactions) + 1, dtype=np.int64)
        total = sum(len(t) for t in transactions)
        file_ids = np.empty(total, dtype=np.int16)
        pages = np.empty(total, dtype=np.int64)
        writes = np.zeros(total, dtype=bool)
        cursor = 0
        for i, tx in enumerate(transactions):
            idx = type_index.get(tx.type_name)
            if idx is None:
                idx = type_index[tx.type_name] = len(type_names)
                type_names.append(tx.type_name)
            tx_types[i] = idx
            for file_id, page, is_write in tx.refs:
                file_ids[cursor] = file_id
                pages[cursor] = page
                writes[cursor] = is_write
                cursor += 1
            offsets[i + 1] = cursor
        return cls(files, type_names, tx_types, offsets, file_ids, pages,
                   writes)

    def fingerprint_data(self) -> dict:
        """Point-cache identity: file table, type table and content
        digests of the columnar arrays (hashing the raw column bytes is
        exact and avoids materializing a million-access trace as JSON).
        """
        return {
            "files": self.files,
            "type_names": list(self.type_names),
            "columns": {
                "tx_types": self.tx_types,
                "offsets": self.offsets,
                "file_ids": self.file_ids,
                "pages": self.pages,
                "writes": self.writes,
            },
        }

    # -- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tx_types)

    def references(self, lo: int,
                   hi: int) -> Iterator[Tuple[int, int, bool]]:
        """``(file_id, page, is_write)`` of references ``lo:hi``, read
        from list views of the columns (one ``tolist`` per column costs
        a fraction of indexing numpy scalars one by one)."""
        return zip(self.file_ids[lo:hi].tolist(), self.pages[lo:hi].tolist(),
                   self.writes[lo:hi].tolist())

    def transaction(self, index: int) -> TraceTransaction:
        lo = int(self.offsets[index])
        hi = int(self.offsets[index + 1])
        return TraceTransaction(self.type_names[self.tx_types[index]],
                                self.references(lo, hi))

    def iter_transactions(self) -> Iterator[TraceTransaction]:
        for i in range(len(self)):
            yield self.transaction(i)

    # -- statistics (the published marginals of §4.6) ------------------------
    @property
    def num_accesses(self) -> int:
        return len(self.file_ids)

    @property
    def write_fraction(self) -> float:
        if not len(self.writes):
            return 0.0
        return float(np.count_nonzero(self.writes)) / len(self.writes)

    @property
    def update_tx_fraction(self) -> float:
        if not len(self):
            return 0.0
        updates = 0
        for i in range(len(self)):
            lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
            if np.any(self.writes[lo:hi]):
                updates += 1
        return updates / len(self)

    @property
    def distinct_pages(self) -> int:
        combined = self.file_ids.astype(np.int64) * (1 << 40) + self.pages
        return int(np.unique(combined).size)

    @property
    def largest_tx(self) -> int:
        if len(self) == 0:
            return 0
        return int(np.max(np.diff(self.offsets)))

    @property
    def mean_tx_size(self) -> float:
        if len(self) == 0:
            return 0.0
        return self.num_accesses / len(self)


def write_trace(trace: Trace, path: str) -> None:
    """Serialize a trace to the line-oriented interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# tpsim-trace v1\n")
        for file in trace.files:
            fh.write(f"F {file.name} {file.num_pages}\n")
        for tx in trace.iter_transactions():
            fh.write(f"T {tx.type_name}\n")
            for file_id, page, is_write in tx.refs:
                mode = "W" if is_write else "R"
                fh.write(f"A {file_id} {page} {mode}\n")


def read_trace(path: str) -> Trace:
    """Parse the interchange format back into a :class:`Trace`."""
    files: List[TraceFile] = []
    transactions: List[TraceTransaction] = []
    current_type: Optional[str] = None
    current_refs: List[Tuple[int, int, bool]] = []

    def flush() -> None:
        nonlocal current_refs
        if current_type is not None:
            transactions.append(TraceTransaction(current_type, current_refs))
            current_refs = []

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "F" and len(parts) == 3:
                files.append(TraceFile(parts[1], int(parts[2])))
            elif parts[0] == "T" and len(parts) == 2:
                flush()
                current_type = parts[1]
            elif parts[0] == "A" and len(parts) == 4:
                if current_type is None:
                    raise ValueError(
                        f"{path}:{lineno}: access before any transaction"
                    )
                mode = parts[3]
                if mode not in ("R", "W"):
                    raise ValueError(f"{path}:{lineno}: bad mode {mode!r}")
                current_refs.append(
                    (int(parts[1]), int(parts[2]), mode == "W")
                )
            else:
                raise ValueError(f"{path}:{lineno}: unparseable line {line!r}")
    flush()
    return Trace.from_transactions(files, transactions)


def build_trace_partitions(
    trace: Trace,
    allocation: str = "db0",
    cc_mode: CCMode = CCMode.PAGE,
    nvem_caching: NVEMCachingMode = NVEMCachingMode.NONE,
    nvem_write_buffer: bool = False,
) -> List[PartitionConfig]:
    """One partition per trace file (page-granular objects)."""
    return [
        PartitionConfig(
            name=file.name,
            num_objects=file.num_pages,
            block_factor=1,
            cc_mode=cc_mode,
            allocation=allocation,
            nvem_caching=nvem_caching,
            nvem_write_buffer=nvem_write_buffer,
        )
        for file in trace.files
    ]


class TraceWorkload:
    """SOURCE replaying a trace at a Poisson arrival rate.

    ``arrival_rate`` applies to all transactions in original order; or
    pass ``per_type_rates`` (type name -> rate) for independent per-type
    replay, each preserving that type's internal order.  ``limit`` caps
    total submissions; ``loop`` wraps around the trace (useful for
    steady-state measurement windows longer than the trace).
    """

    def __init__(self, trace: Trace, arrival_rate: Optional[float] = None,
                 per_type_rates: Optional[Dict[str, float]] = None,
                 limit: Optional[int] = None, loop: bool = True):
        if (arrival_rate is None) == (per_type_rates is None):
            raise ValueError(
                "specify exactly one of arrival_rate / per_type_rates"
            )
        if arrival_rate is not None and arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.trace = trace
        self.arrival_rate = arrival_rate
        self.per_type_rates = per_type_rates
        self.limit = limit
        self.loop = loop
        self.submitted = 0
        self._tx_counter = 0

    def fingerprint_data(self) -> dict:
        """Point-cache identity: replay parameters plus the trace
        content (``submitted``/counters are per-run state)."""
        return {
            "trace": self.trace,
            "arrival_rate": self.arrival_rate,
            "per_type_rates": self.per_type_rates,
            "limit": self.limit,
            "loop": self.loop,
        }

    def _to_transaction(self, ttx: TraceTransaction) -> Transaction:
        refs = [
            ObjectRef(file_id, page, page, is_write,
                      tag=self.trace.files[file_id].name)
            for file_id, page, is_write in ttx.refs
        ]
        self._tx_counter += 1
        return Transaction(self._tx_counter, ttx.type_name, refs)

    def _replay(self, system, indices: List[int], rate: float,
                stream: str):
        env = system.env
        mean_gap = 1.0 / rate
        position = 0
        while True:
            if self.limit is not None and self.submitted >= self.limit:
                return
            if position >= len(indices):
                if not self.loop:
                    return
                position = 0
            yield env.timeout(system.streams.exponential(stream, mean_gap))
            ttx = self.trace.transaction(indices[position])
            position += 1
            self.submitted += 1
            system.tm.submit(self._to_transaction(ttx))

    def prewarm(self, system, max_accesses: int = 120_000) -> None:
        """Warm the cache levels by silently replaying trace references:
        whole transactions, up to the first one that brings the count
        to ``max_accesses``."""
        trace = self.trace
        ends = trace.offsets[1:]
        cut = int(np.searchsorted(ends, max_accesses, side="left"))
        stop = int(ends[cut]) if cut < len(ends) else trace.num_accesses
        system.bm.prewarm(trace.references(0, stop))

    def start(self, system) -> None:
        if self.arrival_rate is not None:
            indices = list(range(len(self.trace)))
            system.env.process(
                self._replay(system, indices, self.arrival_rate,
                             "trace-arrivals")
            )
            return
        by_type: Dict[str, List[int]] = {}
        for i in range(len(self.trace)):
            name = self.trace.type_names[self.trace.tx_types[i]]
            by_type.setdefault(name, []).append(i)
        for name, rate in self.per_type_rates.items():
            if name not in by_type:
                raise ValueError(f"trace has no transactions of type {name!r}")
            if rate <= 0:
                continue
            system.env.process(
                self._replay(system, by_type[name], rate,
                             f"trace-arrivals-{name}")
            )
