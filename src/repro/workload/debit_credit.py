"""Debit-Credit (TPC-A / ET1) workload generation (§3.1, §4.1).

The workload has four record types — ACCOUNT, BRANCH, TELLER, HISTORY —
and a single transaction type performing four update accesses.  The
BRANCH record is selected at random; the TELLER at random among the
tellers of that branch; K% (85 in [An85]) of ACCOUNT accesses go to an
account of the selected branch, the rest to an account of another
branch; HISTORY is a sequential append.

With the paper's clustering option (used in all Debit-Credit
experiments, §4.1), each BRANCH record shares its page with its TELLER
records, so a transaction touches only three distinct pages.  Record
types are always referenced in the same order — ACCOUNT, HISTORY,
BRANCH, TELLER — so no deadlocks occur and the high-traffic
BRANCH/TELLER page is locked last (shortest possible holding time).
HISTORY accesses are synchronized by latches, i.e. no locks (§4.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import (
    CCMode,
    NVEMCachingMode,
    PartitionConfig,
)
from repro.core.transaction import ObjectRef, Transaction
from repro.workload.base import PoissonArrivals

__all__ = ["DebitCreditWorkload", "build_debit_credit_partitions"]

#: Partition order produced by :func:`build_debit_credit_partitions`.
P_ACCOUNT = 0
P_BRANCH_TELLER = 1
P_HISTORY = 2


def build_debit_credit_partitions(
    num_branches: int = 500,
    tellers_per_branch: int = 10,
    accounts_per_branch: int = 100_000,
    account_block_factor: int = 10,
    history_block_factor: int = 20,
    allocation: str = "db0",
    bt_allocation: Optional[str] = None,
    history_allocation: Optional[str] = None,
    nvem_caching: NVEMCachingMode = NVEMCachingMode.NONE,
    nvem_write_buffer: bool = False,
) -> List[PartitionConfig]:
    """Partitions for the clustered Debit-Credit database (Table 4.1).

    Clustering stores each BRANCH record with its TELLER records in one
    page: the combined BRANCH/TELLER partition has ``num_branches``
    pages, object 0 of page *b* being the branch record and objects
    1..tellers_per_branch its tellers.
    """
    bt_block = 1 + tellers_per_branch
    history_objects = 10_000_000  # circular append file; size immaterial
    return [
        PartitionConfig(
            name="ACCOUNT",
            num_objects=num_branches * accounts_per_branch,
            block_factor=account_block_factor,
            cc_mode=CCMode.PAGE,
            allocation=allocation,
            nvem_caching=nvem_caching,
            nvem_write_buffer=nvem_write_buffer,
        ),
        PartitionConfig(
            name="BRANCH_TELLER",
            num_objects=num_branches * bt_block,
            block_factor=bt_block,
            cc_mode=CCMode.PAGE,
            allocation=bt_allocation or allocation,
            nvem_caching=nvem_caching,
            nvem_write_buffer=nvem_write_buffer,
        ),
        PartitionConfig(
            name="HISTORY",
            num_objects=history_objects,
            block_factor=history_block_factor,
            cc_mode=CCMode.NONE,  # latched, not locked (§4.1)
            allocation=history_allocation or allocation,
            sequential_append=True,
            nvem_caching=nvem_caching,
            nvem_write_buffer=nvem_write_buffer,
        ),
    ]


class DebitCreditWorkload:
    """SOURCE generating Debit-Credit transactions at a Poisson rate."""

    def __init__(self, arrival_rate: float,
                 num_branches: int = 500,
                 tellers_per_branch: int = 10,
                 accounts_per_branch: int = 100_000,
                 account_block_factor: int = 10,
                 history_block_factor: int = 20,
                 home_account_probability: float = 0.85):
        if arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= home_account_probability <= 1.0:
            raise ValueError("home account probability must be in [0, 1]")
        self.arrival_rate = arrival_rate
        self.num_branches = num_branches
        self.tellers_per_branch = tellers_per_branch
        self.accounts_per_branch = accounts_per_branch
        self.account_block_factor = account_block_factor
        self.history_block_factor = history_block_factor
        self.home_account_probability = home_account_probability
        self._bt_block = 1 + tellers_per_branch
        self._history_cursor = 0
        self._history_objects = 10_000_000
        self._tx_counter = 0

    def fingerprint_data(self) -> dict:
        """Simulation-determining parameters for the point cache.

        Only constructor parameters: the mutable generation state
        (history cursor, transaction counter) is reset per run and must
        not distinguish a fresh workload from a used one.
        """
        return {
            "arrival_rate": self.arrival_rate,
            "num_branches": self.num_branches,
            "tellers_per_branch": self.tellers_per_branch,
            "accounts_per_branch": self.accounts_per_branch,
            "account_block_factor": self.account_block_factor,
            "history_block_factor": self.history_block_factor,
            "home_account_probability": self.home_account_probability,
        }

    # -- record selection ------------------------------------------------
    def _pick_account(self, streams, branch: int) -> int:
        if streams.bernoulli("dc-home", self.home_account_probability) or \
                self.num_branches == 1:
            home = branch
        else:
            # An account of *another* branch.
            other = streams.uniform_int("dc-other-branch", 0,
                                        self.num_branches - 2)
            home = other if other < branch else other + 1
        offset = streams.uniform_int("dc-account", 0,
                                     self.accounts_per_branch - 1)
        return home * self.accounts_per_branch + offset

    def make_transaction(self, streams) -> Transaction:
        branch = streams.uniform_int("dc-branch", 0, self.num_branches - 1)
        teller = streams.uniform_int("dc-teller", 0,
                                     self.tellers_per_branch - 1)
        account = self._pick_account(streams, branch)
        history = self._history_cursor
        self._history_cursor = (self._history_cursor + 1) % \
            self._history_objects

        bt_page = branch  # clustering: one page per branch
        branch_obj = branch * self._bt_block
        teller_obj = branch_obj + 1 + teller

        refs = [
            ObjectRef(P_ACCOUNT, account,
                      account // self.account_block_factor, True,
                      tag="ACCOUNT"),
            ObjectRef(P_HISTORY, history,
                      history // self.history_block_factor, True,
                      tag="HISTORY"),
            ObjectRef(P_BRANCH_TELLER, branch_obj, bt_page, True,
                      tag="BRANCH"),
            ObjectRef(P_BRANCH_TELLER, teller_obj, bt_page, True,
                      tag="TELLER"),
        ]
        self._tx_counter += 1
        return Transaction(self._tx_counter, "debit-credit", refs)

    # -- warm start ------------------------------------------------------
    def _prewarm_pages(self, streams):
        """One transaction's page numbers without building the objects.

        Performs *exactly* the draws of :meth:`make_transaction` (branch,
        teller, account — the teller draw is consumed even though only
        pages matter) and advances the same counters, so a prewarm
        replay leaves the RNG streams and transaction ids bit-identical
        to one that materialized full transactions.
        """
        branch = streams.uniform_int("dc-branch", 0, self.num_branches - 1)
        streams.uniform_int("dc-teller", 0, self.tellers_per_branch - 1)
        account = self._pick_account(streams, branch)
        history = self._history_cursor
        self._history_cursor = (self._history_cursor + 1) % \
            self._history_objects
        self._tx_counter += 1
        return (account // self.account_block_factor,
                history // self.history_block_factor,
                branch)

    def prewarm(self, system) -> None:
        """Warm all cache levels with a representative reference stream.

        Replays enough synthetic transactions through the buffer
        manager's prewarm path to fill the main-memory buffer (and any
        second-level caches) to LRU steady state: hot BRANCH/TELLER and
        HISTORY pages resident, the remaining frames churning with dirty
        ACCOUNT pages — the state §4's measurements assume.  All four
        Debit-Credit references are writes, and clustering makes the
        BRANCH and TELLER references hit the same page.
        """
        config = system.bm.config
        capacity = config.cm.buffer_size
        second_level = max(config.cm.nvem_cache_size,
                           max((u.cache_size for u in
                                config.disk_units), default=0))
        n_txs = max(4000, 3 * (capacity + second_level))
        system.bm.prewarm(self._prewarm_refs(system.streams, n_txs))

    def _prewarm_refs(self, streams, n_txs: int):
        """The page references of ``n_txs`` transactions, drawn lazily
        (the replay makes no draws, so the RNG order is unchanged)."""
        for _ in range(n_txs):
            acct_page, hist_page, bt_page = self._prewarm_pages(streams)
            yield P_ACCOUNT, acct_page, True
            yield P_HISTORY, hist_page, True
            yield P_BRANCH_TELLER, bt_page, True
            yield P_BRANCH_TELLER, bt_page, True

    # -- SOURCE ------------------------------------------------------------
    def start(self, system) -> None:
        source = PoissonArrivals(
            rate=self.arrival_rate,
            factory=lambda _n: self.make_transaction(system.streams),
            stream_name="arrivals-debit-credit",
        )
        source.start(system)
