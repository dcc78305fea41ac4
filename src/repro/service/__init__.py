"""Online partition service — a long-lived query layer over the EM machine.

The offline algorithms answer one batch of ranks and exit; this package
keeps the approximate partitioning *alive* and serves traffic against
it:

* :mod:`repro.service.index` — :class:`~repro.service.index.PartitionIndex`,
  the one partition engine: an ordered list of partitions plus their
  splitter composites, answering selection, quantile, range-count, and
  partition-lookup queries with ``O(log K)`` in-memory comparisons plus
  at most one load or scan per partition touched;
  :meth:`~repro.service.index.PartitionIndex.build` materializes the
  whole approximate K-partitioning up front;
* :mod:`repro.service.online` —
  :class:`~repro.service.online.LazyPartitionIndex`, the same engine
  started lazily (Barbay–Gupta online multiselection): one partition
  holding the caller's file, refined in place only where queries land,
  so skewed traces pay far less than building the full index;
* :mod:`repro.service.updates` —
  :class:`~repro.service.updates.DeltaBuffer`, appends/deletes with
  local split/merge rebalancing and a drift-triggered full rebuild;
* :mod:`repro.service.frontend` —
  :class:`~repro.service.frontend.QueryFrontend`, batching mixed queries
  into one deduplicated multiselection per flush, with per-query
  amortized-I/O metrics;
* :mod:`repro.service.durability` —
  :class:`~repro.service.durability.DurablePartitionIndex`, a
  write-ahead delta log plus periodic metadata snapshots (all charged
  EM I/O), and :func:`~repro.service.durability.recover`, which rebuilds
  an answer-identical index from the manifest after a crash.
"""

from .index import PartitionIndex
from .online import LazyPartitionIndex
from .updates import DeltaBuffer
from .frontend import Query, QueryFrontend, FlushStats
from .durability import DurablePartitionIndex, DurableStore, recover

__all__ = [
    "PartitionIndex",
    "LazyPartitionIndex",
    "DeltaBuffer",
    "Query",
    "QueryFrontend",
    "FlushStats",
    "DurablePartitionIndex",
    "DurableStore",
    "recover",
]
