"""Lazy online multiselection: refine the partition only where queried.

Barbay–Gupta's observation ("Near-Optimal Online Multiselection in
Internal and External Memory") is that an *online* sequence of selection
queries need not pay for a full splitter construction up front: keep
the file as one coarse partition and refine a partition — one sampling
pass plus one distribution pass over just that partition — only when a
query actually lands in it.  Refinements persist, so

* a *skewed* (zipfian) trace touches few regions and repeats them: total
  I/O stays near the cost of refining the hot regions once, approaching
  ``O((N/B)·log(K/B))`` for the whole trace rather than per query;
* a *uniform or adversarial* trace eventually refines everything, and
  the total approaches (but never exceeds by more than a constant) the
  offline splitter construction — laziness costs nothing
  asymptotically.

A fully refined lazy index *is* the eager one, so
:class:`LazyPartitionIndex` is a :class:`~repro.service.index.PartitionIndex`
that starts from a single partition holding the caller's file and splits
an oversized partition in place with
:func:`~repro.alg.sampling.approx_quantile_pivots` (sampling) and
:func:`~repro.alg.distribute.distribute_by_pivots` (one-pass f-way
distribution).  Every query, the resident-memory rule and the lifecycle
are the base index's.  The engine is read-only: the input file is never
mutated or freed, and answered ranks are memoized in a bounded,
evictable in-memory cache so repeated hot queries cost zero I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import composite
from ..alg.sampling import approx_quantile_pivots, max_distribution_fanout
from ..alg.distribute import distribute_by_pivots
from .index import PartitionIndex, _Partition

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["LazyPartitionIndex"]


class LazyPartitionIndex(PartitionIndex):
    """Read-only online selection engine over one :class:`EMFile`.

    ``file`` is the (unsorted) input; it is never modified or freed, and
    the refined copies of its regions are released by :meth:`close`.
    Partitions are refined towards ``~N/k`` records each (the resolution
    of a K-partition index built fully), and always until one fits a
    single in-memory load.
    """

    _ENGINE = "lazy"

    def __init__(self, machine: "Machine", file: EMFile, k: int) -> None:
        if k < 1:
            raise SpecError("need k >= 1")
        super().__init__(machine, k)
        n = len(file)
        self._input = file
        self._parts = [_Partition([file], n)]
        self._n_live = n
        self._fanout = max_distribution_fanout(machine)
        self._leaf_target = max(machine.B, -(-n // int(k)))
        self._cache: dict[int, np.void] = {}
        self._cache_cap = max(machine.B, machine.M // 8)
        self.stats = {"refinements": 0, "leaf_loads": 0, "cache_hits": 0}
        metrics = self._metrics
        lookups = metrics.counter(
            "svc_cache_lookups",
            "answer-cache lookups by result",
            labels=("result",),
        )
        self._m_cache_hit = lookups.labels(result="hit")
        self._m_cache_miss = lookups.labels(result="miss")
        self._m_refinements = metrics.counter(
            "svc_refinements", "lazy partition refinements"
        )
        self._m_leaf_loads = metrics.counter(
            "svc_leaf_loads", "leaf loads answering uncached queries"
        )
        self._sync_resident()

    def append(self, keys) -> None:
        """Refused: the lazy engine is read-only."""
        raise SpecError("the lazy engine is read-only: no append")

    def delete(self, key: int) -> None:
        """Refused: the lazy engine is read-only."""
        raise SpecError("the lazy engine is read-only: no delete")

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def _locate(self, rank: int, ends: np.ndarray) -> tuple[int, np.ndarray]:
        """The partition holding ``rank``, refined until it fits a load
        against the *current* memory headroom."""
        j, ends = super()._locate(rank, ends)
        while self._parts[j].live > self._leaf_limit():
            self._refine(j)
            j, ends = super()._locate(rank, self._live_ends())
        return j, ends

    def _leaf_limit(self) -> int:
        """A leaf must satisfy the target *and* fit in memory right now.

        One block of slack covers the block-rounding of the load buffer
        (a leaf is read in whole blocks, so its footprint can exceed its
        record count by up to ``B - 1``).  Cached answers count as free
        headroom — they are evicted on demand by :meth:`_make_room` —
        otherwise a full cache would shrink the effective leaf size,
        forcing re-refinement of already-fine leaves whose metadata
        shrinks it further (a feedback spiral down to deadlock).
        """
        m = self._machine
        headroom = m.load_limit + len(self._cache) - m.B
        return max(m.B, min(self._leaf_target, headroom))

    def _refine(self, j: int) -> None:
        """Split oversized partition ``j``: sample pivots, distribute once."""
        m = self._machine
        part = self._parts[j]
        (file,) = part.segments
        self._make_room(min(file.num_blocks + self._fanout + 2, m.M // m.B) * m.B)
        with m.phase("svc-refine"):
            want = min(
                self._fanout - 1, max(1, -(-part.live // self._leaf_target) - 1)
            )
            pivots = approx_quantile_pivots(m, file, want)
            comps = composite(pivots)
            if len(comps) > 1:
                pivots = pivots[np.concatenate(([True], np.diff(comps) > 0))]
            if len(pivots) == 0:
                raise AssertionError(f"no pivots for {part.live} records")
            children = distribute_by_pivots(m, file, pivots, "svc-refine")
        self.stats["refinements"] += 1
        self._m_refinements.inc()
        self._splice(j, [_Partition([f], len(f)) for f in children], composite(pivots))

    def _discard_segment(self, seg: EMFile) -> None:
        """Free a refined copy; the caller's input file is never freed."""
        if seg is not self._input:
            seg.free()

    def _select_in_partition(self, j: int, local_ranks: np.ndarray) -> np.ndarray:
        """Load leaf ``j`` whole, evicting cached answers to make room."""
        part = self._parts[j]
        self._make_room(self._footprint(part))
        self.stats["leaf_loads"] += 1
        self._m_leaf_loads.inc()
        return self._load_select(part, local_ranks)

    # ------------------------------------------------------------------
    # Answer cache
    # ------------------------------------------------------------------
    def _from_cache(self, unique, dup, out) -> np.ndarray:
        todo = []
        for pos, rank in enumerate(unique.tolist()):
            served = int(dup[pos])
            rec = self._cache.get(rank)
            if rec is None:
                todo.append(pos)
                self._m_cache_miss.inc(served)
                continue
            out[pos] = rec
            self.stats["cache_hits"] += 1
            self._m_cache_hit.inc(served)
            self._m_query_io.observe(0, count=served)
        return np.array(todo, dtype=np.int64)

    def _remember(self, ranks: np.ndarray, recs: np.ndarray) -> None:
        for rank, rec in zip(ranks.tolist(), recs):
            if len(self._cache) < self._cache_cap:
                self._cache[rank] = rec.copy()
        self._sync_resident()

    def _make_room(self, needed: int) -> None:
        """Evict cached answers (oldest first) until ``needed`` records
        of machine memory are available (or the cache is empty).

        The cache is a pure optimization charged to the resident lease;
        correctness work — refinement passes, leaf loads — reclaims it
        under memory pressure.
        """
        short = needed - self._machine.memory.available
        if short <= 0 or not self._cache:
            return
        for rank in list(self._cache)[:short]:
            del self._cache[rank]
        self._sync_resident()

    def _resident_total(self) -> int:
        return super()._resident_total() + len(self._cache)
