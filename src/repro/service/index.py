"""Partition index: approximate K-splitters kept live for queries.

:class:`PartitionIndex` keeps an approximate K-partitioning of an
:class:`~repro.em.file.EMFile` as an ordered list of partitions plus
their splitter composites, and serves:

* ``select(rank)`` / ``batch_select(ranks)`` / ``quantile(q)`` — the
  record(s) at given rank(s): ``O(log K)`` comparisons over the
  cumulative live sizes to locate the partition, then one partition
  load (``O(b/B)`` I/Os) shared by every rank landing in it;
* ``range_count(lo, hi)`` — elements with key in ``(lo, hi]``: interior
  partitions are counted from live sizes for free, and each partition
  holding an end of the range is scanned once;
* ``partition_of(key)`` — pure in-memory binary search.

:meth:`PartitionIndex.build` materializes the whole partitioning at once
(two-sided window ``[a, b]`` with ``b/a = (1+slack)²``);
:class:`~repro.service.online.LazyPartitionIndex` starts from one
partition and refines only where queries land.  The resident control
state (one record per splitter, partition, tombstone, pending update
and cached answer) is held under one ``svc-resident`` machine memory
lease, so the simulator's budget accounting covers the service like any
other algorithm.  Updates arrive through
:class:`repro.service.updates.DeltaBuffer` (see
:meth:`PartitionIndex.append` / :meth:`PartitionIndex.delete`) and are
flushed automatically before any query, so answers always reflect every
prior update.  A closed or abandoned index refuses every query with
:class:`~repro.em.errors.SpecError`.

The partition convention matches the paper throughout: partition ``j``
holds the composites in ``(s_{j-1}, s_j]``, where ``s_j`` bounds
partition ``j`` from above (its largest composite after a build).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_search, cmp_sort
from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import (
    UID_MAX,
    composite,
    composite_of,
    empty_records,
)
from ..em.streams import BlockReader, BlockWriter
from ..alg.inmemory import select_at_ranks
from ..alg.multipartition import multi_partition
from ..core.multiselect import multi_select
from ..core.partitioning import approximate_partition
from ..core.spec import validate_params
from ..apps.order_stats import rank_of_fraction
from ..obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine
    from .updates import DeltaBuffer

__all__ = ["PartitionIndex"]


def _near_equal(total: int, pieces: int) -> list[int]:
    """Split ``total`` into ``pieces`` sizes differing by at most one."""
    base, extra = divmod(total, pieces)
    return [base + (1 if i < extra else 0) for i in range(pieces)]


class _Partition:
    """One live partition: disk segments plus in-memory tombstones.

    ``stored`` counts records on disk including tombstoned ones; ``live``
    is the partition's logical size.  Tombstones are the composites of
    deleted records, applied lazily at the next compaction.
    """

    __slots__ = ("segments", "stored", "tombstones")

    def __init__(self, segments: list[EMFile], stored: int, tombstones=None):
        self.segments = segments
        self.stored = stored
        self.tombstones: set[int] = tombstones if tombstones is not None else set()

    @property
    def live(self) -> int:
        return self.stored - len(self.tombstones)


class PartitionIndex:
    """A live approximate-K-partition index over one machine's disk.

    Build with :meth:`build`; the index owns its partition segments (the
    input file is left intact and may be freed by the caller).
    :class:`~repro.service.online.LazyPartitionIndex` starts the same
    engine from one partition instead.  Use as a context manager or call
    :meth:`close` to release disk and memory.
    """

    #: ``engine`` label of the ``svc_query_io`` histogram.
    _ENGINE = "eager"

    def __init__(
        self,
        machine: "Machine",
        k: int,
        slack: float = 1.0,
        rebuild_threshold: float = 0.5,
    ) -> None:
        if slack <= 0:
            raise SpecError("service slack must be positive")
        if rebuild_threshold <= 0:
            raise SpecError("rebuild threshold must be positive")
        self._machine = machine
        self._k0 = int(k)
        self.slack = float(slack)
        self.rebuild_threshold = float(rebuild_threshold)
        self.a = 1
        self.b = 1
        self._target = 1
        self._parts: list[_Partition] = []
        self._splitters = np.empty(0, dtype=np.int64)
        self._n_live = 0
        self._n0 = 0
        self._drift = 0
        self._next_uid = 0
        self._delta: "DeltaBuffer | None" = None
        self._resident = machine.memory.lease(0, "svc-resident")
        self._closed = False
        self.stats = {
            "splits": 0,
            "merges": 0,
            "rebuilds": 0,
            "compactions": 0,
            "update_flushes": 0,
        }
        # Telemetry: bound to the ambient registry at construction.
        # Bookkeeping reads only lifetime counters / plain ints — no
        # model charge flows through any instrument.
        metrics = self._metrics = current_registry()
        self._m_query_io = metrics.histogram(
            "svc_query_io",
            "per-query attributed simulated I/O (block transfers)",
            labels=("engine",),
        ).labels(engine=self._ENGINE)
        self._m_drift = metrics.gauge(
            "svc_drift", "updates applied since the last (re)build"
        )
        self._m_maint = metrics.counter(
            "svc_maintenance",
            "partition maintenance operations by kind",
            labels=("op",),
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        machine: "Machine",
        file: EMFile,
        k: int,
        slack: float = 1.0,
        rebuild_threshold: float = 0.5,
    ) -> "PartitionIndex":
        """Build an index over ``file`` with ``<= k`` partitions.

        Costs one approximate K-partitioning (Theorem 6 two-sided) plus
        one scan to extract the splitter composites.  ``slack`` sets the
        size window ``a = ⌊(N/K)/(1+slack)⌋``, ``b = ⌈(N/K)·(1+slack)⌉``;
        the default ``slack = 1`` gives ``b ≥ 2a``, which is what keeps
        local split/merge rebalancing stable under updates.
        """
        if k < 1:
            raise SpecError("need k >= 1")
        idx = cls(machine, k, slack=slack, rebuild_threshold=rebuild_threshold)
        idx._install(file, k, free_input=False)
        return idx

    def _install(self, file: EMFile, k: int, free_input: bool) -> None:
        """(Re)build all partitions from ``file``; resets drift.

        Nothing of the index changes unless the partitioning succeeds,
        so a refused rebuild leaves the old partitions serving.
        """
        m = self._machine
        n = len(file)
        k = max(1, min(int(k), max(1, n)))
        per = max(1.0, n / k)
        a = max(1, int(per / (1 + self.slack)))
        b = max(a + 1, int(math.ceil(per * (1 + self.slack))))
        parts = [_Partition([], 0)]
        maxima: list[int] = []
        max_uid = -1
        if n:
            validate_params(n, k, a, b)
            with m.phase("svc-build"):
                pf = approximate_partition(m, file, k, a, b)
                parts = [
                    _Partition(pf.segments_of(p), pf.partition_sizes[p])
                    for p in range(pf.num_partitions)
                ]
                # One scan extracts the splitter composites (the max
                # composite of every partition) and the uid high-water
                # mark for appends.
                try:
                    for part in parts:
                        part_max = -(1 << 62)
                        for seg in part.segments:
                            with BlockReader(seg, "svc-build-splitters") as reader:
                                for block in reader:
                                    cmp_linear(m, 2 * len(block))
                                    top = int(composite(block).max())
                                    part_max = max(part_max, top)
                                    max_uid = max(max_uid, int(block["uid"].max()))
                        maxima.append(part_max)
                except BaseException:
                    pf.free()
                    raise
        self._target = max(1, int(round(per)))
        self.a, self.b = a, b
        self._n0 = n
        self._drift = 0
        self._m_drift.set(0)
        self._parts = parts
        self._splitters = np.array(maxima[:-1], dtype=np.int64)
        self._n_live = n
        self._next_uid = max(self._next_uid, max_uid + 1)
        if free_input:
            file.free()
        self._sync_resident()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        """Logical number of records (pending updates included)."""
        pending = self._delta.net_delta if self._delta is not None else 0
        return self._n_live + pending

    @property
    def num_partitions(self) -> int:
        return len(self._parts)

    @property
    def drift(self) -> int:
        """Updates applied since the last (re)build."""
        return self._drift

    def partition_sizes(self) -> list[int]:
        """Live size of every partition (pending updates not flushed)."""
        return [p.live for p in self._parts]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, rank: int):
        """The record of 1-based ``rank`` in composite order."""
        return self.batch_select(np.array([rank], dtype=np.int64))[0]

    def quantile(self, q: float):
        """The record at the ``q``-quantile (nearest rank)."""
        self._ready()
        if self._n_live == 0:
            raise SpecError("quantile of an empty index")
        return self.select(rank_of_fraction(self._n_live, q))

    def batch_select(self, ranks) -> np.ndarray:
        """Records at the given 1-based ``ranks`` (aligned; duplicates OK).

        Deduplicates internally: ranks are located by the cumulative
        live sizes, and each distinct partition touched is loaded (or
        scanned) exactly once per call, however many ranks land in it.
        """
        self._ready()
        m = self._machine
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return empty_records(0)
        n = self._n_live
        if n == 0:
            raise SpecError("select on an empty index")
        if ranks.min() < 1 or ranks.max() > n:
            raise SpecError(f"ranks must lie in [1, {n}]")
        unique, inverse = np.unique(ranks, return_inverse=True)
        dup = np.bincount(inverse, minlength=len(unique))
        out = empty_records(len(unique))
        todo = self._from_cache(unique, dup, out)
        ends = self._live_ends()
        with m.phase("svc-select"):
            i = 0
            while i < len(todo):
                io_base = self._life_io()
                j, ends = self._locate(int(unique[todo[i]]), ends)
                below = int(ends[j - 1]) if j > 0 else 0
                # Unique ranks are sorted, so the ranks sharing
                # partition j are the consecutive run up to its end.
                stop = i + int(
                    np.searchsorted(unique[todo[i:]], ends[j], side="right")
                )
                group = todo[i:stop]
                out[group] = self._select_in_partition(j, unique[group] - below)
                self._remember(unique[group], out[group])
                # Attribute the partition load evenly over the queries
                # it answered (duplicates included); observations sum
                # back to the exact lifetime delta.
                served = int(dup[group].sum())
                spent = self._life_io() - io_base
                self._m_query_io.observe(spent / served, count=served)
                i = stop
        return out[inverse]

    def range_count(self, lo_key: int, hi_key: int) -> int:
        """Number of live elements with key in ``(lo_key, hi_key]``.

        Partitions wholly inside the range are counted from their live
        sizes (free); each partition the range ends inside is scanned
        once, even when both ends fall in the same one.
        """
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        self._ready()
        if self._n_live == 0:
            return 0
        m = self._machine
        lo_c = composite_of(lo_key, UID_MAX)
        hi_c = composite_of(hi_key, UID_MAX)
        s = self._splitters
        # Partition j holds (s[j-1], s[j]]; j_lo..j_hi meet the range.
        j_lo = int(np.searchsorted(s, lo_c, side="right"))
        j_hi = int(np.searchsorted(s, hi_c, side="left"))
        cmp_search(m, 2, max(1, len(s)))
        total = 0
        with m.phase("svc-range"):
            for j in range(j_lo, j_hi + 1):
                cut_lo = j == j_lo and (j == 0 or s[j - 1] != lo_c)
                cut_hi = j == j_hi and (j == len(s) or s[j] != hi_c)
                if cut_lo or cut_hi:
                    total += self._count_between(
                        self._parts[j],
                        lo_c if cut_lo else None,
                        hi_c if cut_hi else None,
                    )
                else:
                    total += self._parts[j].live
        return total

    def partition_of(self, key: int) -> int:
        """Index of the first partition that may contain ``key`` —
        ``O(log K)`` comparisons, zero I/O."""
        self._ready()
        j = int(
            np.searchsorted(self._splitters, composite_of(key, 0), side="left")
        )
        cmp_search(self._machine, 1, max(1, len(self._splitters)))
        return j

    def _ready(self) -> None:
        """Refuse queries on a closed index; apply buffered updates."""
        if self._closed:
            raise SpecError("query on a closed index")
        self._flush_updates()

    def _live_ends(self) -> np.ndarray:
        """Cumulative live sizes: partition j holds ranks
        ``(ends[j-1], ends[j]]``."""
        return np.cumsum([p.live for p in self._parts], dtype=np.int64)

    def _locate(self, rank: int, ends: np.ndarray) -> tuple[int, np.ndarray]:
        """The partition holding ``rank``, and the ``ends`` it was found
        in (a subclass that reshapes partitions returns fresh ends)."""
        cmp_search(self._machine, 1, len(ends))
        return int(np.searchsorted(ends, rank, side="left")), ends

    def _from_cache(self, unique, dup, out) -> np.ndarray:
        """Positions of ``unique`` still to answer; a caching subclass
        fills ``out`` for the rest.  The base index caches nothing."""
        return np.arange(len(unique))

    def _remember(self, ranks: np.ndarray, recs: np.ndarray) -> None:
        """Offer freshly answered ranks to a cache (none here)."""

    # ------------------------------------------------------------------
    # Updates (delegated to the delta buffer)
    # ------------------------------------------------------------------
    def append(self, keys) -> None:
        """Buffer new elements with the given keys (fresh uids assigned)."""
        self._buffer().append_keys(keys)

    def delete(self, key: int) -> None:
        """Buffer the deletion of one live element with key ``key``."""
        self._buffer().delete_key(key)

    def flush_updates(self) -> dict | None:
        """Apply all buffered updates now; returns flush stats (or None)."""
        if self._delta is not None and len(self._delta):
            return self._delta.flush()
        return None

    def _buffer(self) -> "DeltaBuffer":
        if self._delta is None:
            from .updates import DeltaBuffer

            self._delta = DeltaBuffer(self)
        return self._delta

    def _flush_updates(self) -> None:
        if self._delta is not None and len(self._delta):
            self._delta.flush()

    def _fresh_uids(self, count: int) -> np.ndarray:
        start = self._next_uid
        if start + count - 1 > UID_MAX:
            raise SpecError("uid space exhausted")
        self._next_uid = start + count
        return np.arange(start, start + count, dtype=np.int64)

    # ------------------------------------------------------------------
    # Durability hooks (no-ops on the volatile base index)
    # ------------------------------------------------------------------
    def _log_applied(self, entries: list[tuple]) -> None:
        """Called by the delta buffer with the applied operations of a
        successful (non-crashed) flush.  The base index is volatile."""

    def _maybe_checkpoint(self) -> None:
        """Called after every completed flush; a durable index may take
        a snapshot here.  The base index is volatile."""

    def _discard_segment(self, seg: EMFile) -> None:
        """Release a segment that left the index (compaction, split,
        rebuild).  A durable index defers the free until the next
        snapshot commits, because the latest on-disk snapshot may still
        reference these blocks."""
        seg.free()

    # ------------------------------------------------------------------
    # Partition access
    # ------------------------------------------------------------------
    @staticmethod
    def _footprint(part: _Partition) -> int:
        """Buffer records needed to load the partition (whole blocks)."""
        return sum(
            seg.num_blocks * seg.machine.B for seg in part.segments
        )

    def _select_in_partition(self, j: int, local_ranks: np.ndarray) -> np.ndarray:
        """Records at 1-based ``local_ranks`` within partition ``j``."""
        m = self._machine
        part = self._parts[j]
        if self._footprint(part) > m.load_limit:
            self._compact(j)
        if self._footprint(part) <= m.load_limit:
            return self._load_select(part, local_ranks)
        # Oversized even when compacted (only possible for b >> M):
        # fall back to external multi-selection on the single segment.
        return np.asarray(multi_select(m, part.segments[0], local_ranks))

    def _load_select(self, part: _Partition, local_ranks: np.ndarray) -> np.ndarray:
        """Load ``part`` whole under a lease and select in memory."""
        m = self._machine
        with m.memory.lease(self._footprint(part), "svc-partition-load"):
            recs = self._read_segments(part.segments)
            if part.tombstones:
                recs = self._drop_dead(recs, self._tomb_array(part))
            return select_at_ranks(m, recs, local_ranks)

    def _read_segments(self, segments: list[EMFile]) -> np.ndarray:
        """Counted read of all segments into memory (caller holds lease)."""
        parts = [seg.read_range(0, seg.num_blocks) for seg in segments if len(seg)]
        return parts[0] if len(parts) == 1 else self._machine.kernel.concat(parts)

    def _drop_dead(self, recs: np.ndarray, tomb: np.ndarray | None) -> np.ndarray:
        """``recs`` without the records whose composite is in ``tomb``."""
        if tomb is None or not len(tomb):
            return recs
        comps = composite(recs)
        cmp_search(self._machine, len(recs), len(tomb))
        pos = np.minimum(np.searchsorted(tomb, comps), len(tomb) - 1)
        return recs[tomb[pos] != comps]

    @staticmethod
    def _tomb_array(part: _Partition) -> np.ndarray:
        tomb = np.fromiter(
            part.tombstones, dtype=np.int64, count=len(part.tombstones)
        )
        tomb.sort()
        return tomb

    def _count_between(self, part: _Partition, lo_c, hi_c) -> int:
        """Live records of ``part`` with composite in ``(lo_c, hi_c]`` —
        one scan, one comparison per record per bound (``None`` = no
        bound on that side)."""
        m = self._machine
        bounds = (lo_c is not None) + (hi_c is not None)
        count = 0
        for seg in part.segments:
            with BlockReader(seg, "svc-range-scan") as reader:
                for block in reader:
                    cmp_linear(m, bounds * len(block))
                    comps = composite(block)
                    inside = np.ones(len(comps), dtype=bool)
                    if lo_c is not None:
                        inside &= comps > lo_c
                    if hi_c is not None:
                        inside &= comps <= hi_c
                    count += int(inside.sum())
        if part.tombstones:
            tomb = self._tomb_array(part)
            cmp_search(m, bounds, len(tomb))
            lo = 0 if lo_c is None else np.searchsorted(tomb, lo_c, "right")
            hi = len(tomb) if hi_c is None else np.searchsorted(tomb, hi_c, "right")
            count -= int(hi - lo)
        return count

    # ------------------------------------------------------------------
    # Maintenance (compaction, split, merge, rebuild)
    # ------------------------------------------------------------------
    def _write_live(self, writer: BlockWriter, part: _Partition) -> None:
        """Stream a partition's live records into ``writer``."""
        tomb = self._tomb_array(part) if part.tombstones else None
        for seg in part.segments:
            with BlockReader(seg, "svc-compact-in") as reader:
                for block in reader:
                    writer.write(self._drop_dead(block, tomb))

    def _compact(self, j: int) -> None:
        """Rewrite partition ``j`` as one segment, applying tombstones."""
        part = self._parts[j]
        if len(part.segments) <= 1 and not part.tombstones:
            return
        m = self._machine
        with m.phase("svc-compact"):
            writer = BlockWriter(m, "svc-compact-out")
            try:
                self._write_live(writer, part)
                out = writer.close()
            except BaseException:
                writer.abort()
                raise
        for seg in part.segments:
            self._discard_segment(seg)
        if len(out):
            part.segments = [out]
        else:
            out.free()
            part.segments = []
        part.stored = len(out)
        part.tombstones = set()
        self.stats["compactions"] += 1
        self._m_maint.labels(op="compaction").inc()
        self._sync_resident()

    def _rebalance(self, touched) -> None:
        """Restore the ``[a, b]`` window for every touched partition.

        Processes indices in descending order so splices at index ``j``
        never invalidate a later (smaller) index.
        """
        for j in sorted(set(touched), reverse=True):
            if j >= len(self._parts):
                continue
            part = self._parts[j]
            if part.live > self.b:
                self._split(j)
            elif part.live < self.a and len(self._parts) > 1:
                self._merge(j)

    def _split(self, j: int) -> None:
        """Split partition ``j`` into near-target-size pieces."""
        m = self._machine
        with m.phase("svc-rebalance"):
            self._compact(j)
            part = self._parts[j]
            live = part.stored
            pieces = max(2, int(round(live / self._target)))
            sizes = _near_equal(live, pieces)
            if self._footprint(part) <= m.load_limit:
                new_parts, maxima = self._split_in_memory(part, sizes)
            else:
                new_parts, maxima = self._split_external(part, sizes)
        self.stats["splits"] += 1
        self._m_maint.labels(op="split").inc()
        self._splice(j, new_parts, maxima[:-1])

    def _splice(self, j: int, new_parts: list[_Partition], splitters) -> None:
        """Replace partition ``j`` by ``new_parts`` separated by
        ``splitters`` (one fewer), releasing ``j``'s segments."""
        old_segments = self._parts[j].segments
        self._parts[j : j + 1] = new_parts
        self._splitters = np.concatenate(
            [
                self._splitters[:j],
                np.asarray(splitters, dtype=np.int64),
                self._splitters[j:],
            ]
        )
        for seg in old_segments:
            self._discard_segment(seg)
        self._sync_resident()

    def _split_in_memory(self, part: _Partition, sizes: list[int]):
        m = self._machine
        with m.memory.lease(self._footprint(part), "svc-split-load"):
            recs = self._read_segments(part.segments)
            cmp_sort(m, len(recs))
            recs = m.kernel.sort_by_composite(recs)
            new_parts: list[_Partition] = []
            maxima: list[int] = []
            off = 0
            for s in sizes:
                piece = recs[off : off + s]
                off += s
                writer = BlockWriter(m, "svc-split-out")
                try:
                    writer.write(piece)
                    f = writer.close()
                except BaseException:
                    writer.abort()
                    raise
                new_parts.append(_Partition([f], s))
                maxima.append(int(composite(piece[-1:])[0]))
        return new_parts, maxima

    def _split_external(self, part: _Partition, sizes: list[int]):
        m = self._machine
        pf = multi_partition(m, part.segments[0], sizes)
        new_parts: list[_Partition] = []
        maxima: list[int] = []
        for p in range(pf.num_partitions):
            segs = pf.segments_of(p)
            piece_max = -(1 << 62)
            for seg in segs:
                with BlockReader(seg, "svc-split-scan") as reader:
                    for block in reader:
                        cmp_linear(m, len(block))
                        piece_max = max(piece_max, int(composite(block).max()))
            new_parts.append(_Partition(segs, pf.partition_sizes[p]))
            maxima.append(piece_max)
        return new_parts, maxima

    def _merge(self, j: int) -> None:
        """Merge undersized partition ``j`` with its smaller neighbour.

        Pure metadata (zero I/O): segment lists concatenate and one
        splitter disappears.  Keeps absorbing neighbours while the union
        stays under ``a`` (mass deletes), and re-splits if it overshoots
        ``b``.
        """
        parts = self._parts
        while len(parts) > 1 and parts[j].live < self.a:
            if j == 0:
                nb = 1
            elif j == len(parts) - 1:
                nb = j - 1
            else:
                nb = j - 1 if parts[j - 1].live <= parts[j + 1].live else j + 1
            lo, hi = min(j, nb), max(j, nb)
            merged = _Partition(
                parts[lo].segments + parts[hi].segments,
                parts[lo].stored + parts[hi].stored,
                parts[lo].tombstones | parts[hi].tombstones,
            )
            parts[lo : hi + 1] = [merged]
            self._splitters = np.delete(self._splitters, lo)
            self.stats["merges"] += 1
            self._m_maint.labels(op="merge").inc()
            j = lo
            if merged.live > self.b:
                self._split(lo)
                break
        self._sync_resident()

    def _rebuild(self) -> None:
        """Full repartitioning from the live records (drift exceeded)."""
        m = self._machine
        with m.phase("svc-rebuild"):
            writer = BlockWriter(m, "svc-rebuild-stage")
            try:
                for part in self._parts:
                    self._write_live(writer, part)
                stage = writer.close()
            except BaseException:
                writer.abort()
                raise
            old = [seg for part in self._parts for seg in part.segments]
            try:
                self._install(stage, self._k0, free_input=True)
            except BaseException:
                stage.free()
                raise
            for seg in old:
                self._discard_segment(seg)
        self.stats["rebuilds"] += 1
        self._m_maint.labels(op="rebuild").inc()

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def _life_io(self) -> int:
        """Lifetime I/O total — the metrics attribution baseline.

        Lifetime counters are public and survive ``reset_counters``, so
        reading them here charges nothing to the model (same contract
        the tracer's conservation check relies on).
        """
        life = self._machine.disk.lifetime
        return life.reads + life.writes

    def _resident_total(self) -> int:
        """Records of control state held resident (lease size)."""
        total = len(self._splitters) + len(self._parts)
        total += sum(len(p.tombstones) for p in self._parts)
        if self._delta is not None:
            total += self._delta.resident_records
        return total

    def _sync_resident(self) -> None:
        """Size the resident lease to the control state actually held."""
        self._resident.resize(self._resident_total())

    def check_invariants(self) -> bool:
        """Verify structural invariants (uncounted; tests only).

        Checks splitter monotonicity, per-partition composite ranges,
        tombstone containment, size bookkeeping, and — whenever more
        than one partition exists — the ``[a, b]`` window.
        """
        assert len(self._splitters) == max(0, len(self._parts) - 1)
        if len(self._splitters) > 1:
            assert bool(np.all(np.diff(self._splitters) > 0))
        total = 0
        with self._machine.uncounted():  # emlint: disable=R2 — invariant checker, tests only
            for j, part in enumerate(self._parts):
                assert part.live >= 0
                assert sum(len(s) for s in part.segments) == part.stored
                total += part.live
                recs = [s.to_numpy(counted=False) for s in part.segments]  # emlint: disable=R2 — invariant checker, tests only
                comps = (
                    np.concatenate([composite(r) for r in recs])
                    if recs
                    else np.empty(0, dtype=np.int64)
                )
                if j > 0 and len(comps):
                    assert comps.min() > self._splitters[j - 1]
                if j < len(self._parts) - 1 and len(comps):
                    assert comps.max() <= self._splitters[j]
                assert part.tombstones <= set(int(c) for c in comps)
                if len(self._parts) > 1:
                    assert self.a <= part.live <= self.b
        assert total == self._n_live
        return True

    def abandon(self) -> None:
        """Drop the in-memory handle without freeing any disk blocks.

        Simulates process death: every lease is released (memory
        vanishes with the process) but the partition segments stay
        allocated on disk.  Only meaningful for a durable index — the
        blocks are reachable again through its manifest — but defined
        here so crash tests can abandon a volatile shadow too.
        """
        if self._closed:
            return
        self._parts = []
        self._splitters = np.empty(0, dtype=np.int64)
        self._n_live = 0
        self._delta = None
        if not self._resident.released:
            self._resident.release()
        self._closed = True

    def close(self) -> None:
        """Free every partition segment and release the resident lease."""
        if self._closed:
            return
        for part in self._parts:
            for seg in part.segments:
                self._discard_segment(seg)
        PartitionIndex.abandon(self)

    def __enter__(self) -> "PartitionIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
