"""Append/delete delta buffer with local rebalancing.

:class:`DeltaBuffer` is the write path of the service: updates are
buffered in memory (under the index's resident lease), then applied in
batches:

* operations are applied **in submission order** — runs of consecutive
  appends coalesce into one routed batch, but a delete submitted before
  an append never sees the appended record;
* **appends** are routed by one batched binary search over the splitter
  composites and written as new *overflow segments* of their target
  partitions — ``O(#touched + |batch|/B)`` write I/Os, no rewriting;
* **deletes** resolve the victim record by scanning the (at most two,
  for duplicate boundary keys) candidate partitions and tombstone its
  composite — the record dies logically at once and physically at the
  partition's next compaction;
* after a batch, every touched partition that drifted outside the
  ``[a, b]`` window is **locally** split (via in-memory splitters when
  it fits, external multi-partition otherwise) or merged with a
  neighbour (pure metadata);
* cumulative drift — updates applied since the last full build — above
  ``rebuild_threshold · N₀`` triggers one **full repartitioning**
  (traced as the ``svc-rebuild`` phase).

Queries flush the buffer automatically, so every answer reflects every
prior update.

Flush is **exception-safe**: whatever interrupts a flush — a failed
delete (:class:`SpecError`) or a simulated crash mid-I/O — the work
already applied is accounted (drift, rebalance) in a ``finally`` block,
unapplied operations are reinstated at the front of the buffer, and a
durable index logs exactly the applied subset to its write-ahead log
(never after a crash, so a torn flush is invisible to recovery).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_search
from ..em.errors import SpecError
from ..em.records import (
    UID_MAX,
    composite,
    composite_of,
    make_records,
)
from ..em.streams import BlockReader, BlockWriter
from ..obs.metrics import current_registry
from ..obs.recorder import current_recorder

if TYPE_CHECKING:  # pragma: no cover
    from .index import PartitionIndex

__all__ = ["DeltaBuffer"]


class DeltaBuffer:
    """Buffered updates against a :class:`~repro.service.index.PartitionIndex`.

    ``capacity`` bounds the number of buffered operations; reaching it
    flushes automatically (queries also flush).  The buffer's memory
    footprint is charged to the index's resident lease.
    """

    def __init__(self, index: "PartitionIndex", capacity: int | None = None):
        m = index._machine
        if capacity is None:
            capacity = max(m.B, m.M // 8)
        if capacity < 1:
            raise SpecError("delta buffer capacity must be >= 1")
        self._index = index
        self.capacity = int(capacity)
        #: Ordered operation log: ``("append", records)`` entries carry
        #: pre-assigned uids; ``("delete", key)`` entries resolve their
        #: victim at flush time.  Order is submission order.
        self._ops: list[tuple] = []
        self._n_appends = 0
        self._n_deletes = 0
        # Telemetry: share the index's registry so engine and write path
        # land in one export; ambient fallback covers stand-alone use.
        metrics = getattr(index, "_metrics", None) or current_registry()
        self._recorder = current_recorder()
        self._m_pending = metrics.gauge(
            "svc_pending_deltas", "buffered update operations awaiting flush"
        )
        self._m_flush_io = metrics.histogram(
            "svc_flush_io",
            "simulated I/O per flush by kind",
            labels=("kind",),
        ).labels(kind="update")
        updates = metrics.counter(
            "svc_updates", "applied update operations by kind", labels=("op",)
        )
        self._m_app = updates.labels(op="append")
        self._m_del = updates.labels(op="delete")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of buffered operations."""
        return self._n_appends + self._n_deletes

    @property
    def resident_records(self) -> int:
        """Records of machine memory the buffer occupies."""
        return self._n_appends + self._n_deletes

    @property
    def net_delta(self) -> int:
        """Pending change to the index's live size."""
        return self._n_appends - self._n_deletes

    def _recount(self) -> None:
        self._n_appends = sum(
            len(op[1]) for op in self._ops if op[0] == "append"
        )
        self._n_deletes = sum(1 for op in self._ops if op[0] == "delete")

    # ------------------------------------------------------------------
    def append_keys(self, keys) -> None:
        """Buffer new elements with the given keys (fresh uids)."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.size == 0:
            return
        recs = make_records(keys, uids=self._index._fresh_uids(len(keys)))
        self._ops.append(("append", recs))
        self._n_appends += len(recs)
        self._index._sync_resident()
        self._m_pending.set(len(self))
        if len(self) >= self.capacity:
            self.flush()

    def delete_key(self, key: int) -> None:
        """Buffer the deletion of one live element with key ``key``.

        The delete targets the state as of its position in the batch: a
        record appended *later* in the same batch is not a candidate.
        """
        self._ops.append(("delete", int(key)))
        self._n_deletes += 1
        self._index._sync_resident()
        self._m_pending.set(len(self))
        if len(self) >= self.capacity:
            self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> dict:
        """Apply every buffered update in order; returns flush statistics.

        A failed delete (key not present) raises :class:`SpecError`; the
        operations *before* it have been applied and accounted, the
        failed delete is dropped (retrying it can never succeed), and
        every operation after it is reinstated at the front of the
        buffer, so a subsequent flush completes the batch.  Any other
        exception (a crash) likewise accounts the applied prefix and
        reinstates the remainder — but nothing is logged to a durable
        index's write-ahead log, so recovery never sees a torn flush.
        """
        idx = self._index
        m = idx._machine
        ops, self._ops = self._ops, []
        self._recount()
        idx._sync_resident()
        touched: set[int] = set()
        applied: list[tuple] = []
        leftover: list[np.ndarray] = []
        crashed = False
        handled = False
        completed = False
        rebuilt = False
        n_app = n_del = 0
        pos = 0
        io_base = idx._life_io()
        try:
            try:
                with m.phase("svc-update"):
                    try:
                        while pos < len(ops):
                            if ops[pos][0] == "append":
                                run = [ops[pos][1]]
                                pos += 1
                                while (
                                    pos < len(ops) and ops[pos][0] == "append"
                                ):
                                    run.append(ops[pos][1])
                                    pos += 1
                                batch = (
                                    run[0]
                                    if len(run) == 1
                                    else m.kernel.concat(run)
                                )
                                self._apply_appends(
                                    batch, touched, applied, leftover
                                )
                            else:
                                key = ops[pos][1]
                                try:
                                    j, uid = self._apply_delete(key)
                                except SpecError:
                                    handled = True
                                    self._ops = ops[pos + 1 :] + self._ops
                                    raise
                                pos += 1
                                touched.add(j)
                                applied.append(("delete", (key, uid)))
                    except BaseException:
                        if not handled:
                            crashed = True
                            keep = [("append", a) for a in leftover if len(a)]
                            self._ops = keep + ops[pos:] + self._ops
                        raise
                    finally:
                        n_app = sum(
                            len(e[1]) for e in applied if e[0] == "append"
                        )
                        n_del = sum(1 for e in applied if e[0] == "delete")
                        idx._drift += n_app + n_del
                        idx._rebalance(touched)
                        if not crashed and applied:
                            idx._log_applied(applied)
            finally:
                self._recount()
                idx._sync_resident()
            idx.stats["update_flushes"] += 1
            if idx._drift > idx.rebuild_threshold * max(1, idx._n0):
                idx._rebuild()
                rebuilt = True
            idx._maybe_checkpoint()
            idx._sync_resident()
            completed = True
            return {
                "appended": n_app,
                "deleted": n_del,
                "touched_partitions": len(touched),
                "rebuilt": rebuilt,
            }
        finally:
            # Telemetry only — plain bookkeeping that cannot raise or
            # mask the in-flight exception; runs on crashed flushes too
            # so the flight recorder keeps the last pre-crash event.
            self._m_pending.set(len(self))
            self._m_app.inc(n_app)
            self._m_del.inc(n_del)
            idx._m_drift.set(idx._drift)
            self._m_flush_io.observe(idx._life_io() - io_base)
            self._recorder.record(
                "update-flush",
                appended=n_app,
                deleted=n_del,
                touched=len(touched),
                rebuilt=rebuilt,
                completed=completed,
            )

    # ------------------------------------------------------------------
    def replay_group(self, entries: list[tuple]) -> None:
        """Re-apply one committed WAL group during recovery.

        ``entries`` are ``("append", records)`` arrays carrying the
        exact uids the original run assigned, and ``("delete", (key,
        uid))`` resolved victims.  Accounting (drift, rebalance,
        rebuild threshold) follows the normal flush path so the
        recovered index keeps the same maintenance cadence; nothing is
        re-logged — the caller snapshots once replay completes.
        """
        idx = self._index
        m = idx._machine
        touched: set[int] = set()
        n_app = n_del = 0
        with m.phase("svc-update"):
            pos = 0
            while pos < len(entries):
                if entries[pos][0] == "append":
                    run = [entries[pos][1]]
                    pos += 1
                    while pos < len(entries) and entries[pos][0] == "append":
                        run.append(entries[pos][1])
                        pos += 1
                    batch = run[0] if len(run) == 1 else m.kernel.concat(run)
                    self._apply_appends(batch, touched, [], [])
                    n_app += len(batch)
                    hi = int(batch["uid"].max())
                    idx._next_uid = max(idx._next_uid, hi + 1)
                else:
                    key, uid = entries[pos][1]
                    pos += 1
                    touched.add(self._apply_delete_exact(key, uid))
                    n_del += 1
            idx._drift += n_app + n_del
            idx._rebalance(touched)
        idx.stats["update_flushes"] += 1
        if idx._drift > idx.rebuild_threshold * max(1, idx._n0):
            idx._rebuild()
        idx._sync_resident()

    # ------------------------------------------------------------------
    def _apply_appends(
        self,
        batch: np.ndarray,
        touched: set,
        applied: list,
        leftover: list,
    ) -> None:
        """Route ``batch`` to overflow segments, recording progress.

        Per-partition state (segments, stored counts, ``_n_live``) and
        the ``applied`` log advance incrementally, so an exception after
        some partitions were written leaves the index consistent with
        exactly the records marked applied; the unwritten remainder of
        the batch is appended to ``leftover`` for reinstatement.
        """
        idx = self._index
        m = idx._machine
        splitters = idx._splitters
        comps = composite(batch)
        j_of = np.searchsorted(splitters, comps, side="left")
        cmp_search(m, len(batch), max(1, len(splitters)))
        done = np.zeros(len(batch), dtype=bool)
        try:
            for j in np.unique(j_of):
                sel = j_of == j
                recs = batch[sel]
                part = idx._parts[int(j)]
                writer = BlockWriter(m, "svc-append")
                try:
                    writer.write(recs)
                    seg = writer.close()
                except BaseException:
                    writer.abort()
                    raise
                part.segments.append(seg)
                part.stored += len(recs)
                idx._n_live += len(recs)
                touched.add(int(j))
                applied.append(("append", recs))
                done |= sel
        except BaseException:
            leftover.append(batch[~done])
            raise

    def _candidates(self, key: int) -> range:
        """Partitions that may hold ``key``: duplicates of a splitter key
        can straddle a partition boundary."""
        idx = self._index
        splitters = idx._splitters
        j_lo = int(np.searchsorted(splitters, composite_of(key, 0), "left"))
        j_hi = int(np.searchsorted(splitters, composite_of(key, UID_MAX), "left"))
        cmp_search(idx._machine, 2, max(1, len(splitters)))
        return range(j_lo, min(j_hi, len(idx._parts) - 1) + 1)

    def _apply_delete(self, key: int) -> tuple[int, int]:
        """Tombstone one live record with ``key``.

        Returns ``(partition, uid)`` of the victim — the uid is what a
        durable index logs so that recovery replays the *same* victim
        regardless of how the rebuilt index is laid out.  Duplicate keys
        equal to a splitter key can straddle a partition boundary, so
        every candidate partition between the key's lowest and highest
        possible composite is scanned until a live victim is found.
        The tombstone's resident memory is leased before it lands, so a
        denied lease leaves the delete unapplied (and reinstated by
        :meth:`flush`) rather than applied but unrecorded.
        """
        idx = self._index
        m = idx._machine
        for j in self._candidates(key):
            part = idx._parts[j]
            for seg in part.segments:
                with BlockReader(seg, "svc-delete-scan") as reader:
                    for block in reader:
                        cmp_linear(m, len(block))
                        hits = block[block["key"] == key]
                        for rec in hits:
                            c = composite_of(int(rec["key"]), int(rec["uid"]))
                            if c not in part.tombstones:
                                # flush() synced the lease and only
                                # tombstones grow it, so lease exactly one
                                # more record.
                                idx._resident.resize(idx._resident.size + 1)
                                part.tombstones.add(c)
                                idx._n_live -= 1
                                return j, int(rec["uid"])
        raise SpecError(f"delete: no live element with key {key}")

    def _apply_delete_exact(self, key: int, uid: int) -> int:
        """Tombstone the exact record ``(key, uid)``; returns its partition.

        WAL replay applies the victim the original run resolved, so the
        rebuilt index tombstones the same element even when its partition
        layout diverged from the crashed process's.
        """
        idx = self._index
        m = idx._machine
        c = composite_of(int(key), int(uid))
        for j in self._candidates(key):
            part = idx._parts[j]
            if c in part.tombstones:
                continue
            for seg in part.segments:
                with BlockReader(seg, "svc-delete-scan") as reader:
                    for block in reader:
                        cmp_linear(m, len(block))
                        if bool(np.any(composite(block) == c)):
                            part.tombstones.add(c)
                            idx._n_live -= 1
                            idx._sync_resident()
                            return j
        raise SpecError(f"replay delete: no live element ({key}, {uid})")
