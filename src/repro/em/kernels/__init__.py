"""The data-movement kernel: the *movement* half of the simulator.

The EM layer splits every hot operation into two halves:

* **accounting** — I/O charges, phase attribution, comparison counts,
  access traces, lease bookkeeping.  This is the scientific quantity the
  paper's claims are checked against; it lives in
  :class:`~repro.em.disk.Disk` / :class:`~repro.em.machine.Machine` and
  is guarded by emlint and the strict sanitizer.  The kernel never
  touches it.
* **movement** — the numpy work that actually shuffles record bytes:
  gathering blocks into a contiguous array, scattering a batch payload
  back into blocks, concatenating record parts, sorting by the
  composite order, bucketing against pivots, grouping a chunk by
  destination bucket, and rank-partitioning a memory load.  This half
  is *pure* (no counters, no model state).

There is one :class:`Kernel` and one shared instance, returned by
:func:`get_kernel`; every :class:`~repro.em.disk.Disk` resolves it when
it is constructed, and algorithm code reaches it as ``machine.kernel``
(emlint rule R6).  Its four movement strategies are:

* **arena-run gather** — blocks written in one ``write_many`` batch
  share a physical arena at consecutive offsets (the ``origin`` hints
  kept by the disk).  A gather coalesces maximal runs of adjacent
  blocks and moves each run with a single numpy slice copy instead of
  one copy per block;
* **single-arena scatter** — a batch write copies its payload once and
  stores per-block *views* into that arena, so the blocks it creates
  are themselves a coalescible run for later gathers;
* **preallocated concat** — preallocate and slice-assign instead of
  ``np.concatenate``, which re-promotes the structured field dtypes per
  input part;
* **fused grouping** — one stable argsort take groups every bucket at
  once, instead of one mask pass per bucket.

The per-block reference strategy lives on only as
:class:`~repro.em.kernels.numpy_v1.NumpyV1Kernel`, which the
differential tests substitute for the shared instance to prove the
movement strategies byte-identical, counter-, phase- and
trace-identical.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..records import RECORD_DTYPE, composite, concat_records, sort_records

__all__ = ["Kernel", "get_kernel"]


class Kernel:
    """The movement operations, each with its canonical semantics.

    Every output is defined byte for byte — ordering guarantees
    included (grouping preserves input order within a bucket, sorting
    is the stable argsort of the composite, rank partitions apply
    ``np.argpartition`` with the given ``kth`` list) — so a substitute
    that overrides a movement op must reproduce it exactly.
    """

    #: Label reported by perfbench's host facts and the speed gate.
    name = "vectorized_v2"

    # ------------------------------------------------------------------
    # Block movement (Disk.read_many / write_many delegate here *after*
    # validating ids and charging the model cost)
    # ------------------------------------------------------------------
    def gather_blocks(
        self,
        blocks: dict[int, np.ndarray],
        origin: dict[int, tuple[np.ndarray, int]],
        block_ids: Sequence[int],
    ) -> np.ndarray:
        """Concatenate the stored blocks ``block_ids`` (non-empty, all
        validated by the caller) into one fresh array.

        ``origin`` maps a block id to its ``(arena, record_offset)``
        physical layout hint; the output equals the blocks' records
        concatenated in the given order.
        """
        # Coalesce maximal runs of blocks physically adjacent in one
        # arena; each run then moves with a single slice copy.
        runs: list[tuple[np.ndarray, int, int]] = []  # (arena, offset, records)
        total = 0
        run_arena: np.ndarray | None = None
        run_off = 0  # record offset of the run's start in its arena
        run_len = 0  # records accumulated in the current run
        for bid in block_ids:
            b = blocks[bid]
            o = origin.get(bid)
            if o is None:
                arena, off = b, 0
            else:
                arena, off = o
            nb = len(b)
            if run_arena is arena and off == run_off + run_len:
                run_len += nb
            else:
                if run_arena is not None:
                    runs.append((run_arena, run_off, run_len))
                run_arena, run_off, run_len = arena, off, nb
            total += nb
        runs.append((run_arena, run_off, run_len))
        out = np.empty(total, dtype=RECORD_DTYPE)
        pos = 0
        for arena, off, n in runs:
            out[pos : pos + n] = arena[off : off + n]
            pos += n
        return out

    def scatter_blocks(
        self,
        blocks: dict[int, np.ndarray],
        origin: dict[int, tuple[np.ndarray, int]],
        block_ids: Sequence[int],
        data: np.ndarray,
        block_size: int,
    ) -> None:
        """Store the concatenated payload ``data`` into ``block_ids``
        (block ``i`` receives ``data[i*B:(i+1)*B]``; the last block the
        remainder), updating ``origin`` for each stored block.

        The caller has validated ids and payload shape and charged the
        writes; the kernel copies ``data`` (stored blocks never alias
        caller memory) and leaves ``blocks[bid]`` readable independently
        of the others.
        """
        B = block_size
        buf = data.copy()  # one copy for the whole batch — the arena
        for i, bid in enumerate(block_ids):
            off = i * B
            blocks[bid] = buf[off : off + B]
            origin[bid] = (buf, off)

    # ------------------------------------------------------------------
    # Record concatenation
    # ------------------------------------------------------------------
    def concat(self, parts: list[np.ndarray]) -> np.ndarray:
        """Concatenate record arrays into a fresh array (empty list →
        empty record array; a single part is still copied)."""
        return concat_records(parts)

    # ------------------------------------------------------------------
    # Batch comparisons (charging stays with the caller via
    # em.comparisons)
    # ------------------------------------------------------------------
    def sort_by_composite(self, records: np.ndarray) -> np.ndarray:
        """Records sorted by the ``(key, uid)`` total order — the stable
        argsort of the composite (a fresh array)."""
        return sort_records(records)

    def bucket_of(
        self, records: np.ndarray, pivot_composites: np.ndarray
    ) -> np.ndarray:
        """Bucket index of each record against sorted pivot composites:
        ``#{pivots < record}`` (a record equal to pivot ``p_i`` lands in
        bucket ``i`` — the paper's ``(p_{i-1}, p_i]`` convention)."""
        return np.searchsorted(
            pivot_composites, composite(records), side="left"
        )

    def partition_at(self, records: np.ndarray, kth0: np.ndarray) -> np.ndarray:
        """Records permuted so each 0-based boundary in ``kth0`` holds
        its order statistic (one ``np.argpartition`` multi-pivot pass;
        ``kth0`` must be the deduplicated, in-range boundary list)."""
        order = np.argpartition(composite(records), kth0)
        return records[order]

    def rank_order(self, records: np.ndarray, kth0: np.ndarray) -> np.ndarray:
        """The ``np.argpartition`` permutation itself, for callers that
        need to map positions back to input indices."""
        return np.argpartition(composite(records), kth0)

    # ------------------------------------------------------------------
    # Bucket distribution
    # ------------------------------------------------------------------
    def group_by_bucket(
        self, records: np.ndarray, bucket_idx: np.ndarray
    ) -> Iterable[tuple[int, np.ndarray]]:
        """Group ``records`` by their ``bucket_idx``.

        Yields ``(bucket, group)`` pairs in ascending bucket order,
        skipping empty buckets, with each group preserving the records'
        input order.
        """
        # Fused distribute pass: one stable argsort take groups every
        # bucket at once; boundary slicing then yields views into the
        # grouped copy.  Stability preserves input order within buckets.
        if len(records) == 0:
            return
        order = np.argsort(bucket_idx, kind="stable")
        sorted_idx = bucket_idx[order]
        grouped = records[order]
        boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(records)]))
        for s, e in zip(starts, ends):
            yield int(sorted_idx[s]), grouped[s:e]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


_kernel = Kernel()


def get_kernel(kernel: None = None) -> Kernel:
    """The shared kernel every new :class:`~repro.em.disk.Disk` uses.

    ``kernel`` exists only so the old ``get_kernel(None)`` spelling
    keeps working; there is no other kernel to name.
    """
    if kernel is not None:
        raise TypeError("get_kernel() takes no selection: there is one kernel")
    return _kernel
