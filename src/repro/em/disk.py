"""Simulated block device with exact I/O accounting.

The disk stores fixed-size blocks of ``B`` records.  Every :meth:`Disk.read`
and :meth:`Disk.write` increments the corresponding counter — the quantity
the paper's cost model measures.  Counters can be tagged with a *phase*
label (a stack of labels, managed by :meth:`Disk.phase`) so experiments can
attribute I/Os to algorithm stages, and temporarily suspended with
:meth:`Disk.uncounted` for setup work that is outside the model (loading
the input, verification reads).

Phase labels nest: an I/O performed inside ``phase("distribute")`` which
itself runs inside ``phase("partition")`` is charged to the *joined stack
path* ``"partition/distribute"``, so composed algorithms can be rolled up
hierarchically (see :func:`repro.analysis.trace.phase_breakdown`).  I/Os
outside any phase carry the empty label ``""``.

Observers (see :meth:`Disk.add_observer`) receive a callback per counted
I/O, per phase push/pop, and per live-block-count change — the span
tracer of :mod:`repro.obs` is built on these hooks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadBlockError,
    BlockSizeError,
    DoubleFreeError,
    UninitializedReadError,
    UseAfterFreeError,
)
from .kernels import Kernel, get_kernel
from .records import RECORD_DTYPE

__all__ = ["Disk", "IOCounters"]


@dataclass
class IOCounters:
    """A snapshot of I/O activity.

    Attributes
    ----------
    reads / writes:
        Number of block reads / writes.
    by_phase:
        ``{path: (reads, writes)}`` broken down by the full phase-stack
        path active at the time of the I/O — nested phases join with
        ``"/"`` (``"partition/distribute"``), ``""`` when none.
    comparisons:
        Key comparisons.  The disk itself never fills this (comparisons
        are charged on the :class:`~repro.em.machine.Machine`); it is
        populated by :meth:`Machine.measure
        <repro.em.machine.Machine.measure>` so one object carries a
        measurement window's full model cost.
    """

    reads: int = 0
    writes: int = 0
    by_phase: dict[str, tuple[int, int]] = field(default_factory=dict)
    comparisons: int = 0

    @property
    def total(self) -> int:
        """Total I/Os (reads + writes), the paper's cost measure."""
        return self.reads + self.writes

    def __sub__(self, other: "IOCounters") -> "IOCounters":
        phases: dict[str, tuple[int, int]] = {}
        labels = set(self.by_phase) | set(other.by_phase)
        for label in labels:
            r1, w1 = self.by_phase.get(label, (0, 0))
            r0, w0 = other.by_phase.get(label, (0, 0))
            if (r1 - r0, w1 - w0) != (0, 0):
                phases[label] = (r1 - r0, w1 - w0)
        return IOCounters(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            by_phase=phases,
            comparisons=self.comparisons - other.comparisons,
        )

    def copy(self) -> "IOCounters":
        return IOCounters(
            self.reads, self.writes, dict(self.by_phase), self.comparisons
        )


class Disk:
    """An array of blocks, each holding up to ``block_size`` records.

    Blocks are allocated with :meth:`allocate` and addressed by integer ids.
    A block read returns a *copy* of the stored records so algorithms cannot
    mutate disk state without paying a write.
    """

    def __init__(
        self,
        block_size: int,
        *,
        sanitize: bool = False,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._B = int(block_size)
        # Data-movement kernel for the batched paths, resolved now so a
        # test can substitute the reference for a whole run.  Accounting
        # never moves into the kernel: the disk validates, charges, and
        # traces, then hands the pure byte-shuffling to the kernel.
        self._kernel = get_kernel()
        # Strict sanitizer mode: track freed / written block ids so
        # use-after-free, double-free, and reads of never-written blocks
        # raise specific SanitizerErrors instead of the generic (or no)
        # error.  Off by default — the sets are only populated when on,
        # so lenient mode pays nothing.
        self._sanitize = bool(sanitize)
        self._freed_ids: set[int] = set()
        self._written_ids: set[int] = set()
        self._blocks: dict[int, np.ndarray] = {}
        # Physical layout hints for the batched fast path: block id ->
        # (arena array, record offset).  Blocks written in one
        # write_many batch share an arena and sit at consecutive
        # offsets, so read_many can move whole runs with a single numpy
        # slice copy.  Purely an optimization — never affects counters.
        self._origin: dict[int, tuple[np.ndarray, int]] = {}
        self._next_id = 0
        self._counters = IOCounters()
        # Cumulative reads/writes over the disk's whole life, *never*
        # cleared by :meth:`reset_counters` — experiments reset the live
        # counters per sweep point, so harness-level resource reporting
        # (the runner's per-experiment records) reads these instead.
        # Only the totals are tracked; ``by_phase`` stays empty.
        self._lifetime = IOCounters()
        self._phase_stack: list[str] = []
        # Joined stack path ("a/b/c"), cached so _charge never re-joins.
        self._phase_path = ""
        self._counting = True
        # Observer objects notified of phases, counted I/Os, and
        # live-block changes (see add_observer).  Empty in the common
        # case, so the hot paths pay one falsy check.
        self._observers: list = []
        # Lifetime high-water mark of live blocks, for space accounting.
        self._peak_blocks = 0
        # Ids of blocks ever read while counting was on — lets the
        # adversary-style experiments check "the algorithm saw every input
        # block" (§3's right-grounded argument).
        self._read_ids: set[int] = set()
        # Optional access trace: (op, block_id) per counted I/O, for
        # sequentiality / fragmentation analysis (off by default).
        self._trace: list[tuple[str, int]] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """Records per block (the model's ``B``)."""
        return self._B

    @property
    def sanitize(self) -> bool:
        """True when the strict runtime sanitizer is enabled."""
        return self._sanitize

    @property
    def kernel(self) -> Kernel:
        """The data-movement kernel serving the batched paths."""
        return self._kernel

    def _check_block(self, block_id: int, *, for_read: bool) -> None:
        """Sanitize-mode block validation (no-op when the block exists
        and, for reads, has been written at least once)."""
        if block_id in self._freed_ids:
            raise UseAfterFreeError(
                f"block {block_id} was freed and must not be "
                f"{'read' if for_read else 'written'} again"
            )
        if block_id not in self._blocks:
            raise BadBlockError(f"block {block_id} is not allocated")
        if for_read and block_id not in self._written_ids:
            raise UninitializedReadError(
                f"block {block_id} was allocated but never written; "
                f"reading it would return garbage"
            )

    @property
    def counters(self) -> IOCounters:
        """Live counters (mutating snapshot; use ``.copy()`` to freeze)."""
        return self._counters

    @property
    def live_blocks(self) -> int:
        """Number of currently allocated blocks."""
        return len(self._blocks)

    @property
    def peak_blocks(self) -> int:
        """High-water mark of allocated blocks (disk-space usage)."""
        return self._peak_blocks

    @property
    def lifetime(self) -> IOCounters:
        """Cumulative I/O counters over the disk's whole life.

        Unlike :attr:`counters`, these survive :meth:`reset_counters`
        (only totals are tracked; ``by_phase`` stays empty).  The
        experiment runner sums them across every machine an experiment
        builds to report true per-run I/O totals.
        """
        return self._lifetime

    @property
    def tracing(self) -> bool:
        """True while an access trace is being recorded (between
        :meth:`start_trace` and :meth:`stop_trace`)."""
        return self._trace is not None

    def snapshot(self) -> IOCounters:
        """Return a frozen copy of the counters."""
        return self._counters.copy()

    @property
    def phase_path(self) -> str:
        """The active phase stack joined with ``"/"`` (``""`` outside
        any phase) — the label every counted I/O is charged to."""
        return self._phase_path

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register an observer of this disk's model-visible activity.

        ``observer`` must provide four methods (the
        :class:`repro.obs.Tracer` machine hook is the canonical
        implementation):

        * ``on_phase_push(label, path)`` / ``on_phase_pop(label, path)``
          — a :meth:`phase` context was entered / exited (``path`` is
          the joined stack path including ``label``);
        * ``on_io(read: bool, count: int)`` — ``count`` I/Os were
          charged (only *counted* I/Os; :meth:`uncounted` work is
          invisible to observers, exactly as it is to the counters);
        * ``on_blocks(live: int)`` — the live-block count changed.
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Unregister an observer added with :meth:`add_observer`."""
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Phase tagging / counting control
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute I/Os inside the ``with`` body to ``label``.

        Phases nest: I/Os are charged to the joined stack path
        (``"outer/inner"``), so a composed algorithm's cost can be
        rolled up to any ancestor.  ``label`` must be a non-blank string
        without ``"/"`` (the separator would corrupt the path structure).
        """
        if not isinstance(label, str) or not label.strip() or "/" in label:
            raise ValueError(
                f"phase label {label!r} must be a non-blank string without '/'"
            )
        self._phase_stack.append(label)
        self._phase_path = "/".join(self._phase_stack)
        path = self._phase_path
        for obs in self._observers:
            obs.on_phase_push(label, path)
        try:
            yield
        finally:
            self._phase_stack.pop()
            self._phase_path = "/".join(self._phase_stack)
            for obs in self._observers:
                obs.on_phase_pop(label, path)

    @contextmanager
    def uncounted(self) -> Iterator[None]:
        """Suspend I/O counting (for input loading / verification only)."""
        prev = self._counting
        self._counting = False
        try:
            yield
        finally:
            self._counting = prev

    @property
    def read_block_ids(self) -> frozenset[int]:
        """Ids of blocks read (while counting) since the last reset."""
        return frozenset(self._read_ids)

    def start_trace(self) -> None:
        """Begin recording the (op, block_id) access sequence.

        Only counted I/Os are traced.  See
        :mod:`repro.analysis.access` for sequentiality analysis.
        """
        self._trace = []

    def stop_trace(self) -> list[tuple[str, int]]:
        """Stop tracing and return the recorded access sequence."""
        trace = self._trace or []
        self._trace = None
        return trace

    def reset_counters(self) -> None:
        """Zero all counters (does not touch stored blocks or the
        :attr:`lifetime` totals).

        If an access trace is active it is cleared as well, so a
        subsequent :meth:`stop_trace` returns only post-reset accesses —
        one measurement window, never a mix of two.
        """
        self._counters = IOCounters()
        self._read_ids = set()
        if self._trace is not None:
            self._trace = []

    def _charge(self, *, read: bool, count: int = 1) -> None:
        if not self._counting or count == 0:
            return
        label = self._phase_path
        r, w = self._counters.by_phase.get(label, (0, 0))
        if read:
            self._counters.reads += count
            self._lifetime.reads += count
            self._counters.by_phase[label] = (r + count, w)
        else:
            self._counters.writes += count
            self._lifetime.writes += count
            self._counters.by_phase[label] = (r, w + count)
        for obs in self._observers:
            obs.on_io(read, count)

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def allocate(self, nblocks: int = 1) -> list[int]:
        """Allocate ``nblocks`` empty blocks; returns their ids.

        Allocation itself is free (the model charges only transfers).
        """
        if nblocks < 0:
            raise ValueError("nblocks must be >= 0")
        ids = list(range(self._next_id, self._next_id + nblocks))
        self._next_id += nblocks
        empty = np.empty(0, dtype=RECORD_DTYPE)
        for bid in ids:
            self._blocks[bid] = empty
        self._peak_blocks = max(self._peak_blocks, len(self._blocks))
        for obs in self._observers:
            obs.on_blocks(len(self._blocks))
        return ids

    def free(self, block_ids: list[int]) -> None:
        """Release blocks (re-reading them afterwards is an error).

        Atomic: every id is validated (allocated, no duplicates) before
        any block is deleted, so a bad id leaves the disk unchanged.
        """
        seen: set[int] = set()
        for bid in block_ids:
            if bid not in self._blocks:
                if self._sanitize and bid in self._freed_ids:
                    raise DoubleFreeError(
                        f"block {bid} has already been freed"
                    )
                raise BadBlockError(f"block {bid} is not allocated")
            if bid in seen:
                raise BadBlockError(f"block {bid} appears twice in free list")
            seen.add(bid)
        for bid in block_ids:
            del self._blocks[bid]
            self._origin.pop(bid, None)
        if self._sanitize:
            self._freed_ids.update(seen)
            self._written_ids.difference_update(seen)
        for obs in self._observers:
            obs.on_blocks(len(self._blocks))

    def read(self, block_id: int) -> np.ndarray:
        """Read one block; counts one read I/O.  Returns a copy."""
        if self._sanitize:
            self._check_block(block_id, for_read=True)
        try:
            data = self._blocks[block_id]
        except KeyError:
            raise BadBlockError(f"block {block_id} is not allocated") from None
        self._charge(read=True)
        if self._counting:
            self._read_ids.add(block_id)
            if self._trace is not None:
                self._trace.append(("r", block_id))
        return data.copy()

    def write(self, block_id: int, data: np.ndarray) -> None:
        """Write one block; counts one write I/O.  Stores a copy."""
        if block_id not in self._blocks:
            if self._sanitize:
                self._check_block(block_id, for_read=False)
            raise BadBlockError(f"block {block_id} is not allocated")
        if data.dtype != RECORD_DTYPE:
            raise BlockSizeError("block payload must be a record array")
        if len(data) > self._B:
            raise BlockSizeError(
                f"payload of {len(data)} records exceeds block size {self._B}"
            )
        self._charge(read=False)
        if self._counting and self._trace is not None:
            self._trace.append(("w", block_id))
        stored = data.copy()
        self._blocks[block_id] = stored
        self._origin[block_id] = (stored, 0)
        if self._sanitize:
            self._written_ids.add(block_id)

    # ------------------------------------------------------------------
    # Batched block operations
    # ------------------------------------------------------------------
    def read_many(self, block_ids: Sequence[int]) -> np.ndarray:
        """Read ``k`` blocks in one call; counts ``k`` read I/Os.

        Returns one freshly allocated array holding the blocks'
        records concatenated in the given order.  The model cost and
        every piece of accounting — counters, phase attribution,
        :attr:`read_block_ids`, trace entries — are *identical* to ``k``
        successive :meth:`read` calls; only the Python-level overhead
        differs.  The byte shuffling itself is delegated to the
        :attr:`kernel` once validation and charging are done.

        All ids are validated before any accounting happens, so a bad id
        raises without charging anything.  ``block_ids`` may be any
        sequence of ids, including a numpy integer array.
        """
        if len(block_ids) == 0:
            return np.empty(0, dtype=RECORD_DTYPE)
        # Validation pass: no state is touched (and nothing is charged)
        # until every id has validated (atomic).
        bmap = self._blocks
        sanitize = self._sanitize
        for bid in block_ids:
            if sanitize:
                self._check_block(bid, for_read=True)
            elif bid not in bmap:
                raise BadBlockError(f"block {bid} is not allocated")
        self._charge(read=True, count=len(block_ids))
        if self._counting:
            self._read_ids.update(int(bid) for bid in block_ids)
            if self._trace is not None:
                self._trace.extend(("r", int(bid)) for bid in block_ids)
        return self._kernel.gather_blocks(bmap, self._origin, block_ids)

    def write_many(self, block_ids: Sequence[int], data: np.ndarray) -> None:
        """Write ``k`` blocks in one call; counts ``k`` write I/Os.

        ``data`` is the concatenated payload: blocks ``0..k-2`` receive
        exactly ``B`` records each and the last block the (non-empty)
        remainder — the :class:`~repro.em.file.EMFile` layout.  Cost and
        accounting are identical to ``k`` successive :meth:`write`
        calls; the stores themselves go through the :attr:`kernel`.  All
        ids and the payload shape are validated before any block is
        touched or charged (atomic, like :meth:`free`).
        ``block_ids`` may be any sequence of ids, including a numpy
        integer array.
        """
        k = len(block_ids)
        if data.dtype != RECORD_DTYPE:
            raise BlockSizeError("block payload must be a record array")
        if k == 0:
            if len(data):
                raise BlockSizeError("non-empty payload with no target blocks")
            return
        B = self._B
        if len(data) > k * B:
            raise BlockSizeError(
                f"payload of {len(data)} records exceeds {k} blocks of size {B}"
            )
        if len(data) <= (k - 1) * B:
            raise BlockSizeError(
                f"payload of {len(data)} records leaves trailing blocks empty "
                f"(need more than {(k - 1) * B} records for {k} blocks)"
            )
        seen: set[int] = set()
        for bid in block_ids:
            if bid not in self._blocks:
                if self._sanitize:
                    self._check_block(bid, for_read=False)
                raise BadBlockError(f"block {bid} is not allocated")
            if bid in seen:
                raise BadBlockError(f"block {bid} appears twice in write batch")
            seen.add(int(bid))
        self._charge(read=False, count=k)
        if self._counting and self._trace is not None:
            self._trace.extend(("w", int(bid)) for bid in block_ids)
        self._kernel.scatter_blocks(
            self._blocks, self._origin, block_ids, data, B
        )
        if self._sanitize:
            self._written_ids.update(seen)

    def peek(self, block_id: int) -> np.ndarray:
        """Read a block *without* charging an I/O.

        Strictly for test/verification code; algorithms must use
        :meth:`read`.  Sanitize mode still rejects peeks of freed blocks
        (use-after-free is a data hazard even for verification reads),
        but allows peeking never-written blocks (they are simply empty).
        """
        if self._sanitize and block_id in self._freed_ids:
            raise UseAfterFreeError(
                f"block {block_id} was freed and must not be peeked"
            )
        try:
            return self._blocks[block_id].copy()
        except KeyError:
            raise BadBlockError(f"block {block_id} is not allocated") from None
