"""Buffered streams over :class:`~repro.em.file.EMFile` with leased memory.

These are the only building blocks algorithms need for sequential I/O:

* :class:`BlockReader` — forward scan, one leased block buffer;
* :class:`BlockWriter` — record-granular appends, flushed in full blocks;
* :func:`scan_chunks` — scan a file in memory-sized chunks (run formation,
  chunk sampling); returns a close-aware :class:`ChunkScanner`;
* :func:`merge_sorted_files` — k-way merge of sorted files using the
  block-frontier technique: each loaded block's composite keys are
  computed once and cached, and each step gathers its records with one
  vectorized select (still one read per block and one write per output
  block, exactly as the model counts);
* :func:`copy_file` — linear-I/O file copy.

Every stream leases its buffer space from the machine's
:class:`~repro.em.machine.MemoryAccountant`, so the sum of open streams can
never exceed ``M``.

All streams move data through the disk's batched fast path
(:meth:`~repro.em.disk.Disk.read_many` / ``write_many``) — one numpy
concatenation per chunk instead of one Python call per block — while
charging exactly the same per-block model cost.  Record concatenation
and each merge step's ordering dispatch through the machine's
:attr:`~repro.em.machine.Machine.kernel`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from .comparisons import cmp_search
from .errors import StreamError
from .file import EMFile
from .records import composite, empty_records

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = [
    "BlockReader",
    "BlockWriter",
    "ChunkScanner",
    "scan_chunks",
    "merge_sorted_files",
    "copy_file",
]


class BlockReader:
    """Sequential block-at-a-time reader holding a ``B``-record lease.

    Iterate to obtain successive blocks; use as a context manager so the
    lease is released even on error:

    >>> # with BlockReader(f) as reader:
    >>> #     for block in reader: ...
    """

    def __init__(self, file: EMFile, label: str = "reader") -> None:
        self._file = file
        self._lease = file.machine.memory.lease(file.machine.B, label)
        self._index = 0
        self._closed = False

    def __enter__(self) -> "BlockReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[np.ndarray]:
        while self._index < self._file.num_blocks:
            if self._closed:
                raise StreamError("reader is closed")
            block = self._file.read_block(self._index)
            self._index += 1
            yield block

    def close(self) -> None:
        if not self._closed:
            self._lease.release()
            self._closed = True


class BlockWriter:
    """Record-granular append buffer that flushes full blocks to a new file.

    Holds a ``B``-record lease for its buffer.  ``close()`` flushes the
    trailing partial block and returns the finished :class:`EMFile`.
    """

    def __init__(self, machine: "Machine", label: str = "writer") -> None:
        self.machine = machine
        self._lease = machine.memory.lease(machine.B, label)
        self._file = EMFile(machine)
        self._parts: list[np.ndarray] = []
        self._buffered = 0
        self._closed = False

    @property
    def records_written(self) -> int:
        """Records accepted so far (including still-buffered ones)."""
        return len(self._file) + self._buffered

    def write(self, records: np.ndarray) -> None:
        """Append an array of records (any length)."""
        if self._closed:
            raise StreamError("writer is closed")
        if len(records) == 0:
            return
        self._parts.append(records)
        self._buffered += len(records)
        B = self.machine.B
        if self._buffered >= B:
            data = self.machine.kernel.concat(self._parts)
            n_full = (len(data) // B) * B
            # One batched write for all full blocks (same one-I/O-per-
            # block cost as appending them individually).
            self._file.append_blocks(data[:n_full])
            rest = data[n_full:]
            self._parts = [rest] if len(rest) else []
            self._buffered = len(rest)

    def close(self) -> EMFile:
        """Flush and return the written file."""
        if self._closed:
            raise StreamError("writer already closed")
        if self._buffered:
            self._file.append_block(self.machine.kernel.concat(self._parts))
            self._parts = []
            self._buffered = 0
        self._lease.release()
        self._closed = True
        return self._file

    def abort(self) -> None:
        """Discard everything written and release resources."""
        if self._closed:
            return
        self._lease.release()
        self._file.free()
        self._closed = True

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


class ChunkScanner:
    """Iterator over a file's records in memory-sized chunks.

    Returned by :func:`scan_chunks`.  The chunk-buffer lease is acquired
    eagerly on construction and released *deterministically*: when the
    iteration is exhausted, when :meth:`close` is called, or when the
    ``with`` block exits — never "whenever the generator happens to be
    garbage-collected".  Callers that may stop scanning early (``break``,
    ``return``, exceptions) must use the context-manager form::

        with scan_chunks(file, machine.load_limit, "scan") as chunks:
            for chunk in chunks:
                ...

    Each chunk is read through the batched
    :meth:`~repro.em.file.EMFile.read_range` fast path — one I/O charge
    per block, one numpy concatenation per chunk.
    """

    def __init__(self, file: EMFile, chunk_records: int, label: str = "chunk") -> None:
        machine = file.machine
        self._file = file
        self._blocks_per_chunk = max(1, chunk_records // machine.B)
        self._lease = machine.memory.lease(self._blocks_per_chunk * machine.B, label)
        self._next = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ChunkScanner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> "ChunkScanner":
        return self

    def __next__(self) -> np.ndarray:
        if self._closed:
            raise StopIteration
        if self._next >= self._file.num_blocks:
            self.close()
            raise StopIteration
        stop = min(self._next + self._blocks_per_chunk, self._file.num_blocks)
        chunk = self._file.read_range(self._next, stop)
        self._next = stop
        return chunk

    def close(self) -> None:
        """Release the chunk buffer lease (idempotent)."""
        if not self._closed:
            self._closed = True
            self._lease.release()

    def __del__(self) -> None:  # pragma: no cover - safety net only
        try:
            self.close()
        except Exception:
            pass


def scan_chunks(file: EMFile, chunk_records: int, label: str = "chunk") -> ChunkScanner:
    """Scan ``file`` in chunks of up to ``chunk_records`` records.

    Leases ``chunk_records`` of memory for the duration of the iteration.
    ``chunk_records`` is rounded down to a multiple of ``B`` (at least one
    block).  Returns a :class:`ChunkScanner`; use it as a context manager
    so the lease is released deterministically even when the scan stops
    early.
    """
    return ChunkScanner(file, chunk_records, label)


#: Key of a spent (consumed or never filled) merge workspace slot.
#: Composites stay below ``2**62``, so no record's key can reach it.
_SPENT = np.iinfo(np.int64).max
#: Floor a run's first block is checked against.
_FLOOR = np.iinfo(np.int64).min


def _check_run_order(run: int, keys: np.ndarray, floor: int) -> None:
    """Sanitize-mode guard: ``keys`` (one run's next records) must be
    non-decreasing and start at or above ``floor``, the run's previous
    tail.  Raises :class:`StreamError` naming the run."""
    if keys[0] < floor or np.any(keys[1:] < keys[:-1]):
        raise StreamError(f"merge input run {run} is not sorted by composite order")


def merge_sorted_files(machine: "Machine", files: list[EMFile], writer: BlockWriter) -> None:
    """Merge sorted ``files`` into ``writer`` (k-way, block-frontier method).

    Each input file must be sorted by composite order; in sanitize mode a
    block that breaks its run's order raises :class:`StreamError` before
    any of its records is emitted.  Memory use: a lease of ``2kB`` records
    (one block slot per input plus a gather workspace); the caller's
    writer holds its own block, so ``k`` may be at most
    :func:`repro.alg.sort.merge_fanout`.

    The ``k`` block slots share one ``k·B`` workspace with a parallel
    composite-key array, filled once per loaded block; spent slots hold a
    sentinel above every composite.  Each step emits every buffered
    record ``<=`` the smallest run maximum with one vectorized select
    (flat order is run order, then record order), orders it through
    ``machine.kernel`` and refills the drained runs in ascending run
    index.  Future blocks of a run are ``>=`` its buffered maximum, so
    every record ``<=`` that threshold is buffered.

    I/O cost: exactly one read per input block and one write per output
    block — the textbook merge cost.
    """
    k = len(files)
    if k == 0:
        return
    B = machine.B
    check = machine.sanitize
    lease = machine.memory.lease(2 * k * B, "merge-buffers")
    try:
        slots = empty_records(k * B)
        keys = np.full(k * B, _SPENT, dtype=np.int64)
        tails = np.full(k, _SPENT, dtype=np.int64)
        next_block = [0] * k

        def load(i: int, floor: int) -> None:
            block = files[i].read_block(next_block[i])
            next_block[i] += 1
            block_keys = composite(block)
            if check:
                _check_run_order(i, block_keys, floor)
            lo = i * B
            slots[lo : lo + len(block)] = block
            keys[lo : lo + len(block)] = block_keys
            # The max, not the last key: on unsorted input (lenient mode)
            # a run then still drains only once every record is taken.
            tails[i] = block_keys.max()

        live = 0
        for i, f in enumerate(files):
            if f.num_blocks:
                load(i, _FLOOR)
                live += 1
        while live > 1:
            threshold = tails.min()
            taken = np.flatnonzero(keys <= threshold)
            out = slots[taken]
            keys[taken] = _SPENT
            cmp_search(machine, len(out), live)
            writer.write(machine.kernel.sort_by_composite(out))
            for i in np.flatnonzero(tails <= threshold).tolist():
                floor = int(tails[i])
                tails[i] = _SPENT
                if next_block[i] < files[i].num_blocks:
                    load(i, floor)
                else:
                    live -= 1
        if live == 1:
            # Single survivor: stream the rest through unchanged,
            # batching reads up to the k-block gather workspace the
            # lease already covers.
            i = int(np.flatnonzero(tails != _SPENT)[0])
            lo = i * B
            writer.write(slots[lo : lo + B][keys[lo : lo + B] != _SPENT])
            floor = int(tails[i])
            f = files[i]
            while next_block[i] < f.num_blocks:
                stop = min(next_block[i] + k, f.num_blocks)
                chunk = f.read_range(next_block[i], stop)
                if check:
                    chunk_keys = composite(chunk)
                    _check_run_order(i, chunk_keys, floor)
                    floor = int(chunk_keys[-1])
                writer.write(chunk)
                next_block[i] = stop
    finally:
        lease.release()


def copy_file(machine: "Machine", file: EMFile, label: str = "copy") -> EMFile:
    """Copy ``file`` into a fresh file in ``O(N/B)`` I/Os.

    Moves data in memory-sized batches through the disk's vectorized
    path — the I/O count (one read and one write per block) is identical
    to a block-at-a-time copy.
    """
    with BlockWriter(machine, label) as writer:
        with scan_chunks(file, machine.load_limit, label) as chunks:
            for chunk in chunks:
                writer.write(chunk)
        out = writer.close()
    return out
