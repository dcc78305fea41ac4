"""Unit and property tests for buffered streams and the k-way merge."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alg import external_sort
from repro.em import (
    BlockReader,
    BlockWriter,
    EMFile,
    Machine,
    StreamError,
    composite,
    copy_file,
    merge_sorted_files,
    scan_chunks,
)
from repro.em.comparisons import cmp_search
from repro.em.records import empty_records, make_records, sort_records


@pytest.fixture
def mach():
    return Machine(memory=256, block=8)


def recs(n, start=0):
    return make_records(np.arange(start, start + n))


class TestBlockReader:
    def test_reads_all_blocks(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with BlockReader(f) as reader:
            sizes = [len(b) for b in reader]
        assert sizes == [8, 8, 4]

    def test_holds_block_lease(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with BlockReader(f):
            assert mach.memory.in_use == mach.B
        assert mach.memory.in_use == 0

    def test_lease_released_on_error(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with pytest.raises(RuntimeError):
            with BlockReader(f) as reader:
                for _ in reader:
                    raise RuntimeError("boom")
        assert mach.memory.in_use == 0

    def test_closed_reader_refuses(self, mach):
        f = EMFile.from_records(mach, recs(20))
        reader = BlockReader(f)
        it = iter(reader)
        next(it)
        reader.close()
        with pytest.raises(StreamError):
            next(it)

    def test_close_mid_iteration_releases_lease_immediately(self, mach):
        f = EMFile.from_records(mach, recs(20))
        reader = BlockReader(f)
        it = iter(reader)
        next(it)
        assert mach.memory.in_use == mach.B
        reader.close()
        assert mach.memory.in_use == 0
        reader.close()  # idempotent
        assert mach.memory.in_use == 0

    def test_break_out_of_with_block_releases_lease(self, mach):
        f = EMFile.from_records(mach, recs(40))
        with BlockReader(f) as reader:
            for _ in reader:
                break
        assert mach.memory.in_use == 0


class TestBlockWriter:
    def test_accumulates_into_blocks(self, mach):
        w = BlockWriter(mach)
        w.write(recs(3))
        w.write(recs(3, 3))
        w.write(recs(3, 6))
        f = w.close()
        assert len(f) == 9
        assert f.num_blocks == 2
        assert len(f.read_block(0)) == 8

    def test_records_written_property(self, mach):
        w = BlockWriter(mach)
        w.write(recs(10))
        assert w.records_written == 10
        w.close()

    def test_large_single_write(self, mach):
        w = BlockWriter(mach)
        w.write(recs(50))
        f = w.close()
        assert len(f) == 50
        assert f.num_blocks == 7

    def test_write_after_close_fails(self, mach):
        w = BlockWriter(mach)
        w.close()
        with pytest.raises(StreamError):
            w.write(recs(1))

    def test_double_close_fails(self, mach):
        w = BlockWriter(mach)
        w.close()
        with pytest.raises(StreamError):
            w.close()

    def test_abort_frees_everything(self, mach):
        live = mach.disk.live_blocks
        w = BlockWriter(mach)
        w.write(recs(30))
        w.abort()
        assert mach.disk.live_blocks == live
        assert mach.memory.in_use == 0

    def test_context_manager_aborts_on_error(self, mach):
        live = mach.disk.live_blocks
        with pytest.raises(RuntimeError):
            with BlockWriter(mach) as w:
                w.write(recs(30))
                raise RuntimeError("boom")
        assert mach.disk.live_blocks == live

    def test_preserves_order(self, mach):
        w = BlockWriter(mach)
        w.write(recs(5, 10))
        w.write(recs(5, 0))
        f = w.close()
        assert list(f.to_numpy()["key"]) == list(range(10, 15)) + list(range(5))


class TestScanChunks:
    def test_chunk_sizes(self, mach):
        f = EMFile.from_records(mach, recs(50))
        chunks = [len(c) for c in scan_chunks(f, 16)]
        assert chunks == [16, 16, 16, 2]

    def test_rounds_down_to_blocks(self, mach):
        f = EMFile.from_records(mach, recs(32))
        chunks = [len(c) for c in scan_chunks(f, 12)]  # -> one block each
        assert chunks == [8, 8, 8, 8]

    def test_leases_during_iteration(self, mach):
        f = EMFile.from_records(mach, recs(50))
        gen = scan_chunks(f, 16)
        next(gen)
        assert mach.memory.in_use == 16
        gen.close()
        assert mach.memory.in_use == 0

    def test_break_releases_lease_deterministically(self, mach):
        # Regression: a caller that broke out of the loop used to hold
        # the chunk lease until the generator happened to be GC'd; the
        # context-manager form releases it at the `with` exit, always.
        f = EMFile.from_records(mach, recs(50))
        with scan_chunks(f, 16) as chunks:
            for chunk in chunks:
                assert mach.memory.in_use == 16
                break
        assert mach.memory.in_use == 0

    def test_exception_inside_with_releases_lease(self, mach):
        f = EMFile.from_records(mach, recs(50))
        with pytest.raises(RuntimeError):
            with scan_chunks(f, 16) as chunks:
                for _ in chunks:
                    raise RuntimeError("boom")
        assert mach.memory.in_use == 0

    def test_exhaustion_releases_lease(self, mach):
        f = EMFile.from_records(mach, recs(50))
        scanner = scan_chunks(f, 16)
        list(scanner)
        assert scanner.closed
        assert mach.memory.in_use == 0

    def test_close_mid_scan_then_next_stops(self, mach):
        f = EMFile.from_records(mach, recs(50))
        scanner = scan_chunks(f, 16)
        it = iter(scanner)
        next(it)
        scanner.close()
        with pytest.raises(StopIteration):
            next(it)
        assert mach.memory.in_use == 0

    def test_scan_io_count_unchanged_by_batching(self, mach):
        f = EMFile.from_records(mach, recs(50), counted=False)
        mach.reset_counters()
        with scan_chunks(f, 16) as chunks:
            total = sum(len(c) for c in chunks)
        assert total == 50
        assert mach.io.reads == f.num_blocks
        assert mach.io.writes == 0


class TestMergeSortedFiles:
    def _merge(self, mach, parts):
        files = [
            EMFile.from_records(mach, sort_records(p), counted=False) for p in parts
        ]
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, files, w)
            out = w.close()
        return out.to_numpy()

    @given(
        data=st.lists(
            st.lists(st.integers(-50, 50), min_size=0, max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_global_sort(self, data):
        mach = Machine(memory=256, block=8)
        uid = 0
        parts = []
        for lst in data:
            keys = np.array(lst, dtype=np.int64)
            parts.append(
                make_records(keys, uids=np.arange(uid, uid + len(keys)))
            )
            uid += len(keys)
        merged = self._merge(mach, parts)
        everything = (
            np.concatenate(parts) if parts else make_records(np.array([]))
        )
        assert np.array_equal(
            composite(merged), np.sort(composite(everything))
        )

    def test_merge_io_is_one_read_per_block(self, mach):
        parts = [recs(40, i * 100) for i in range(3)]
        files = [
            EMFile.from_records(mach, sort_records(p), counted=False) for p in parts
        ]
        mach.reset_counters()
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, files, w)
            out = w.close()
        in_blocks = sum(f.num_blocks for f in files)
        assert mach.io.reads == in_blocks
        assert mach.io.writes == out.num_blocks

    def test_merge_empty_input_list(self, mach):
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, [], w)
            out = w.close()
        assert len(out) == 0

    def test_merge_with_empty_files(self, mach):
        parts = [recs(0), recs(10), recs(0)]
        merged = self._merge(mach, parts)
        assert len(merged) == 10


def _reference_merge(machine, files, writer):
    """The per-step frontier merge ``merge_sorted_files`` replaced, kept
    as its differential oracle: every step recomputes each buffered
    block's composites, cuts each run with one ``searchsorted`` and
    concatenates the cuts in run order."""
    k = len(files)
    if k == 0:
        return
    B = machine.B
    lease = machine.memory.lease(2 * k * B, "merge-buffers")
    try:
        buffers = []
        next_block = []
        for f in files:
            if f.num_blocks:
                buffers.append(f.read_block(0))
                next_block.append(1)
            else:
                buffers.append(empty_records(0))
                next_block.append(f.num_blocks)
        while True:
            for i, f in enumerate(files):
                if len(buffers[i]) == 0 and next_block[i] < f.num_blocks:
                    buffers[i] = f.read_block(next_block[i])
                    next_block[i] += 1
            active = [i for i in range(k) if len(buffers[i])]
            if not active:
                break
            if len(active) == 1:
                i = active[0]
                writer.write(buffers[i])
                buffers[i] = empty_records(0)
                f = files[i]
                while next_block[i] < f.num_blocks:
                    stop = min(next_block[i] + k, f.num_blocks)
                    writer.write(f.read_range(next_block[i], stop))
                    next_block[i] = stop
                break
            threshold = min(int(composite(buffers[i][-1:])[0]) for i in active)
            gathered = []
            for i in active:
                comps = composite(buffers[i])
                cut = int(np.searchsorted(comps, threshold, side="right"))
                if cut:
                    gathered.append(buffers[i][:cut])
                    buffers[i] = buffers[i][cut:]
            out = machine.kernel.concat(gathered)
            cmp_search(machine, len(out), len(active))
            writer.write(machine.kernel.sort_by_composite(out))
    finally:
        lease.release()


def _observed(mach, run):
    """Run ``run()`` (returns an EMFile) on a counted, traced machine and
    return everything the model measures about it."""
    mach.reset_counters()
    mach.memory.reset_peak()
    mach.disk.start_trace()
    out = run()
    trace = mach.disk.stop_trace()
    c = mach.snapshot()
    return (
        out.to_numpy().tobytes(),
        trace,
        (c.reads, c.writes, dict(c.by_phase)),
        mach.comparisons,
        mach.memory.peak,
        mach.disk.peak_blocks,
    )


@st.composite
def _merge_inputs(draw):
    """k sorted runs over a shared pool of (key, uid) pairs, so equal
    composites recur across runs with a different ``grp`` (the layout
    multi-selection's ``msel-D`` files produce), plus empty runs and
    partial last blocks."""
    B = draw(st.sampled_from([1, 2, 3, 8]))
    k = draw(st.integers(1, 6))
    pool = draw(st.integers(1, 24))
    keys = np.array(draw(st.lists(st.integers(-5, 5), min_size=pool, max_size=pool)))
    runs = []
    for run in range(k):
        picks = draw(st.lists(st.integers(0, pool - 1), max_size=5 * B + 3))
        part = make_records(keys[picks], uids=np.array(picks, dtype=np.int64), grps=run)
        runs.append(sort_records(part))
    return B, runs


class TestMergeDifferential:
    """The vectorized merge against :func:`_reference_merge`: output
    bytes, access trace, counters by phase, comparisons and memory and
    disk peaks must all be identical."""

    @staticmethod
    def _merge_run(merge, B, runs, sanitize):
        k = len(runs)
        mach = Machine(memory=(2 * k + 1) * B, block=B, sanitize=sanitize)
        files = [EMFile.from_records(mach, r, counted=False) for r in runs]

        def run():
            with BlockWriter(mach, "merge-out") as w:
                with mach.phase("merge"):
                    merge(mach, files, w)
                return w.close()

        return _observed(mach, run)

    @staticmethod
    def _sort_run(merge, B, records, fanout, sanitize):
        mach = Machine(memory=16 * B, block=B, sanitize=sanitize)
        f = EMFile.from_records(mach, records, counted=False)
        with mock.patch("repro.alg.sort.merge_sorted_files", merge):
            return _observed(mach, lambda: external_sort(mach, f, fanout))

    @given(inputs=_merge_inputs(), sanitize=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_reference(self, inputs, sanitize):
        B, runs = inputs
        new = self._merge_run(merge_sorted_files, B, runs, sanitize)
        ref = self._merge_run(_reference_merge, B, runs, sanitize)
        assert new == ref

    @given(
        inputs=_merge_inputs(),
        fanout=st.sampled_from([2, 3, None]),
        sanitize=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_external_sort_matches_reference(self, inputs, fanout, sanitize, seed):
        B, runs = inputs
        records = np.concatenate(runs)
        records = records[np.random.default_rng(seed).permutation(len(records))]
        new = self._sort_run(merge_sorted_files, B, records, fanout, sanitize)
        ref = self._sort_run(_reference_merge, B, records, fanout, sanitize)
        assert new == ref


class TestMergeSanitize:
    """Sanitize mode rejects merge input that is not sorted by composite
    order, before any record of the offending block is emitted, and
    releases the merge lease."""

    @staticmethod
    def _merge_raw(mach, runs):
        files = [EMFile.from_records(mach, r, counted=False) for r in runs]
        writer = BlockWriter(mach)
        try:
            with pytest.raises(StreamError, match="run 1"):
                merge_sorted_files(mach, files, writer)
            return writer.records_written
        finally:
            writer.abort()
            assert mach.memory.in_use == 0

    def test_unsorted_block_raises(self):
        mach = Machine(memory=256, block=8, sanitize=True)
        bad = recs(8)[::-1].copy()
        assert self._merge_raw(mach, [recs(8), bad]) == 0

    def test_block_below_previous_tail_raises(self):
        mach = Machine(memory=256, block=8, sanitize=True)
        # Run 1's second block restarts below its first block's tail.
        bad = make_records(np.r_[np.arange(10, 18), np.arange(0, 8)], uids=np.arange(16))
        written = self._merge_raw(mach, [recs(16, 100), bad])
        assert written == 8

    def test_unsorted_survivor_raises(self):
        mach = Machine(memory=256, block=8, sanitize=True)
        # Run 0 drains first; run 1 then streams alone through the
        # batched survivor path, whose first two-block read holds an
        # out-of-order third block: only the buffered block is emitted.
        bad = make_records(np.r_[np.arange(0, 16), np.arange(0, 8)], uids=np.arange(24) + 50)
        written = self._merge_raw(mach, [recs(8, -100), bad])
        assert written == 16

    def test_lenient_mode_keeps_every_record(self):
        mach = Machine(memory=256, block=8, sanitize=False)
        bad = make_records(np.r_[np.arange(10, 18), np.arange(7, -1, -1)], uids=np.arange(16))
        files = [EMFile.from_records(mach, r, counted=False) for r in (recs(12, 100), bad)]
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, files, w)
            out = w.close().to_numpy()
        expected = np.concatenate([recs(12, 100), bad])
        assert np.array_equal(np.sort(composite(out)), np.sort(composite(expected)))


class TestCopyFile:
    def test_copy_content_and_cost(self, mach):
        f = EMFile.from_records(mach, recs(40), counted=False)
        mach.reset_counters()
        out = copy_file(mach, f)
        assert np.array_equal(out.to_numpy()["key"], f.to_numpy()["key"])
        assert mach.io.reads == f.num_blocks
        assert mach.io.writes == out.num_blocks
