"""Differential tests: the batched I/O fast path vs the single-block path.

The batched layer (``Disk.read_many`` / ``Disk.write_many`` and the
``EMFile.read_range`` / ``EMFile.append_blocks`` wrappers) exists purely
for Python-level speed — model fidelity is non-negotiable.  These tests
assert that every observable piece of accounting (counters, per-phase
breakdown, ``read_block_ids``, the access trace) and every stored byte
is *identical* to performing the same transfers one block at a time.
"""

import numpy as np
import pytest

from repro.em import (
    BadBlockError,
    BlockSizeError,
    Disk,
    EMFile,
    FileError,
    Machine,
    composite,
)
from repro.em.records import make_records

from .conftest import KERNEL_SIDES, kernel_side


@pytest.fixture(autouse=True, params=KERNEL_SIDES)
def each_kernel(request):
    """Run every test in this module under the kernel and under the
    reference (the Disk constructor resolves the kernel at build time),
    so the batched-vs-single identity is proven for both."""
    with kernel_side(request.param) as kernel:
        yield kernel


def blk(n, start=0):
    return make_records(np.arange(start, start + n))


def staged_disk(B=8, nblocks=6, partial_last=3):
    """A disk with ``nblocks`` written blocks (last one partial)."""
    d = Disk(B)
    ids = d.allocate(nblocks)
    with d.uncounted():
        for i, bid in enumerate(ids):
            n = partial_last if i == nblocks - 1 else B
            d.write(bid, blk(n, start=i * B))
    return d, ids


def observable_state(d: Disk):
    c = d.snapshot()
    return (c.reads, c.writes, dict(c.by_phase), set(d.read_block_ids))


class TestReadManyDifferential:
    def test_counters_phases_ids_and_trace_match_single_path(self):
        single, ids_s = staged_disk()
        batched, ids_b = staged_disk()
        single.start_trace()
        batched.start_trace()

        with single.phase("scan"):
            parts = [single.read(bid) for bid in ids_s]
        with batched.phase("scan"):
            out = batched.read_many(ids_b)

        assert observable_state(single) == observable_state(batched)
        assert single.stop_trace() == batched.stop_trace()
        assert np.array_equal(composite(np.concatenate(parts)), composite(out))

    def test_mixed_batch_and_single_interleaving(self):
        single, ids_s = staged_disk()
        batched, ids_b = staged_disk()
        with single.phase("a"):
            for bid in ids_s[:3]:
                single.read(bid)
        with single.phase("b"):
            for bid in ids_s[3:]:
                single.read(bid)
        with batched.phase("a"):
            batched.read_many(ids_b[:3])
        with batched.phase("b"):
            batched.read_many(ids_b[3:])
        assert observable_state(single) == observable_state(batched)

    def test_empty_batch_charges_nothing(self):
        d, _ = staged_disk()
        out = d.read_many([])
        assert len(out) == 0
        assert d.counters.total == 0
        assert d.read_block_ids == frozenset()

    def test_single_element_batch(self):
        d, ids = staged_disk()
        out = d.read_many(ids[:1])
        assert d.counters.reads == 1
        assert np.array_equal(out["key"], d.peek(ids[0])["key"])

    def test_returns_a_copy(self):
        d, ids = staged_disk()
        out = d.read_many(ids[:2])
        out["key"][0] = 999
        assert d.peek(ids[0])["key"][0] == 0

    def test_bad_id_raises_before_any_charge(self):
        d, ids = staged_disk()
        with pytest.raises(BadBlockError):
            d.read_many([ids[0], 10_000])
        assert d.counters.total == 0
        assert d.read_block_ids == frozenset()

    def test_uncounted_batch(self):
        d, ids = staged_disk()
        with d.uncounted():
            d.read_many(ids)
        assert d.counters.total == 0
        assert d.read_block_ids == frozenset()


class TestIdContainerTypes:
    """Regression: ``if not block_ids:`` raised ``ValueError: The truth
    value of an array with more than one element is ambiguous`` when a
    caller passed a numpy array of ids.  Every sequence type must behave
    identically, including when empty."""

    @pytest.mark.parametrize("wrap", [list, tuple, np.asarray])
    def test_read_many_accepts_any_sequence(self, wrap):
        d, ids = staged_disk()
        out = d.read_many(wrap(ids))
        assert d.counters.reads == len(ids)
        assert np.array_equal(out, d.read_many(list(ids)))

    @pytest.mark.parametrize(
        "empty", [[], (), np.empty(0, dtype=np.int64)]
    )
    def test_read_many_empty_of_any_type(self, empty):
        d, _ = staged_disk()
        out = d.read_many(empty)
        assert len(out) == 0 and d.counters.total == 0

    @pytest.mark.parametrize("wrap", [list, tuple, np.asarray])
    def test_write_many_accepts_any_sequence(self, wrap):
        B = 8
        d = Disk(B)
        ids = d.allocate(3)
        payload = blk(3 * B)
        d.write_many(wrap(ids), payload)
        assert d.counters.writes == 3
        assert np.array_equal(d.peek(ids[0]), payload[:B])

    @pytest.mark.parametrize(
        "empty", [[], (), np.empty(0, dtype=np.int64)]
    )
    def test_write_many_empty_of_any_type(self, empty):
        d = Disk(8)
        d.write_many(empty, blk(0))
        assert d.counters.total == 0

    def test_numpy_ids_count_and_trace_like_python_ints(self):
        d1, ids1 = staged_disk()
        d2, ids2 = staged_disk()
        d1.start_trace()
        d2.start_trace()
        d1.read_many(list(ids1))
        d2.read_many(np.asarray(ids2, dtype=np.int64))
        assert observable_state(d1) == observable_state(d2)
        t1, t2 = d1.stop_trace(), d2.stop_trace()
        assert t1 == t2
        # Trace ids must be plain ints regardless of the input container.
        assert all(type(bid) is int for _, bid in t2)


class TestWriteManyDifferential:
    def test_counters_trace_and_bytes_match_single_path(self):
        B = 8
        payload = blk(3 * B + 5)
        single = Disk(B)
        batched = Disk(B)
        ids_s = single.allocate(4)
        ids_b = batched.allocate(4)
        single.start_trace()
        batched.start_trace()

        with single.phase("emit"):
            for i, bid in enumerate(ids_s):
                single.write(bid, payload[i * B : (i + 1) * B])
        with batched.phase("emit"):
            batched.write_many(ids_b, payload)

        assert observable_state(single) == observable_state(batched)
        assert single.stop_trace() == batched.stop_trace()
        for bid_s, bid_b in zip(ids_s, ids_b):
            assert np.array_equal(
                single.peek(bid_s)["key"], batched.peek(bid_b)["key"]
            )

    def test_stores_a_copy(self):
        d = Disk(8)
        ids = d.allocate(1)
        data = blk(8)
        d.write_many(ids, data)
        data["key"][0] = 999
        assert d.peek(ids[0])["key"][0] == 0

    def test_empty_batch_is_noop(self):
        d = Disk(8)
        d.write_many([], blk(0))
        assert d.counters.total == 0

    def test_oversize_payload_rejected_without_charge(self):
        d = Disk(8)
        ids = d.allocate(2)
        with pytest.raises(BlockSizeError):
            d.write_many(ids, blk(17))
        assert d.counters.total == 0

    def test_trailing_empty_blocks_rejected(self):
        d = Disk(8)
        ids = d.allocate(3)
        with pytest.raises(BlockSizeError):
            d.write_many(ids, blk(16))  # third block would stay empty
        assert d.counters.total == 0

    def test_duplicate_id_rejected(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with pytest.raises(BadBlockError):
            d.write_many([bid, bid], blk(10))
        assert d.counters.total == 0

    def test_unallocated_id_rejected_atomically(self):
        d = Disk(8)
        ids = d.allocate(1)
        with d.uncounted():
            d.write(ids[0], blk(8, start=100))
        with pytest.raises(BadBlockError):
            d.write_many([ids[0], 999], blk(10))
        # The valid block must be untouched.
        assert d.peek(ids[0])["key"][0] == 100

    def test_wrong_dtype_rejected(self):
        d = Disk(8)
        ids = d.allocate(1)
        with pytest.raises(BlockSizeError):
            d.write_many(ids, np.zeros(4))


class TestEMFileBatchedOps:
    def test_read_range_matches_per_block_reads(self):
        m1 = Machine(memory=256, block=8)
        m2 = Machine(memory=256, block=8)
        recs = blk(45)
        f1 = EMFile.from_records(m1, recs, counted=False)
        f2 = EMFile.from_records(m2, recs, counted=False)
        m1.disk.start_trace()
        m2.disk.start_trace()

        parts = [f1.read_block(i) for i in range(1, 4)]
        out = f2.read_range(1, 4)

        assert np.array_equal(composite(np.concatenate(parts)), composite(out))
        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert m1.disk.stop_trace() == m2.disk.stop_trace()

    def test_read_range_whole_file_and_empty_range(self):
        mach = Machine(memory=256, block=8)
        f = EMFile.from_records(mach, blk(20), counted=False)
        mach.reset_counters()
        assert np.array_equal(f.read_range(0, f.num_blocks)["key"], np.arange(20))
        assert mach.io.reads == f.num_blocks
        assert len(f.read_range(2, 2)) == 0

    def test_read_range_bounds_checked(self):
        mach = Machine(memory=256, block=8)
        f = EMFile.from_records(mach, blk(20), counted=False)
        for start, stop in [(-1, 2), (0, 4), (2, 1)]:
            with pytest.raises(FileError):
                f.read_range(start, stop)

    def test_append_blocks_matches_append_block(self):
        m1 = Machine(memory=256, block=8)
        m2 = Machine(memory=256, block=8)
        data = blk(21)
        f1 = EMFile(m1)
        for start in range(0, len(data), 8):
            f1.append_block(data[start : start + 8])
        f2 = EMFile(m2)
        f2.append_blocks(data)
        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert f1.num_blocks == f2.num_blocks == 3
        assert np.array_equal(f1.to_numpy()["key"], f2.to_numpy()["key"])

    def test_append_blocks_requires_full_last_block(self):
        mach = Machine(memory=256, block=8)
        f = EMFile(mach)
        f.append_blocks(blk(5))  # partial last block
        with pytest.raises(FileError):
            f.append_blocks(blk(8))

    def test_append_blocks_does_not_leak_on_failure(self):
        mach = Machine(memory=256, block=8)
        f = EMFile(mach)
        live = mach.disk.live_blocks
        with pytest.raises(FileError):
            f.append_blocks(np.zeros(4))  # wrong dtype
        assert mach.disk.live_blocks == live
        assert f.num_blocks == 0

    def test_from_records_counted_parity(self):
        mach = Machine(memory=256, block=8)
        f = EMFile.from_records(mach, blk(30), counted=True)
        assert mach.io.writes == f.num_blocks == 4
        assert mach.io.reads == 0
        assert np.array_equal(f.to_numpy()["key"], np.arange(30))


class TestScanEquivalence:
    def test_full_scan_counters_equal_per_block_scan(self):
        from repro.em import scan_chunks

        m1 = Machine(memory=512, block=8)
        m2 = Machine(memory=512, block=8)
        recs = blk(333)
        f1 = EMFile.from_records(m1, recs, counted=False)
        f2 = EMFile.from_records(m2, recs, counted=False)
        m1.disk.start_trace()
        m2.disk.start_trace()

        with m1.phase("scan"):
            got1 = [f1.read_block(i) for i in range(f1.num_blocks)]
        with m2.phase("scan"):
            with scan_chunks(f2, m2.load_limit, "scan") as chunks:
                got2 = list(chunks)

        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert m1.disk.stop_trace() == m2.disk.stop_trace()
        assert np.array_equal(
            composite(np.concatenate(got1)), composite(np.concatenate(got2))
        )
