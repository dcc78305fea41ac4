"""Stateful oracle tests of the partition service.

Hypothesis drives random interleavings of updates and queries against a
built :class:`PartitionIndex` and a lazy :class:`LazyPartitionIndex`
(so refinement happens mid-run), checking every answer against a sorted
multiset of keys.  After every step: ``n_live`` equals the oracle
(applied plus pending updates), and the ``svc-resident`` lease is sized
by the one resident rule — one record per splitter, partition,
tombstone, buffered update and cached answer.  Both run on sanitizing
machines, whose teardown raises on any leaked lease.

A :class:`MemoryBudgetError` is an allowed refusal: the flush keeps its
applied prefix and reinstates the rest, so no record may be lost or
duplicated.  A delete of a missing key is refused with
:class:`SpecError` at the flush that reaches it, and is dropped.
"""

import bisect

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.em import Machine, MemoryBudgetError, SpecError
from repro.em.records import composite
from repro.service import LazyPartitionIndex, PartitionIndex
from repro.workloads import load_input, uniform_random

#: Keys drawn by the update rules; inputs use the same range, so
#: appends collide with (and deletes find) existing keys.
KEY_RANGE = 4096


def resident_rule(index) -> int:
    """The one rule sizing the ``svc-resident`` lease."""
    total = len(index._splitters) + len(index._parts)
    total += sum(len(p.tombstones) for p in index._parts)
    if index._delta is not None:
        total += len(index._delta)
    return total + len(getattr(index, "_cache", ()))


class _ServiceMachine(RuleBasedStateMachine):
    """Shared oracle, query rules and invariants."""

    N = 0

    def __init__(self):
        super().__init__()
        self.machine = Machine(memory=512, block=16, sanitize=True)
        recs = uniform_random(self.N, seed=self.N, key_range=KEY_RANGE)
        self.file = load_input(self.machine, recs)
        self.index = self.open_index()
        self.keys = sorted(int(k) for k in recs["key"])

    def open_index(self):
        raise NotImplementedError

    def pending_missing(self) -> int:
        """Buffered deletes of keys the oracle never held."""
        delta = self.index._delta
        if delta is None:
            return 0
        return sum(1 for op in delta._ops if op[0] == "delete" and op[1] > KEY_RANGE)

    def attempt(self, fn):
        """Run one call; ``None`` when it was refused.

        A ``SpecError`` must come from a delete of a key the oracle
        never held (it is dropped); a ``MemoryBudgetError`` is the
        machine's typed refusal, after which no record may be lost.
        """
        try:
            return fn()
        except SpecError as exc:
            key = int(str(exc).rsplit(" ", 1)[-1])
            assert "no live element" in str(exc) and key > KEY_RANGE, exc
        except MemoryBudgetError:
            pass
        return None

    @rule(data=st.data())
    def select(self, data):
        n = len(self.keys)
        if n == 0:
            return
        ranks = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=6), label="ranks"
        )
        got = self.attempt(lambda: self.index.batch_select(np.array(ranks)))
        if got is None:
            return
        assert [int(k) for k in got["key"]] == [self.keys[r - 1] for r in ranks]
        order = np.argsort(ranks, kind="stable")
        assert np.all(np.diff(composite(got[order])) >= 0)

    @rule(lo=st.integers(-10, KEY_RANGE + 10), width=st.integers(0, KEY_RANGE))
    def range_count(self, lo, width):
        hi = lo + width
        got = self.attempt(lambda: self.index.range_count(lo, hi))
        if got is None:
            return
        want = bisect.bisect_right(self.keys, hi) - bisect.bisect_right(
            self.keys, lo
        )
        assert got == want

    @rule(key=st.integers(-10, KEY_RANGE + 10))
    def partition_of(self, key):
        j = self.attempt(lambda: self.index.partition_of(key))
        if j is None:
            return
        sizes = self.index.partition_sizes()
        assert 0 <= j < len(sizes)
        # Partitions left of j hold smaller keys only; partitions right
        # of j hold keys >= key only.
        below = bisect.bisect_left(self.keys, key)
        assert sum(sizes[:j]) <= below <= sum(sizes[: j + 1])

    @invariant()
    def live_count_matches_oracle(self):
        assert self.index.n_live == len(self.keys) - self.pending_missing()

    @invariant()
    def resident_lease_follows_the_rule(self):
        assert self.index._resident.size == resident_rule(self.index)

    def teardown(self):
        self.index.close()
        self.file.free()
        assert self.machine.memory.in_use == 0
        self.machine.close()


class BuiltIndexMachine(_ServiceMachine):
    """A built volatile index taking appends and deletes; hot appends
    and runs of deletes drive splits, merges, compactions and rebuilds."""

    N = 512

    def open_index(self):
        return PartitionIndex.build(self.machine, self.file, 8)

    def submit(self, ops) -> None:
        """Buffer ``ops`` in order, applying each to the oracle first."""
        for op, key in ops:
            if op == "append":
                bisect.insort(self.keys, key)
                self.attempt(lambda: self.index.append(np.array([key])))
            else:
                if key <= KEY_RANGE:
                    self.keys.remove(key)
                self.attempt(lambda: self.index.delete(key))

    @rule(keys=st.lists(st.integers(0, KEY_RANGE), min_size=1, max_size=40))
    def append(self, keys):
        for key in keys:
            bisect.insort(self.keys, key)
        self.attempt(lambda: self.index.append(np.array(keys, dtype=np.int64)))

    @rule(key=st.integers(0, KEY_RANGE), count=st.integers(1, 150))
    def append_hot(self, key, count):
        self.submit([("append", key)] * count)

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def delete_live(self, data):
        key = data.draw(st.sampled_from(self.keys), label="key")
        self.submit([("delete", key)])

    @precondition(lambda self: self.keys)
    @rule(data=st.data(), count=st.integers(1, 60))
    def delete_run(self, data, count):
        start = data.draw(st.integers(0, len(self.keys) - 1), label="start")
        self.submit([("delete", k) for k in self.keys[start : start + count]])

    @rule(key=st.integers(KEY_RANGE + 1, 2 * KEY_RANGE))
    def delete_missing(self, key):
        self.submit([("delete", key)])

    @rule()
    def flush(self):
        self.attempt(self.index.flush_updates)


class LazyIndexMachine(_ServiceMachine):
    """A lazy read-only engine refining as queries land."""

    N = 4096

    def open_index(self):
        return LazyPartitionIndex(self.machine, self.file, k=16)


TestBuiltIndexStateful = BuiltIndexMachine.TestCase
TestBuiltIndexStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestLazyIndexStateful = LazyIndexMachine.TestCase
TestLazyIndexStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
