"""Sorted-multiset oracle for the partition-service workloads.

Every service workload starts from a permutation and appends only fresh
keys, so keys are distinct and a key identifies its record.  The oracle
keeps the live keys sorted and answers each query kind exactly; all of
its work happens outside the timed calls.
"""

from __future__ import annotations

import numpy as np


class KeyOracle:
    """Live keys of the served file, kept sorted."""

    def __init__(self, keys) -> None:
        self.keys = np.sort(np.asarray(keys, dtype=np.int64))
        if len(self.keys) > 1 and not np.all(np.diff(self.keys) > 0):
            raise ValueError("the service oracle needs distinct keys")

    @property
    def n(self) -> int:
        return len(self.keys)

    def count_le(self, key: int) -> int:
        return int(np.searchsorted(self.keys, key, side="right"))

    def count_lt(self, key: int) -> int:
        return int(np.searchsorted(self.keys, key, side="left"))

    def rank_of(self, query: tuple) -> int:
        """The 1-based rank a select or quantile query asks for."""
        from repro.apps.order_stats import rank_of_fraction

        if query[0] == "select":
            return int(query[1])
        return rank_of_fraction(self.n, float(query[1]))

    def apply(self, group: list[tuple]) -> None:
        """Apply one ``update_batches`` group.

        Its deletes only target keys live before the group and its
        appends are fresh keys, so the group applies as one insert and
        one delete whatever the order of its ops.
        """
        appends = [op[1] for op in group if op[0] == "append"]
        doomed = np.array([op[1] for op in group if op[0] == "delete"], dtype=np.int64)
        pos = np.searchsorted(self.keys, doomed)
        if np.any(pos >= len(self.keys)) or np.any(
            self.keys[np.minimum(pos, len(self.keys) - 1)] != doomed
        ):
            raise ValueError("update plan deletes an absent key")
        keys = np.delete(self.keys, pos)
        if appends:
            new = np.sort(np.concatenate(appends).astype(np.int64))
            keys = np.insert(keys, np.searchsorted(keys, new), new)
        self.keys = keys

    def check(self, query: tuple, answer) -> bool:
        """True when a select/quantile/range_count answer is exact."""
        kind = query[0]
        if kind in ("select", "quantile"):
            rank = self.rank_of(query)
            return 1 <= rank <= self.n and int(answer["key"]) == int(
                self.keys[rank - 1]
            )
        if kind == "range_count":
            lo, hi = int(query[1]), int(query[2])
            return int(answer) == self.count_le(hi) - self.count_le(lo)
        raise ValueError(f"no exact oracle for {kind!r}")

    def check_partition_of(self, key: int, answer, sizes) -> bool:
        """Eager index: partition ``answer`` must be where ``key`` falls.

        Every record in an earlier partition has a smaller key and every
        record in a later one a key at least as large, so the count of
        keys below ``key`` lies between the live sizes before and through
        partition ``answer``.
        """
        j = int(answer)
        if not 0 <= j < len(sizes):
            return False
        cum = np.cumsum(np.asarray(sizes, dtype=np.int64))
        below = int(cum[j - 1]) if j > 0 else 0
        return below <= self.count_lt(int(key)) <= int(cum[j])


def leaf_order_ok(keys_answers: list[tuple[int, int]]) -> bool:
    """Lazy engines: within one flush the leaf index never decreases as
    the key grows, and is never negative (the tree does not refine while
    ``partition_of`` queries are answered)."""
    ordered = sorted(keys_answers)
    leaves = [int(a) for _, a in ordered]
    return all(leaf >= 0 for leaf in leaves) and all(
        a <= b for a, b in zip(leaves, leaves[1:])
    )
