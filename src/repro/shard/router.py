"""The coordinator: splitter-based sharding and merged query routing.

:func:`build_sharded_service` samples a top-level splitter set from the
input (phase ``"shard-split"``), carves the file into ``W`` key ranges,
and streams each range to its shard worker over the charged transport
(phase ``"shard-ingest"``).  The resulting :class:`ShardRouter` speaks
the same engine protocol as
:class:`~repro.service.online.LazyPartitionIndex` — ``n_live``,
``batch_select``, ``range_count``, ``partition_of`` — so the existing
:class:`~repro.service.frontend.QueryFrontend` sits in front of it
unchanged and the single-machine and sharded paths share all the
query/update/flush code in ``service/``.

Merging per-shard partial answers at the coordinator:

* **selects** — global ranks route to shards through the cumulative
  shard sizes (rank offsets); local answers reassemble in query order.
  Select and range-count answers are determined by the input multiset,
  so they are *element-identical* to the single-machine engine (the
  differential tests assert this).
* **bucket counts** — ``range_count`` sums the per-shard counts.
* **splitter candidates** — :meth:`ShardRouter.splitter_candidates`
  gathers per-shard approximate quantiles and merges them into one
  global candidate set.
* ``partition_of`` — local leaf index plus the leaf counts of the
  shards to the left.  Leaf *structure* depends on refinement history,
  so this (alone) is not asserted identical to the single-machine tree.

Every reply's worker-side I/O envelope feeds the ``svc_shard_io``
per-shard histogram, which works identically for in-process and
process workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..alg.sampling import approx_quantile_pivots, pick_pivots_from_sorted
from ..em.comparisons import cmp_search, cmp_sort
from ..em.errors import SpecError
from ..em.records import composite, composite_of, empty_records
from ..em.streams import scan_chunks
from ..obs.metrics import current_registry
from .transport import Message, ShardError
from .worker import make_pool

if TYPE_CHECKING:  # pragma: no cover
    from ..em.file import EMFile
    from ..em.machine import Machine

__all__ = ["ShardRouter", "build_sharded_service"]


class ShardRouter:
    """Routes engine-protocol queries across shard workers and merges
    the partial answers; construct via :func:`build_sharded_service`."""

    def __init__(self, machine: "Machine", pool, splitters: np.ndarray, sizes) -> None:
        self._machine = machine
        self._pool = pool
        self._splitters = np.asarray(splitters, dtype=np.int64)
        self._sizes = np.asarray(sizes, dtype=np.int64)
        self._cum = np.cumsum(self._sizes)
        # Coordinator-resident routing state: W-1 splitter composites
        # plus W cumulative sizes, 2W-1 words = ceil((2W-1)/3) records.
        self._resident = machine.memory.lease(
            -(-(2 * len(self._sizes) - 1) // 3), "shard-router-resident"
        )
        self._closed = False
        registry = current_registry()
        self._metrics = registry
        self._m_shard_io = registry.histogram(
            "svc_shard_io",
            "per-request worker-side I/O (reads+writes), by shard",
            labels=("shard",),
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def nshards(self) -> int:
        return int(len(self._sizes))

    @property
    def shard_sizes(self) -> np.ndarray:
        """Records per shard, left to right (a copy)."""
        return self._sizes.copy()

    @property
    def splitters(self) -> np.ndarray:
        """The top-level splitter composites (a copy)."""
        return self._splitters.copy()

    def _request(self, shard: int, kind: str, payload: object = None) -> Message:
        reply = self._pool.request(shard, kind, payload)
        if reply.io is not None:
            reads, writes, _ = reply.io
            self._m_shard_io.labels(shard=shard).observe(int(reads) + int(writes))
        return reply

    # ------------------------------------------------------------------
    # Engine protocol (QueryFrontend sits directly on these)
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return int(self._cum[-1])

    def select(self, rank: int):
        """The record of 1-based global ``rank``."""
        return self.batch_select(np.array([rank], dtype=np.int64))[0]

    def batch_select(self, ranks) -> np.ndarray:
        """Records at the given 1-based global ``ranks`` (aligned).

        Ranks route to shards by rank offset; each shard answers its
        local batch and the coordinator reassembles in query order.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return empty_records(0)
        n = self.n_live
        if n == 0:
            raise SpecError("select on an empty index")
        if ranks.min() < 1 or ranks.max() > n:
            raise SpecError(f"ranks must lie in [1, {n}]")
        with self._machine.phase("shard-route"):
            shard_of = np.searchsorted(self._cum, ranks, side="left")
            cmp_search(self._machine, len(ranks), self.nshards)
        base = self._cum - self._sizes
        out = empty_records(len(ranks))
        for shard in np.unique(shard_of):
            mask = shard_of == shard
            local = ranks[mask] - base[shard]
            reply = self._request(int(shard), "select", local)
            out[mask] = reply.payload
        return out

    def range_count(self, lo_key: int, hi_key: int) -> int:
        """Number of elements with key in ``(lo_key, hi_key]`` — the sum
        of the per-shard bucket counts."""
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        total = 0
        for shard in range(self.nshards):
            if self._sizes[shard] == 0:
                continue
            reply = self._request(shard, "range_count", (int(lo_key), int(hi_key)))
            total += int(reply.payload)
        return total

    def partition_of(self, key: int) -> int:
        """Global left-to-right leaf index of the leaf containing ``key``:
        the owning shard's local answer offset by the leaf counts of the
        shards to its left.  Structure-dependent (refinement history),
        unlike selects and range counts."""
        c = composite_of(int(key), 0)
        with self._machine.phase("shard-route"):
            shard = int(np.searchsorted(self._splitters, c, side="left"))
            cmp_search(self._machine, 1, max(1, len(self._splitters)))
        leaves_left = 0
        for left in range(shard):
            if self._sizes[left] == 0:
                continue
            leaves_left += int(self._request(left, "nleaves").payload)
        if self._sizes[shard] == 0:
            return leaves_left
        return leaves_left + int(self._request(shard, "part", int(key)).payload)

    # ------------------------------------------------------------------
    # Merged partial answers beyond the engine protocol
    # ------------------------------------------------------------------
    def splitter_candidates(self, n_pivots: int) -> np.ndarray:
        """A merged global splitter-candidate set: every shard samples
        ``n_pivots`` approximate quantiles of its range, the coordinator
        sorts the union and picks ``n_pivots`` evenly."""
        if n_pivots < 1:
            raise SpecError("need n_pivots >= 1")
        parts = []
        for shard in range(self.nshards):
            if self._sizes[shard] == 0:
                continue
            candidates = self._request(shard, "pivots", int(n_pivots)).payload
            if len(candidates):
                parts.append(candidates)
        if not parts:
            return empty_records(0)
        kernel = self._machine.kernel
        merged = kernel.sort_by_composite(kernel.concat(parts))
        cmp_sort(self._machine, len(merged))
        return pick_pivots_from_sorted(merged, min(int(n_pivots), len(merged)))

    def shard_io_stats(self) -> list[dict]:
        """Each worker's live counter snapshot (reads, writes,
        comparisons, lifetime totals, engine stats) — the balance and
        conservation data the benchmark and tests report."""
        return [
            dict(self._request(shard, "io_stats").payload)
            for shard in range(self.nshards)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every worker and release coordinator routing state."""
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.close()
        finally:
            if not self._resident.released:
                self._resident.release()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_sharded_service(
    machine: "Machine",
    file: "EMFile",
    *,
    shards: int,
    k: int,
    workers: str = "inproc",
    transport: str = "inproc",
    shard_memory: int | None = None,
    shard_block: int | None = None,
) -> ShardRouter:
    """Split ``file`` across ``shards`` workers and return the router.

    The input file is read (never modified or freed): one sampling pass
    picks ``shards - 1`` top-level splitters, then one distribution
    pass streams each key range to its worker over the charged
    transport.  ``k`` is the global leaf-resolution target; each shard
    gets a proportional share (``k_w ~ k * n_w / n``), so per-shard
    leaves match the single-machine engine's ``~n/k`` record target.

    ``shard_memory``/``shard_block`` default to the coordinator's own
    ``M``/``B``; pass ``shard_memory ~ n/W`` for the semi-external
    regime (Akhremtsev–Sanders–Schulz) where each shard holds its
    range mostly in memory.  Workers inherit the coordinator's sanitize
    mode.
    """
    if shards < 1:
        raise SpecError("need at least one shard")
    if k < 1:
        raise SpecError("need k >= 1")
    n = len(file)
    shard_memory = machine.M if shard_memory is None else int(shard_memory)
    shard_block = machine.B if shard_block is None else int(shard_block)

    if shards > 1 and n > 0:
        with machine.phase("shard-split"):
            pivots = approx_quantile_pivots(machine, file, shards - 1)
            comps = composite(pivots)
            # Distribution wants strictly increasing pivot composites;
            # duplicates just mean fewer nonempty key ranges.
            if len(comps) > 1:
                keep = np.concatenate(([True], np.diff(comps) > 0))
                comps = comps[keep]
    else:
        comps = np.empty(0, dtype=np.int64)

    pool = make_pool(
        workers,
        machine,
        shards,
        shard_memory=shard_memory,
        shard_block=shard_block,
        transport=transport,
        sanitize=machine.sanitize,
    )
    sent = [0] * shards
    try:
        kernel = machine.kernel
        with machine.phase("shard-ingest"):
            with scan_chunks(file, machine.load_limit, "shard-ingest-in") as chunks:
                for chunk in chunks:
                    if len(chunk) == 0:
                        continue
                    if len(comps):
                        idx = kernel.bucket_of(chunk, comps)
                        cmp_search(machine, len(chunk), len(comps))
                        groups = kernel.group_by_bucket(chunk, idx)
                    else:
                        groups = [(0, chunk)]
                    for bucket, group in groups:
                        pool.request(bucket, "ingest", group)
                        sent[bucket] += len(group)
        sizes = []
        for shard in range(shards):
            k_w = max(1, round(k * sent[shard] / n)) if n else 1
            sizes.append(int(pool.request(shard, "seal", k_w).payload))
    except BaseException:
        try:
            pool.close()
        except ShardError:
            pass  # a worker already failed; surface the original error
        raise
    if sum(sizes) != n:
        try:
            pool.close()
        except ShardError:
            pass
        raise ShardError(
            f"sharded ingest lost records: sent {n}, sealed {sum(sizes)}"
        )
    return ShardRouter(machine, pool, comps, sizes)
