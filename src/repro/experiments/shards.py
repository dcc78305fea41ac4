"""SHARDS — the coordinator/worker sharded service against one machine.

The sharded service splits the record file across ``W`` shard workers
by a sampled top-level splitter set and routes every query through the
:class:`~repro.shard.router.ShardRouter`, with all coordinator↔worker
traffic charged as block I/O on both endpoints.  Select and
range-count answers are determined by the input multiset, so sharding
must not change them: one sweep row per ``W``, each answering the same
zipfian trace as a single-machine :class:`LazyPartitionIndex` and
asserting element-identical answers.

Checks: answers identical to the single machine at every ``W``; no
record lost in distribution (shard sizes sum to ``N``); communication
is *visible* — the coordinator pays charged message I/O in both the
build and the trace phase, and the message count grows with ``W``;
the sampled splitters keep shard sizes within 2x of the mean.
"""

from __future__ import annotations

import numpy as np

from ..em.records import composite
from ..obs.metrics import MetricsRegistry, metrics_scope
from ..service import LazyPartitionIndex, Query, QueryFrontend
from ..shard import build_sharded_service
from ..workloads.generators import load_input, random_permutation
from ..workloads.queries import QUERY_TRACES
from .base import ExperimentResult, register, wide_machine

__all__ = []

_SEED = 7
_BATCH = 64
_SWEEP = [1, 2, 4, 8]


def _comm_totals(registry: MetricsRegistry) -> tuple[int, int]:
    """Total charged messages and bytes across shards and directions."""
    families = registry.to_dict()
    msgs = sum(
        c["value"]
        for c in families["svc_shard_msgs"]["children"].values()
    )
    nbytes = sum(
        c["value"]
        for c in families["svc_shard_bytes"]["children"].values()
    )
    return int(msgs), int(nbytes)


@register("SHARDS", "sharded coordinator/worker service")
def shards(quick: bool = False) -> ExperimentResult:
    n, k, q = (16_384, 32, 64) if quick else (2**18, 128, 256)
    records = random_permutation(n, seed=_SEED)
    trace = QUERY_TRACES["zipfian"](q, n, seed=_SEED, alpha=1.1)
    queries = [Query.select(int(r)) for r in trace]

    # Single-machine reference: same trace, same flush batch.
    mach = wide_machine()
    f = load_input(mach, records)
    mach.reset_counters()
    with LazyPartitionIndex(mach, f, k=k) as engine:
        single = QueryFrontend(mach, engine).run(queries, batch=_BATCH)
        single_io = mach.io.total
    f.free()
    mach.close()
    single_c = composite(np.array(single, dtype=records.dtype))

    headers = [
        "W", "coord io", "build", "trace", "msgs", "comm bytes",
        "io bal", "size bal", "identical",
    ]
    rows = []
    identity_ok = True
    conserved_ok = True
    charged_ok = True
    balance_ok = True
    msgs_by_w = []
    for w in _SWEEP:
        coord = wide_machine()
        fw = load_input(coord, records)
        coord.reset_counters()
        registry = MetricsRegistry()
        with metrics_scope(registry):
            with build_sharded_service(coord, fw, shards=w, k=k) as router:
                build_io = coord.io.total
                answers = QueryFrontend(coord, router).run(
                    queries, batch=_BATCH
                )
                trace_io = coord.io.total - build_io
                msgs, nbytes = _comm_totals(registry)
                stats = router.shard_io_stats()
                sizes = [int(s) for s in router.shard_sizes]
        total_io = coord.io.total
        fw.free()
        coord.close()

        identical = bool(np.array_equal(
            composite(np.array(answers, dtype=records.dtype)), single_c
        ))
        shard_io = [
            int(s["lifetime_reads"] + s["lifetime_writes"]) for s in stats
        ]
        io_bal = max(shard_io) / max(1.0, float(np.mean(shard_io)))
        size_bal = max(sizes) / max(1.0, float(np.mean(sizes)))
        msgs_by_w.append(msgs)
        identity_ok &= identical
        conserved_ok &= sum(sizes) == n
        charged_ok &= msgs > 0 and build_io > 0 and trace_io > 0
        balance_ok &= size_bal <= 2.0
        rows.append((
            w, total_io, build_io, trace_io, msgs, nbytes,
            round(io_bal, 3), round(size_bal, 3),
            "yes" if identical else "NO",
        ))

    checks = [
        (
            "sharded answers identical to the single machine at every W",
            identity_ok,
        ),
        ("no record lost in distribution (shard sizes sum to N)",
         conserved_ok),
        (
            "communication charged on the coordinator in build and trace",
            charged_ok,
        ),
        (
            "charged message count grows with W",
            all(a <= b for a, b in zip(msgs_by_w, msgs_by_w[1:]))
            and msgs_by_w[-1] > msgs_by_w[0],
        ),
        ("sampled splitters keep shard sizes within 2x of the mean",
         balance_ok),
    ]
    notes = [
        f"seed = {_SEED}, zipfian-1.1 trace, flush batch = {_BATCH}, "
        f"in-process workers, wide machine",
        f"single-machine reference: {single_io:,} I/Os on the same trace",
        "coord io counts only the coordinator: splitter sampling, the "
        "distribution pass, and charged sends/receives; per-shard engine "
        "work runs on each worker's own counters",
    ]
    return ExperimentResult(
        exp_id="SHARDS",
        title="sharded coordinator/worker service",
        claim=(
            "splitter-based sharding preserves every select answer "
            "element-for-element while making all coordinator-worker "
            "communication a visible, charged I/O cost"
        ),
        headers=headers,
        rows=rows,
        checks=checks,
        notes=notes,
    )
