"""Per-layer metrics of the traced run.

Every value is per episode (one pass of the workload's fixed set-up and
op sequence) and averaged over the traced episodes of a run; shard wire
traffic is per op.  Simulated counts repeat exactly; times are self
times (span time minus child spans) unless named ``*_s`` after an
entry point (``merge_s``, ``flush_s``, ``snapshot_s``), which are
inclusive.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

import statistics

from repro.em import RECV_PHASE, SEND_PHASE

from bench_workloads import counter_total

SELF_TIME_LAYERS = (
    "em.disk",
    "em.kernels",
    "em.file",
    "alg.sort",
    "alg.distribute",
    "alg.sampling",
    "alg.selection",
    "alg.multipartition",
    "core.memory_splitters",
    "core.multiselect",
    "core.intermixed",
    "core.splitters",
    "core.partitioning",
    "service.online",
    "service.index",
    "service.durability",
    "shard.transport",
    "shard.router",
    "shard.worker",
    "obs.metrics",
)

SIM_IO_LAYERS = (
    "alg.sort",
    "alg.distribute",
    "alg.multipartition",
    "core.memory_splitters",
    "core.multiselect",
    "core.intermixed",
    "core.splitters",
    "core.partitioning",
)


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def balance(values) -> float:
    """max/mean of per-shard quantities (1.0 = perfectly even)."""
    values = list(values)
    if not values or sum(values) == 0:
        return 0.0
    return max(values) * len(values) / sum(values)


def _phase_totals(traces, names) -> tuple[int, int]:
    """(I/O, writes) charged inside phases with these names, all machines."""
    io = writes = 0
    for trace in traces:
        for span in trace.root.walk():
            if span.name in names:
                io += span.cum_io
                writes += span.cum_writes
    return io, writes


def _episode_layers(episode) -> dict[str, float]:
    prof = episode.layer["prof"]
    traces = episode.layer["traces"]
    registry = episode.layer.get("registry")
    flushes = episode.layer.get("flushes", [])
    stats = episode.layer.get("stats", {})
    durability = episode.layer.get("durability", {})
    n_ops = len(episode.ops)
    out: dict[str, float] = {}

    disk_calls = prof.calls["em.disk"]
    out["em.disk.calls"] = disk_calls
    out["em.disk.blocks_per_call"] = ratio(prof.counts["em.disk.blocks"], disk_calls)
    out["em.streams.self_s"] = prof.self_s["em.streams"] + prof.self_s["em.streams.merge"]
    out["em.streams.merge_s"] = prof.incl_s["em.streams.merge"]
    out["em.records.composite_calls"] = prof.counts["em.records.composite_calls"]
    out["em.kernels.records"] = prof.counts["em.kernels.records"]
    out["em.machine.peak_memory_records"] = episode.peak_memory_records
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = prof.self_s[layer]
    for layer in SIM_IO_LAYERS:
        out[f"{layer}.sim_io"] = prof.sim_io[layer]

    select_ranks = sum(f.select_ranks for f in flushes)
    distinct = sum(f.distinct_ranks for f in flushes)
    out["service.frontend.coalescing_ratio"] = ratio(distinct, select_ranks)
    out["service.frontend.flush_s"] = prof.incl_s["service.frontend"]
    out["service.online.refinements"] = counter_total(registry, "svc_refinements")
    out["service.online.leaf_loads"] = counter_total(registry, "svc_leaf_loads")
    hits = counter_total(registry, "svc_cache_lookups", "result=hit")
    misses = counter_total(registry, "svc_cache_lookups", "result=miss")
    out["service.online.cache_hit_ratio"] = ratio(hits, hits + misses)
    for key in ("compactions", "splits", "merges"):
        out[f"service.index.{key}"] = stats.get(key, 0)
    out["service.index.resident_peak_records"] = prof.counts[
        "service.index.resident_peak_records"
    ]
    out["service.updates.flush_s"] = prof.incl_s["service.updates"]
    wal_writes = durability.get("wal_writes", 0)
    out["service.durability.wal_writes"] = wal_writes
    out["service.durability.entries_per_wal_block"] = ratio(
        prof.counts["service.durability.wal_entries"], wal_writes
    )
    out["service.durability.snapshots"] = durability.get("snapshots", 0)
    out["service.durability.snapshot_blocks"] = _phase_totals(traces, {"svc-snapshot"})[1]
    out["service.durability.snapshot_s"] = prof.incl_s["service.durability.snapshot"]

    out["shard.wire.msgs_per_op"] = ratio(episode.layer.get("msgs", 0), n_ops)
    out["shard.wire.bytes_per_op"] = ratio(episode.layer.get("bytes", 0), n_ops)
    out["shard.wire.sim_io"] = _phase_totals(traces, {SEND_PHASE, RECV_PHASE})[0]
    out["shard.io_balance"] = balance(episode.layer.get("shard_io", []))

    wall = episode.setup_s + episode.ops_s
    out["episode.wall_s"] = wall
    out["episode.sim_io"] = episode.sim[0]
    out["unattributed.self_s"] = wall - sum(prof.self_s.values())
    return out


UNITS = {
    "calls": "count",
    "blocks_per_call": "blocks/call",
    "composite_calls": "count",
    "records": "records",
    "peak_memory_records": "records",
    "sim_io": "blocks",
    "coalescing_ratio": "ratio",
    "cache_hit_ratio": "ratio",
    "refinements": "count",
    "leaf_loads": "count",
    "compactions": "count",
    "splits": "count",
    "merges": "count",
    "resident_peak_records": "records",
    "wal_writes": "blocks",
    "entries_per_wal_block": "entries/block",
    "snapshots": "count",
    "snapshot_blocks": "blocks",
    "msgs_per_op": "msgs/op",
    "bytes_per_op": "bytes/op",
    "io_balance": "ratio",
    "overhead_ratio": "ratio",
}


def _unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    return UNITS[leaf]


def layer_metrics(plain, traced) -> dict:
    per_episode = [_episode_layers(ep) for ep in traced]
    metrics = {
        name: {"value": float(statistics.fmean(e[name] for e in per_episode)), "unit": _unit(name)}
        for name in per_episode[0]
    }
    plain_wall = sum(ep.setup_s + ep.ops_s for ep in plain) / len(plain)
    traced_wall = sum(ep.setup_s + ep.ops_s for ep in traced) / len(traced)
    metrics["trace.overhead_ratio"] = {
        "value": ratio(traced_wall, plain_wall),
        "unit": "ratio",
    }
    return metrics
