"""The three benchmark workloads, each as a repeatable *episode*.

An episode builds its inputs and engine from the seed (the set-up),
then runs a fixed op sequence as a closed loop with one client: the
next op starts only after the previous one returned.  Every answer is
checked against an oracle outside the timed call.  Two episodes with
the same seed perform exactly the same simulated work, which the
runner asserts.

All workloads use the wide machine (``M = 4096``, ``B = 64``) and
``N = 2^18`` records.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

import numpy as np

import repro.alg as alg
import repro.core as core
import repro.service as service
import repro.shard as shard
from repro.analysis.verify import (
    VerificationError,
    check_multiselect,
    check_partitioned,
    check_sorted,
    check_splitters,
)
from repro.em import Machine
from repro.obs import MetricsRegistry, metrics_scope
from repro.workloads import (
    load_input,
    mixed_query_trace,
    random_permutation,
    update_batches,
    zipf_like,
)

from bench_machines import MachineSet
from bench_oracle import KeyOracle, leaf_order_ok

N = 1 << 18
MEMORY = 4096
BLOCK = 64
FLUSH = 8

OFFLINE_K = 64
OFFLINE_A = N // (2 * OFFLINE_K)
OFFLINE_B = 2 * N // OFFLINE_K
OFFLINE_RANKS = np.linspace(1, N, 16).astype(np.int64)

SERVE_K = 256
SHARDS = 4
SHARDED_QUERIES = 2048

DURABLE_STEPS = 160
APPENDS = 48
DELETES = 16


@dataclass
class Op:
    """One attempted op: latency lists it joins, outcome and cost."""

    read: bool
    write: bool
    ok: bool
    wall_s: float
    io: float
    writes: float
    comparisons: float


@dataclass
class Episode:
    setup_s: float = 0.0
    ops_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    sim: tuple[int, int, int] = (0, 0, 0)
    peak_disk_blocks: int = 0
    peak_memory_records: int = 0
    failures: dict[str, list] = field(default_factory=dict)
    layer: dict = field(default_factory=dict)

    def fail(self, step: int, what: str, exc: BaseException | None = None) -> None:
        """Count a failure, keeping the first step and message per kind.

        A ``MemoryBudgetError`` kind names the lease that was denied
        (numbered leases folded), which tells the known defects apart.
        """
        label = what
        if exc is not None:
            label = f"{what}: {type(exc).__name__}"
            lease = getattr(exc, "label", "")
            if lease:
                label += f" [{re.sub(r'[0-9]+$', '#', lease)}]"
        first = self.failures.setdefault(label, [step, 0, str(exc or "")[:160]])
        first[1] += 1

    def digest(self) -> tuple:
        """Everything simulated: must repeat exactly for one seed."""
        return (
            self.sim,
            self.peak_disk_blocks,
            self.peak_memory_records,
            tuple((op.ok, op.io, op.writes, op.comparisons) for op in self.ops),
            tuple(sorted((k, v[0], v[1]) for k, v in self.failures.items())),
        )


class OpTimer:
    """Times calls and charges their simulated cost across machines.

    ``probe`` is the traced run's layer profiler (or a null probe); it
    records only while an op or the set-up runs, never during oracle
    checks.
    """

    def __init__(self, machines: MachineSet, episode: Episode, probe) -> None:
        self.machines = machines
        self.episode = episode
        self.probe = probe

    def run(self, fn):
        """Returns ``(result, error, wall_s, (io, writes, comparisons))``."""
        r0, w0, c0 = self.machines.counters()
        with self.probe.active():
            t0 = time.perf_counter()
            try:
                result, error = fn(), None
            except Exception as exc:  # noqa: BLE001 - every op failure is counted
                result, error = None, exc
            wall = time.perf_counter() - t0
        r1, w1, c1 = self.machines.counters()
        self.episode.ops_s += wall
        sim = self.episode.sim
        self.episode.sim = (sim[0] + r1 - r0 + w1 - w0, sim[1] + w1 - w0, sim[2] + c1 - c0)
        return result, error, wall, (r1 - r0 + w1 - w0, w1 - w0, c1 - c0)


def _finish(episode: Episode, machines: MachineSet) -> Episode:
    episode.peak_disk_blocks = machines.peak_disk_blocks()
    episode.peak_memory_records = machines.peak_memory_records()
    return episode


# ----------------------------------------------------------------------
# offline-solve
# ----------------------------------------------------------------------
def _solvers():
    """(name, solve, check, is_write) for one input; the sort is the
    write op, the solve that writes the whole input back to disk."""
    k, a, b = OFFLINE_K, OFFLINE_A, OFFLINE_B

    def splitters(m, f):
        return core.approximate_splitters(m, f, k, a, b)

    def partition(m, f):
        return core.approximate_partition(m, f, k, a, b)

    def multiselect(m, f):
        return core.multi_select(m, f, OFFLINE_RANKS)

    def sort(m, f):
        return alg.external_sort(m, f)

    def check_splits(recs, res):
        check_splitters(recs, res.splitters, a, b, k)

    def check_ranks(recs, answers):
        check_multiselect(recs, OFFLINE_RANKS, answers)

    def check_sort(recs, out):
        try:
            check_sorted(recs, out.to_numpy())
        finally:
            out.free()

    def check_partition(recs, pf):
        try:
            check_partitioned(recs, pf, a, b, k)
        finally:
            pf.free()

    return (
        ("splitters", splitters, check_splits, False),
        ("partition", partition, check_partition, False),
        ("multiselect", multiselect, check_ranks, False),
        ("sort", sort, check_sort, True),
    )


def offline_episode(seed: int, machines: MachineSet, probe) -> Episode:
    """Four solves on one input: a permutation for even seeds, Zipf-like
    keys with many duplicates for odd ones."""
    episode = Episode()
    generate = (random_permutation, zipf_like)[seed % 2]
    with machines.observe():
        with probe.active():
            t0 = time.perf_counter()
            records = generate(N, seed=seed)
            machine = Machine(MEMORY, BLOCK)
            file = load_input(machine, records)
            episode.setup_s = time.perf_counter() - t0
        timer = OpTimer(machines, episode, probe)
        for step, (name, solve, check, is_write) in enumerate(_solvers()):
            result, error, wall, cost = timer.run(lambda: solve(machine, file))
            ok = error is None
            if ok:
                try:
                    check(records, result)
                except VerificationError as exc:
                    ok = False
                    episode.fail(step, f"{name} wrong answer", exc)
            else:
                episode.fail(step, name, error)
            episode.ops.append(Op(True, is_write, ok, wall, *cost))
            if ok and is_write:
                episode.write_s.append(wall)
        file.free()
    return _finish(episode, machines)


# ----------------------------------------------------------------------
# Shared serve helpers
# ----------------------------------------------------------------------
def _flush(timer: OpTimer, frontend, queries: list[tuple], step: int):
    """Submit and flush one batch; returns ``(answers, per-query Op args)``."""
    for query in queries:
        frontend.submit(query)
    answers, error, wall, cost = timer.run(frontend.flush)
    if error is not None:
        timer.episode.fail(step, "query flush", error)
    share = [c / len(queries) for c in cost]
    return answers, error, wall, share


def _check_exact(episode: Episode, oracle: KeyOracle, query, answer, step) -> bool:
    if oracle.check(query, answer):
        return True
    episode.fail(step, f"{query[0]} wrong answer")
    return False


def counter_total(registry, name: str, child: str | None = None) -> float:
    """A counter's value, summed over its labelled children unless one
    child (``"label=value"``) is named; 0 when it was never created."""
    family = registry.to_dict().get(name) if registry is not None else None
    if not family:
        return 0.0
    if "children" not in family:
        return float(family.get("value", 0))
    children = family["children"]
    if child is not None:
        return float(children.get(child, {}).get("value", 0))
    return float(sum(c.get("value", 0) for c in children.values()))


# ----------------------------------------------------------------------
# serve-read-sharded
# ----------------------------------------------------------------------
def sharded_episode(seed: int, machines: MachineSet, probe) -> Episode:
    episode = Episode()
    registry = MetricsRegistry()
    with machines.observe(), metrics_scope(registry):
        with probe.active():
            t0 = time.perf_counter()
            records = random_permutation(N, seed=seed)
            machine = Machine(MEMORY, BLOCK)
            file = load_input(machine, records)
            t_ingest = time.perf_counter()
            router = shard.build_sharded_service(
                machine, file, shards=SHARDS, k=SERVE_K
            )
            ingest_s = time.perf_counter() - t_ingest
            frontend = service.QueryFrontend(machine, router)
            episode.setup_s = time.perf_counter() - t0
        episode.write_s.append(ingest_s)
        oracle = KeyOracle(records["key"])
        trace = mixed_query_trace(SHARDED_QUERIES, N, seed=seed + 1)
        timer = OpTimer(machines, episode, probe)
        shard_io0 = machines.io_of("shard-")
        msgs0 = counter_total(registry, "svc_shard_msgs")
        bytes0 = counter_total(registry, "svc_shard_bytes")
        for step, start in enumerate(range(0, len(trace), FLUSH)):
            queries = trace[start : start + FLUSH]
            answers, error, wall, share = _flush(timer, frontend, queries, step)
            leaves = []
            for i, query in enumerate(queries):
                ok = error is None
                if ok and query[0] == "partition_of":
                    leaves.append((int(query[1]), answers[i]))
                elif ok:
                    ok = _check_exact(episode, oracle, query, answers[i], step)
                episode.ops.append(Op(True, False, ok, wall, *share))
            if leaves and not leaf_order_ok(leaves):
                episode.fail(step, "partition_of wrong answer")
                for op, query in zip(episode.ops[-len(queries) :], queries):
                    if query[0] == "partition_of":
                        op.ok = False
        shard_io = [b - a for a, b in zip(shard_io0, machines.io_of("shard-"))]
        episode.layer = {
            "registry": registry,
            "flushes": list(frontend.flushes),
            "shard_io": shard_io,
            "msgs": counter_total(registry, "svc_shard_msgs") - msgs0,
            "bytes": counter_total(registry, "svc_shard_bytes") - bytes0,
        }
        router.close()
        file.free()
    return _finish(episode, machines)


# ----------------------------------------------------------------------
# serve-write-durable
# ----------------------------------------------------------------------
def _apply_group(index, group: list[tuple]) -> list[BaseException]:
    """Submit every op of one update group, then group-commit it.

    A call that raises has still buffered its op (the delta buffer
    records before it accounts memory), so the group is submitted whole
    and every error is returned rather than stopping the group.
    """
    errors: list[BaseException] = []
    for op in group:
        try:
            if op[0] == "append":
                index.append(op[1])
            else:
                index.delete(op[1])
        except Exception as exc:  # noqa: BLE001 - counted by the caller
            errors.append(exc)
    try:
        index.flush_updates()
    except Exception as exc:  # noqa: BLE001 - counted by the caller
        errors.append(exc)
    return errors


def durable_episode(seed: int, machines: MachineSet, probe) -> Episode:
    episode = Episode()
    registry = MetricsRegistry()
    with machines.observe(), metrics_scope(registry):
        with probe.active():
            t0 = time.perf_counter()
            records = random_permutation(N, seed=seed)
            machine = Machine(MEMORY, BLOCK)
            file = load_input(machine, records)
            index = service.DurablePartitionIndex.build_durable(
                machine, file, SERVE_K
            )
            frontend = service.QueryFrontend(machine, index)
            episode.setup_s = time.perf_counter() - t0
        file.free()
        oracle = KeyOracle(records["key"])
        trace = mixed_query_trace(DURABLE_STEPS * FLUSH, N, seed=seed + 1)
        plan = update_batches(records["key"], DURABLE_STEPS, APPENDS, DELETES, seed=seed + 2)
        timer = OpTimer(machines, episode, probe)
        acked: set[int] = set()
        for step in range(DURABLE_STEPS):
            queries = trace[step * FLUSH : (step + 1) * FLUSH]
            answers, error, wall, share = _flush(timer, frontend, queries, step)
            sizes = index.partition_sizes() if error is None else None
            for i, query in enumerate(queries):
                ok = error is None
                if ok and query[0] == "partition_of":
                    ok = oracle.check_partition_of(query[1], answers[i], sizes)
                    if not ok:
                        episode.fail(step, "partition_of wrong answer")
                elif ok:
                    ok = _check_exact(episode, oracle, query, answers[i], step)
                episode.ops.append(Op(True, False, ok, wall, *share))

            group = plan[step]
            errors, _, wall, cost = timer.run(lambda: _apply_group(index, group))
            oracle.apply(group)
            for exc in errors:
                episode.fail(step, "update group", exc)
            ok = not errors
            if index.n_live != oracle.n:
                ok = False
                episode.fail(step, "update group lost or duplicated records")
            episode.ops.append(Op(False, True, ok, wall, *cost))
            if ok:
                episode.write_s.append(wall)
                acked.add(step)

        episode.layer = {
            "registry": registry,
            "flushes": list(frontend.flushes),
            "stats": dict(index.stats),
            "durability": index.durability_stats(),
        }
        _crash_and_recover(timer, index, machine, plan, acked, records)
    return _finish(episode, machines)


def _crash_and_recover(timer, index, machine, plan, acked, records) -> None:
    """Final op: ``abandon()`` then ``recover()``; every acknowledged
    group must be readable afterwards."""
    episode = timer.episode
    step = DURABLE_STEPS
    manifest = index.manifest_block

    def crash_and_recover():
        index.abandon()
        return service.recover(machine, manifest)

    recovered, error, wall, cost = timer.run(crash_and_recover)
    ok = error is None
    if not ok:
        episode.fail(step, "recover", error)
    else:
        try:
            ok = _acked_groups_readable(recovered, plan, acked, int(records["key"].max()))
        except Exception as exc:  # noqa: BLE001 - a failed read-back is counted
            ok = False
            episode.fail(step, "recover read-back", exc)
        else:
            if not ok:
                episode.fail(step, "recover lost an acknowledged group")
        finally:
            recovered.abandon()
    episode.ops.append(Op(False, False, ok, wall, *cost))


def _acked_groups_readable(index, plan, acked, max_key: int) -> bool:
    """Each acknowledged group appended a fresh contiguous key run; its
    keys not deleted by any later group must all be present."""
    deleted_after: set[int] = set()
    later = {}
    for step in range(len(plan) - 1, -1, -1):
        later[step] = set(deleted_after)
        deleted_after.update(op[1] for op in plan[step] if op[0] == "delete")
    fresh = max_key + 1
    for step in range(len(plan)):
        lo, hi = fresh, fresh + APPENDS - 1
        fresh += APPENDS
        if step not in acked:
            continue
        keys = set(range(lo, hi + 1))
        must = len(keys - later[step])
        got = index.range_count(lo - 1, hi)
        if not must <= got <= len(keys):
            return False
    return True


WORKLOADS = {
    "offline-solve": offline_episode,
    "serve-read-sharded": sharded_episode,
    "serve-write-durable": durable_episode,
}
