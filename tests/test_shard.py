"""Tests for the sharded coordinator/worker service (``repro.shard``).

Covers the charged-communication primitive (``em.wire``), the transport
endpoints, the differential guarantee (sharded answers element-identical
to the single-machine engine across shard counts, kernels, and sanitize
mode, with counter conservation under the tracer), worker-failure
behavior, real process workers, the shard-skew trace generator, and the
R7 isolation lint rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import multi_select
from repro.em import Machine, composite
from repro.em.errors import SpecError
from repro.em.wire import (
    RECV_PHASE,
    SEND_PHASE,
    WORDS_PER_RECORD,
    charge_recv,
    charge_send,
    message_blocks,
    payload_words,
)
from repro.lint import get_rules, lint_source
from repro.obs import MetricsRegistry, Tracer, metrics_scope
from repro.service import LazyPartitionIndex, Query, QueryFrontend
from repro.shard import (
    PROTOCOL,
    InProcessWorkerPool,
    InProcTransport,
    Message,
    SerializedTransport,
    ShardError,
    ShardWorker,
    build_sharded_service,
    make_pool,
)
from repro.workloads import load_input
from repro.workloads.generators import random_permutation
from repro.workloads.queries import QUERY_TRACES, shard_skew_trace

from .conftest import KERNEL_SIDES, kernel_side, records_from_keys


# ----------------------------------------------------------------------
# em.wire — the charging primitive
# ----------------------------------------------------------------------
class TestWire:
    def test_payload_words_units(self):
        recs = records_from_keys(range(5))
        assert payload_words(recs) == WORDS_PER_RECORD * 5
        assert payload_words(np.arange(7, dtype=np.int64)) == 7
        assert payload_words(None) == 1
        assert payload_words(3) == 1
        assert payload_words(2.5) == 1
        assert payload_words("abcdefgh") == 1
        assert payload_words("abcdefghi") == 2
        assert payload_words(("select", np.arange(4))) == 5
        assert payload_words({"a": 1, "bb": (2, 3)}) == 5

    def test_payload_words_rejects_unchargeable(self):
        with pytest.raises(TypeError):
            payload_words(object())

    def test_message_blocks(self):
        # B = 8 records carry 3*8 = 24 payload words per block.
        assert message_blocks(0, 8) == 1  # envelope floor
        assert message_blocks(24, 8) == 1
        assert message_blocks(25, 8) == 2
        with pytest.raises(ValueError):
            message_blocks(-1, 8)
        with pytest.raises(ValueError):
            message_blocks(10, 0)

    def test_charge_send_pays_block_writes(self, small_machine):
        m = small_machine
        r0, w0 = m.io.reads, m.io.writes
        charge_send(m, 3, SEND_PHASE)
        assert m.io.writes == w0 + 3
        assert m.io.reads == r0

    def test_charge_recv_pays_block_reads_only(self, small_machine):
        m = small_machine
        lw0 = m.disk.lifetime.writes
        r0, w0 = m.io.reads, m.io.writes
        charge_recv(m, 2, RECV_PHASE)
        assert m.io.reads == r0 + 2
        assert m.io.writes == w0
        # The arrival write is uncounted — invisible even to lifetime
        # counters, so tracer conservation holds.
        assert m.disk.lifetime.writes == lw0

    def test_charges_conserve_under_sanitize_tracer(self):
        m = Machine(memory=256, block=8, sanitize=True)
        tracer = Tracer()
        tracer.attach(m)
        charge_send(m, 2)
        charge_recv(m, 2)
        tracer.detach(m)  # raises CounterConservationError on drift
        m.close()


# ----------------------------------------------------------------------
# Transports and endpoints
# ----------------------------------------------------------------------
class TestTransport:
    def _machines(self):
        return Machine(memory=256, block=8), Machine(memory=256, block=8)

    def test_both_endpoints_charged(self):
        coord, work = self._machines()
        link = InProcTransport(0)
        ce, we = link.coordinator_end(coord), link.worker_end(work)
        payload = np.arange(100, dtype=np.int64)
        blocks = message_blocks(payload_words(("ping", payload, None)), 8)
        assert blocks > 1  # a multi-block message, not just the envelope

        w0 = coord.io.writes
        ce.send(Message("ping", payload))
        assert coord.io.writes == w0 + blocks  # sender pays writes

        r0 = work.io.reads
        got = we.recv()
        assert work.io.reads == r0 + blocks  # receiver pays reads
        assert got.kind == "ping" and np.array_equal(got.payload, payload)
        assert got.shard == 0 and got.seq == 0

    def test_serialized_transport_charges_identically(self):
        recs = records_from_keys(range(40))
        messages = [
            Message("ingest", recs),
            Message("select", np.arange(1, 9, dtype=np.int64)),
            Message("range_count", (3, 17)),
        ]
        counters = []
        for cls in (InProcTransport, SerializedTransport):
            coord, work = self._machines()
            link = cls(1)
            ce, we = link.coordinator_end(coord), link.worker_end(work)
            for msg in messages:
                ce.send(msg)
                got = we.recv()
                assert got.kind == msg.kind
            counters.append(
                (coord.io.reads, coord.io.writes, work.io.reads, work.io.writes)
            )
        assert counters[0] == counters[1]

    def test_serialized_payload_round_trips(self):
        coord, work = self._machines()
        link = SerializedTransport(0)
        ce, we = link.coordinator_end(coord), link.worker_end(work)
        recs = records_from_keys([5, 1, 9])
        ce.send(Message("ingest", recs))
        got = we.recv()
        assert np.array_equal(composite(got.payload), composite(recs))

    def test_sequence_gap_raises_shard_error(self):
        coord, work = self._machines()
        link = InProcTransport(0)
        ce, we = link.coordinator_end(coord), link.worker_end(work)
        ce.send(Message("a"))
        ce.send(Message("b"))
        link._to_worker.popleft()  # a transport bug drops message 0
        with pytest.raises(ShardError, match="expected message seq 0"):
            we.recv()

    def test_endpoint_metrics(self):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            coord, work = self._machines()
            link = InProcTransport(2)
            ce, we = link.coordinator_end(coord), link.worker_end(work)
            ce.send(Message("ping"))
            we.recv()
        fams = registry.to_dict()
        sent = fams["svc_shard_msgs"]["children"]["shard=2,direction=send"]
        recv = fams["svc_shard_msgs"]["children"]["shard=2,direction=recv"]
        assert sent["value"] == 1 and recv["value"] == 1
        words = payload_words(("ping", None, None))
        nbytes = fams["svc_shard_bytes"]["children"]["shard=2,direction=send"]
        assert nbytes["value"] == 8 * words


# ----------------------------------------------------------------------
# Differential: sharded == single machine
# ----------------------------------------------------------------------
def _reference_select(records: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Offline multi-selection ground truth on a fresh machine."""
    mach = Machine(memory=512, block=16)
    f = load_input(mach, records)
    unique, inverse = np.unique(ranks, return_inverse=True)
    out = multi_select(mach, f, unique)[inverse]
    f.free()
    return out


class TestDifferential:
    N, K, Q = 4096, 32, 48

    @pytest.mark.parametrize("kernel", KERNEL_SIDES)
    @pytest.mark.parametrize("w", [1, 2, 4, 8])
    def test_sharded_matches_single_machine(self, w, kernel):
        records = random_permutation(self.N, seed=11)
        trace = QUERY_TRACES["zipfian"](self.Q, self.N, seed=11, alpha=1.2)
        queries = [Query.select(int(r)) for r in trace]
        expected = composite(_reference_select(records, trace))

        # Sanitize mode + tracer: detach verifies counter conservation
        # on the coordinator and every labeled shard machine.
        with kernel_side(kernel), Tracer().install() as tracer:
            coord = Machine(memory=512, block=16, sanitize=True)
            f = load_input(coord, records)
            coord.reset_counters()
            with build_sharded_service(coord, f, shards=w, k=self.K) as router:
                assert router.nshards == w
                assert router.n_live == self.N
                assert sum(router.shard_sizes) == self.N
                answers = QueryFrontend(coord, router).run(queries, batch=16)
                # range_count merges per-shard bucket counts; keys are a
                # permutation of 0..N-1, so ground truth is arithmetic.
                assert router.range_count(100, 2000) == 1900
                assert router.range_count(-1, self.N) == self.N
                stats = router.shard_io_stats()
            assert coord.io.total > 0  # communication was charged
            f.free()
            coord.close()
        got = composite(np.array(answers, dtype=records.dtype))
        assert np.array_equal(got, expected)
        assert sum(s["n"] for s in stats) == self.N
        labels = {t.label for t in tracer.traces}
        assert {f"shard-{i}" for i in range(w)} <= labels

    def test_io_stats_match_worker_machines(self):
        records = random_permutation(1024, seed=5)
        coord = Machine(memory=512, block=16)
        f = load_input(coord, records)
        with build_sharded_service(coord, f, shards=3, k=16) as router:
            router.batch_select(np.arange(1, 40, dtype=np.int64))
            stats = router.shard_io_stats()
            # Tests may reach into the pool; shard/ code may not (R7).
            for s, worker in zip(stats, router._pool._workers):
                m = worker._machine
                # The snapshot precedes the reply's own send charge, so
                # live writes are exactly one reply transmission ahead.
                assert s["lifetime_reads"] == m.disk.lifetime.reads
                sent = m.disk.lifetime.writes - s["lifetime_writes"]
                assert 1 <= sent <= 2
                assert m.kernel is coord.kernel
        f.free()
        coord.close()

    def test_transport_choice_does_not_change_costs(self):
        records = random_permutation(1024, seed=5)
        totals = []
        for transport in ("inproc", "serialized"):
            coord = Machine(memory=512, block=16)
            f = load_input(coord, records)
            coord.reset_counters()
            with build_sharded_service(
                coord, f, shards=4, k=16, transport=transport
            ) as router:
                router.batch_select(np.arange(1, 100, dtype=np.int64))
                stats = router.shard_io_stats()
            totals.append((
                coord.io.total,
                tuple((s["lifetime_reads"], s["lifetime_writes"]) for s in stats),
            ))
            f.free()
            coord.close()
        assert totals[0] == totals[1]

    def test_splitter_candidates_merged_and_sorted(self):
        records = random_permutation(2048, seed=9)
        coord = Machine(memory=512, block=16)
        f = load_input(coord, records)
        with build_sharded_service(coord, f, shards=4, k=16) as router:
            cands = router.splitter_candidates(8)
            comps = composite(cands)
            assert len(cands) == 8
            assert np.all(np.diff(comps) >= 0)
        f.free()
        coord.close()

    def test_build_rejects_bad_parameters(self):
        coord = Machine(memory=512, block=16)
        f = load_input(coord, random_permutation(128, seed=0))
        with pytest.raises(SpecError):
            build_sharded_service(coord, f, shards=0, k=8)
        with pytest.raises(SpecError):
            build_sharded_service(coord, f, shards=2, k=0)
        f.free()
        coord.close()


# ----------------------------------------------------------------------
# The request protocol table
# ----------------------------------------------------------------------
class TestProtocol:
    @pytest.mark.parametrize("workers", ["inproc", "process"])
    def test_unknown_kind_rejected_at_coordinator(self, workers):
        coord = Machine(memory=512, block=16)
        pool = make_pool(workers, coord, 2, shard_memory=512, shard_block=16)
        try:
            before = (coord.io.reads, coord.io.writes, coord.comparisons)
            with pytest.raises(ShardError, match="unknown request kind 'bogus'"):
                pool.request(1, "bogus")
            assert (coord.io.reads, coord.io.writes, coord.comparisons) == before
            # Nothing was sent, so the link's sequence numbers still agree.
            assert pool.request(1, "io_stats").kind == "io_stats"
        finally:
            pool.close()
        coord.close()

    def test_query_before_seal_replies_error(self):
        coord = Machine(memory=512, block=16)
        link = InProcTransport(0)
        worker = ShardWorker(0, link, memory=512, block=16)
        end = link.coordinator_end(coord)
        payloads = {"select": np.array([1]), "range_count": (0, 5), "part": 3}
        for kind, request in PROTOCOL.items():
            if not request.sealed:
                continue
            end.send(Message(kind, payloads.get(kind, 1)))
            worker.step()
            reply = end.recv()
            assert reply.kind == "error", kind
            assert "before seal" in reply.payload
        end.send(Message("seal", 4))
        worker.step()
        assert end.recv().kind == "sealed"
        end.send(Message("shutdown"))
        assert not worker.step()
        assert end.recv().kind == "bye"
        coord.close()

    def test_round_trip_sends_exactly_the_table(self, monkeypatch):
        exchanged = []
        exchange = InProcessWorkerPool._exchange

        def recording(pool, shard, message):
            reply = exchange(pool, shard, message)
            exchanged.append((message.kind, reply.kind))
            return reply

        monkeypatch.setattr(InProcessWorkerPool, "_exchange", recording)
        coord = Machine(memory=512, block=16)
        f = load_input(coord, random_permutation(1024, seed=2))
        with build_sharded_service(coord, f, shards=3, k=16) as router:
            router.batch_select(np.arange(1, 1025, 97, dtype=np.int64))
            router.range_count(10, 900)
            router.partition_of(700)
            router.splitter_candidates(4)
            router.shard_io_stats()
        f.free()
        coord.close()
        assert {kind for kind, _ in exchanged} == set(PROTOCOL)
        for kind, reply in exchanged:
            assert reply == PROTOCOL[kind].reply


# ----------------------------------------------------------------------
# Chaos: killed workers fail cleanly
# ----------------------------------------------------------------------
class TestChaos:
    def test_killed_worker_raises_and_close_is_clean(self):
        records = random_permutation(1024, seed=3)
        coord = Machine(memory=512, block=16, sanitize=True)
        f = load_input(coord, records)
        router = build_sharded_service(coord, f, shards=4, k=16)
        router._pool.kill(2)
        with pytest.raises(ShardError, match="shard 2"):
            router.shard_io_stats()
        # Shutdown skips the dead shard; the coordinator leaks nothing.
        router.close()
        f.free()
        coord.close()  # sanitize-mode lease-leak check fires here

    def test_killed_process_worker_raises_and_close_is_clean(self):
        records = random_permutation(512, seed=3)
        coord = Machine(memory=512, block=16)
        f = load_input(coord, records)
        router = build_sharded_service(
            coord, f, shards=2, k=8, workers="process"
        )
        router._pool.kill(1)
        with pytest.raises(ShardError, match="shard 1"):
            for _ in range(4):  # first requests may still drain the pipe
                router.shard_io_stats()
        router.close()
        f.free()
        coord.close()


# ----------------------------------------------------------------------
# Process workers: identical model costs
# ----------------------------------------------------------------------
class TestProcessWorkers:
    def test_process_workers_match_inproc(self):
        records = random_permutation(2048, seed=7)
        trace = QUERY_TRACES["zipfian"](32, 2048, seed=7, alpha=1.1)
        queries = [Query.select(int(r)) for r in trace]
        runs = {}
        for workers in ("inproc", "process"):
            coord = Machine(memory=512, block=16)
            f = load_input(coord, records)
            coord.reset_counters()
            with build_sharded_service(
                coord, f, shards=2, k=16, workers=workers
            ) as router:
                answers = QueryFrontend(coord, router).run(queries, batch=16)
                stats = router.shard_io_stats()
            runs[workers] = (
                composite(np.array(answers, dtype=records.dtype)),
                coord.io.total,
                tuple(
                    (s["lifetime_reads"], s["lifetime_writes"], s["n"])
                    for s in stats
                ),
            )
            f.free()
            coord.close()
        assert np.array_equal(runs["inproc"][0], runs["process"][0])
        assert runs["inproc"][1] == runs["process"][1]
        assert runs["inproc"][2] == runs["process"][2]


# ----------------------------------------------------------------------
# Shard-skew trace generator
# ----------------------------------------------------------------------
class TestShardSkewTrace:
    def test_deterministic_and_in_range(self):
        a = shard_skew_trace(64, 4096, seed=3, shards=8)
        b = shard_skew_trace(64, 4096, seed=3, shards=8)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 1 and a.max() <= 4096
        assert not np.array_equal(a, shard_skew_trace(64, 4096, seed=4, shards=8))

    def test_pinned_regression(self):
        # Byte-level determinism guard: these values may only change with
        # an intentional, documented generator change.
        a = shard_skew_trace(64, 4096, seed=3, shards=8)
        assert list(a[:8]) == [3124, 4031, 3249, 2338, 2124, 2542, 1266, 3073]

    def test_skews_toward_few_stripes(self):
        t = shard_skew_trace(512, 8192, seed=0, shards=8, alpha=1.4)
        stripe = (t - 1) * 8 // 8192
        counts = np.bincount(stripe, minlength=8)
        assert counts.max() >= 3 * np.sort(counts)[3]  # top stripe dominates

    def test_registered_in_query_traces(self):
        assert "shard-skew" in QUERY_TRACES


# ----------------------------------------------------------------------
# R7 — shard isolation lint rule
# ----------------------------------------------------------------------
R7 = get_rules(["R7"])


def _lint(source: str, relpath: str):
    active, suppressed = lint_source(source, relpath, R7)
    return active, suppressed


class TestR7:
    PATH = "src/repro/shard/router.py"

    def test_flags_foreign_machine_access(self):
        src = "def f(worker):\n    return worker.machine.io.reads\n"
        active, _ = _lint(src, self.PATH)
        assert len(active) == 1 and active[0].rule == "R7"

    def test_self_state_is_exempt(self):
        src = (
            "class A:\n"
            "    def f(self):\n"
            "        return self.machine\n"
        )
        active, _ = _lint(src, self.PATH)
        assert active == []

    def test_transport_module_is_exempt(self):
        src = "def f(worker):\n    return worker.machine\n"
        active, _ = _lint(src, "src/repro/shard/transport.py")
        assert active == []

    def test_other_subsystems_are_exempt(self):
        src = "def f(worker):\n    return worker.machine\n"
        active, _ = _lint(src, "src/repro/service/online.py")
        assert active == []

    def test_per_line_suppression(self):
        src = (
            "def f(worker):\n"
            "    return worker.disk  # emlint: disable=R7\n"
        )
        active, suppressed = _lint(src, self.PATH)
        assert active == []
        assert len(suppressed) == 1 and suppressed[0].rule == "R7"
