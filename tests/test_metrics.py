"""Tests for the service telemetry layer (repro.obs.metrics / .recorder).

Three groups:

* **Quantile math** — bucket boundaries, single samples, all-in-one-
  bucket interpolation, and merge associativity for :class:`Histogram`.
* **Registry / recorder plumbing** — idempotent getters, kind/label/
  bucket mismatch errors, the three exporters, ambient scoping, the
  null fallbacks, and the flight recorder's ring-buffer semantics.
* **Differential identity** — running the full service stack (lazy
  engine + frontend, updates, durability) inside a ``metrics_scope``
  must change *nothing* in the EM model: byte-identical answers and
  identical I/O, comparison, and peak-memory counters, under the kernel
  and under the numpy_v1 reference.
"""

import json

import numpy as np
import pytest

from repro.em import Machine
from repro.em.records import composite
from repro.obs import (
    DEFAULT_IO_BUCKETS,
    NULL_RECORDER,
    NULL_REGISTRY,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    current_recorder,
    current_registry,
    flight_scope,
    load_flight_dump,
    metrics_scope,
    render_flight_events,
)
from repro.service import LazyPartitionIndex, Query, QueryFrontend
from repro.workloads import load_input, random_permutation
from repro.workloads.queries import zipfian_trace

from .conftest import KERNEL_SIDES, kernel_side


# ---------------------------------------------------------------------
# Histogram quantile math
# ---------------------------------------------------------------------


class TestHistogramQuantiles:
    def test_bucket_boundary_values_are_exact(self):
        h = Histogram(buckets=(0, 1, 2, 4, 8))
        for v in (1, 2, 4, 8):
            h.observe(v)
        # Each value sits alone in its bucket, so every quantile is one
        # of the observed values, never an interpolation artifact.
        assert h.quantile(0.25) == 1
        assert h.quantile(0.5) == 2
        assert h.quantile(0.75) == 4
        assert h.quantile(1.0) == 8
        assert h.quantile(0.0) == 1  # rank clamps to 1
        assert h.count == 4 and h.sum == 15
        assert h.min == 1 and h.max == 8

    def test_single_sample_every_quantile(self):
        h = Histogram(buckets=(0, 1, 2, 4, 8))
        h.observe(3)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 3

    def test_empty_histogram_quantile_is_zero(self):
        h = Histogram(buckets=(0, 1, 2))
        assert h.quantile(0.5) == 0.0
        assert h.count == 0 and h.sum == 0.0
        assert h.min == 0.0 and h.max == 0.0

    def test_all_in_one_bucket_interpolates_between_min_and_max(self):
        h = Histogram(buckets=(0, 1, 2, 4, 8))
        for v in (5, 6, 7):  # all land in the (4, 8] bucket
            h.observe(v)
        # Linear between the bucket's observed min (5) and max (7):
        # ranks 1, 2, 3 map to 5, 6, 7.
        assert h.quantile(0.5) == 6
        assert h.quantile(0.0) == 5
        assert h.quantile(1.0) == 7

    def test_constant_bucket_is_exact_not_interpolated(self):
        h = Histogram(buckets=(0, 10))
        h.observe(7, count=100)
        for q in (0.01, 0.5, 0.99):
            assert h.quantile(q) == 7

    def test_weighted_observe_matches_repeated_observe(self):
        a = Histogram(buckets=(0, 4, 16))
        b = Histogram(buckets=(0, 4, 16))
        for _ in range(5):
            a.observe(3)
        b.observe(3, count=5)
        assert a.to_dict() == b.to_dict()

    def test_observe_rejects_negative_count(self):
        h = Histogram(buckets=(0, 1))
        with pytest.raises(ValueError, match=">= 0"):
            h.observe(1, count=-1)
        h.observe(1, count=0)  # no-op, not an error
        assert h.count == 0

    def test_quantile_rejects_out_of_range(self):
        h = Histogram(buckets=(0, 1))
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(-0.1)

    def test_bounds_must_be_strictly_increasing_and_nonempty(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=(0, 1, 1))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())

    def test_overflow_bucket_catches_values_past_last_bound(self):
        h = Histogram(buckets=(0, 1, 2))
        h.observe(1000)
        assert h.count == 1 and h.max == 1000
        assert h.quantile(0.5) == 1000
        assert h.to_dict()["buckets"] == {"+Inf": 1}

    def test_merge_is_associative_and_commutative(self):
        bounds = (0, 1, 2, 4, 8, 16)
        parts = []
        for seed in range(3):
            h = Histogram(buckets=bounds)
            rng = np.random.default_rng(seed)
            for v in rng.integers(0, 20, size=50):
                h.observe(int(v))
            parts.append(h)
        a, b, c = parts
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        assert left.to_dict() == right.to_dict() == swapped.to_dict()
        assert left.count == 150
        for q in (0.1, 0.5, 0.9, 0.99):
            assert left.quantile(q) == right.quantile(q) == swapped.quantile(q)

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            Histogram(buckets=(0, 1)).merge(Histogram(buckets=(0, 2)))

    def test_default_buckets_are_log_spaced_io_costs(self):
        h = Histogram()
        assert h.bounds == DEFAULT_IO_BUCKETS
        assert DEFAULT_IO_BUCKETS[0] == 0.0
        assert DEFAULT_IO_BUCKETS[-1] == float(2**20)


# ---------------------------------------------------------------------
# Registry plumbing
# ---------------------------------------------------------------------


class TestMetricsRegistry:
    def test_getters_are_idempotent(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help text")
        c.inc(3)
        assert reg.counter("x_total") is c
        assert reg.counter("x_total").value == 3
        g = reg.gauge("x_depth")
        assert reg.gauge("x_depth") is g
        fam = reg.histogram("x_io", labels=("engine",))
        assert reg.histogram("x_io", labels=("engine",)) is fam
        assert fam.labels(engine="lazy") is fam.labels(engine="lazy")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as a"):
            reg.gauge("x")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("op",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("x", labels=("kind",))

    def test_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(0, 1, 2))
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("h", buckets=(0, 1, 4))
        # Omitting buckets on re-lookup is fine.
        reg.histogram("h").observe(1)

    def test_labels_require_exact_name_set(self):
        reg = MetricsRegistry()
        fam = reg.counter("x", labels=("op",))
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels(kind="a")
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels()

    def test_to_dict_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(2)
        reg.gauge("g").set(1.5)
        fam = reg.counter("lab", labels=("op",))
        fam.labels(op="a").inc()
        fam.labels(op="b").inc(2)
        d = reg.to_dict()
        assert d["c_total"] == {"kind": "counter", "help": "a counter",
                                "value": 2}
        assert d["g"]["value"] == 1.5
        assert d["lab"]["children"]["op=a"]["value"] == 1
        assert d["lab"]["children"]["op=b"]["value"] == 2
        json.dumps(d)  # must be JSON-serializable

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").inc(5)
        h = reg.histogram("io", "io per op", buckets=(0, 1, 2))
        h.observe(1)
        h.observe(100)
        text = reg.to_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 5" in text
        # Cumulative le-buckets ending in +Inf == count.
        assert 'io_bucket{le="1"} 1' in text
        assert 'io_bucket{le="+Inf"} 2' in text
        assert "io_count 2" in text
        assert "io_sum 101" in text

    def test_render_alignment_and_empty_stub(self):
        reg = MetricsRegistry()
        assert reg.render() == "(no metrics recorded)"
        reg.counter("a").inc()
        reg.counter("much_longer_name").inc(2)
        lines = reg.render().splitlines()
        assert len({line.index(":") for line in lines}) == 1

    def test_null_registry_absorbs_everything(self):
        c = NULL_REGISTRY.counter("x", labels=("op",))
        c.labels(op="a").inc(5)
        c.inc()
        h = NULL_REGISTRY.histogram("h")
        h.observe(3)
        assert h.quantile(0.5) == 0.0
        assert NULL_REGISTRY.to_dict() == {}
        assert NULL_REGISTRY.to_prometheus() == ""
        assert "no metrics" in NULL_REGISTRY.render()

    def test_metrics_scope_nesting_and_restore(self):
        assert current_registry() is NULL_REGISTRY
        with metrics_scope() as outer:
            assert current_registry() is outer
            inner_reg = MetricsRegistry()
            with metrics_scope(inner_reg) as inner:
                assert inner is inner_reg
                assert current_registry() is inner_reg
            assert current_registry() is outer
        assert current_registry() is NULL_REGISTRY

    def test_counter_rejects_negative_inc(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="Gauge"):
            reg.counter("c").inc(-1)


class TestFlightRecorder:
    def test_ring_buffer_evicts_oldest_and_counts_drops(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("tick", i=i)
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [e["i"] for e in rec.events] == [2, 3, 4]
        assert [e["seq"] for e in rec.events] == [2, 3, 4]

    def test_seq_is_recorder_owned_even_under_field_collision(self):
        rec = FlightRecorder()
        rec.record("wal-group", seq=99)
        ev = rec.events[0]
        assert ev["seq"] == 0
        assert ev["kind"] == "wal-group"

    def test_dump_load_roundtrip(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        rec.record("snapshot", epoch=1)
        rec.record("update-flush", appended=3, completed=True)
        path = rec.dump(tmp_path / "sub" / "dump.json")
        doc = load_flight_dump(path)
        assert doc == rec.to_dict()
        text = render_flight_events(doc)
        assert "snapshot" in text and "appended=3" in text
        assert "2 recorded" in text

    def test_load_rejects_non_dump(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match="flight-recorder dump"):
            load_flight_dump(bad)

    def test_null_recorder_and_scope(self):
        assert current_recorder() is NULL_RECORDER
        NULL_RECORDER.record("ignored")
        assert NULL_RECORDER.to_dict()["events"] == []
        with pytest.raises(RuntimeError):
            NULL_RECORDER.dump("/nonexistent")
        with flight_scope() as rec:
            assert current_recorder() is rec
            rec.record("x")
        assert current_recorder() is NULL_RECORDER
        assert FlightRecorder().render() == "(no flight events recorded)"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            FlightRecorder(capacity=0)


# ---------------------------------------------------------------------
# Differential identity: telemetry changes nothing in the EM model
# ---------------------------------------------------------------------


def _run_service(kernel, with_metrics):
    """One fixed service workload on one kernel side; returns
    (fingerprint, registry)."""
    with kernel_side(kernel):
        return _service_fingerprint(with_metrics)


def _service_fingerprint(with_metrics):
    recs = random_permutation(20_000, seed=3)
    trace = zipfian_trace(200, 20_000, seed=5, alpha=1.2)
    mach = Machine(memory=4096, block=64)
    f = load_input(mach, recs)
    registry = MetricsRegistry() if with_metrics else None
    scope = metrics_scope(registry) if with_metrics else None
    if scope is not None:
        scope.__enter__()
    try:
        engine = LazyPartitionIndex(mach, f, k=32)
        frontend = QueryFrontend(mach, engine)
        answers = frontend.run(
            [Query.select(int(r)) for r in trace], batch=64
        )
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
    life = mach.disk.lifetime
    fingerprint = (
        life.reads,
        life.writes,
        frontend.total_io,
        frontend.total_comparisons,
        mach.memory.peak,
        composite(np.array(answers, dtype=recs.dtype)).tobytes(),
    )
    engine.close()
    f.free()
    return fingerprint, registry


@pytest.mark.parametrize("kernel", KERNEL_SIDES)
def test_metrics_change_no_em_counters(kernel):
    bare, _ = _run_service(kernel, with_metrics=False)
    instrumented, registry = _run_service(kernel, with_metrics=True)
    assert instrumented == bare
    # ...and the telemetry actually recorded the workload: per-query
    # observations sum exactly to the frontend's total I/O.
    hist = registry.histogram(
        "svc_query_io", labels=("engine",)
    ).labels(engine="lazy")
    assert hist.count == 200
    assert hist.sum == pytest.approx(bare[2])


def test_metrics_identical_across_kernels():
    dicts = []
    for kernel in KERNEL_SIDES:
        _, registry = _run_service(kernel, with_metrics=True)
        dicts.append(registry.to_dict())
    for other in dicts[1:]:
        assert other == dicts[0]
