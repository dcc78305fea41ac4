"""Per-layer attribution for the traced run.

The benchmark measures the program only from outside: it never edits
``src/``.  For the traced run it temporarily replaces the public entry
points of each layer with wrappers that open a span around the call,
then restores the originals.  A function imported elsewhere with
``from … import`` lives under several names, so every ``repro.*``
module namespace holding the original object is patched, not only the
defining module.

Two kinds of wrapper share one span stack, so a layer's *self time* is
its span time minus the time covered by child spans of any layer:

* span wrappers (``alg``, ``core``, ``service``, ``shard`` entry points)
  also read the simulated I/O summed over every machine when the
  outermost span of a layer opens and closes, and are kept as span
  records for the Chrome trace;
* hot wrappers (``em.disk``, ``em.kernels``, ``em.streams``,
  ``em.file``, ``obs.metrics``) only accumulate calls and time, since a
  span record per block transfer would swamp the run.

``em.records.composite`` is hotter still and is only counted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from bench_machines import MachineSet


class NullProbe:
    """Stands in for the profiler in untraced runs."""

    on = False

    def active(self):
        return nullcontext()


class LayerProfiler:
    """Span stack with per-layer self time, inclusive time and I/O.

    Wrappers record only while :meth:`active` is entered, which the
    workloads do around set-up and ops but not around oracle checks.
    """

    def __init__(self, machines: MachineSet) -> None:
        self._machines = machines
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self.on = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sim_io: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, str, float, float, int]] = []

    @contextmanager
    def active(self):
        self.on = True
        try:
            yield
        finally:
            self.on = False

    def enter(self, layer: str, io: bool) -> None:
        io0 = None
        if io and self._active[layer] == 0:
            io0 = self._machines.io_total()
        self._active[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0, io0])

    def exit(self, name: str | None = None) -> None:
        now = time.perf_counter()
        layer, t0, child, io0 = self._stack.pop()
        dt = now - t0
        self._active[layer] -= 1
        self.self_s[layer] += dt - child
        self.calls[layer] += 1
        if self._active[layer] == 0:
            self.incl_s[layer] += dt
        if io0 is not None:
            self.sim_io[layer] += self._machines.io_total() - io0
        if name is not None:
            self.spans.append((layer, name, t0, dt, len(self._stack)))
        if self._stack:
            self._stack[-1][2] += dt


def _span_wrapper(prof: LayerProfiler, layer: str, name: str, fn, io: bool):
    def wrapper(*args, **kwargs):
        if not prof.on:
            return fn(*args, **kwargs)
        prof.enter(layer, io)
        try:
            return fn(*args, **kwargs)
        finally:
            prof.exit(name if io else None)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_wrapper(prof: LayerProfiler, key: str, fn, amount):
    """Hot wrapper that also adds ``amount(args, result)`` to ``key``."""
    layer = key.rsplit(".", 1)[0]

    def wrapper(*args, **kwargs):
        if not prof.on:
            return fn(*args, **kwargs)
        prof.enter(layer, False)
        try:
            result = fn(*args, **kwargs)
        finally:
            prof.exit()
        prof.counts[key] += amount(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _tally_wrapper(prof: LayerProfiler, fn, tally):
    """Call-through wrapper that lets ``tally(args, result)`` count,
    without a span (for helpers too hot or too small to time)."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if prof.on:
            tally(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _generator_wrapper(prof: LayerProfiler, layer: str, fn):
    """Time each step of a generator method (``BlockReader.__iter__``)."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                if prof.on:
                    prof.enter(layer, False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        prof.exit()
                else:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item
        finally:
            inner.close()

    wrapper.__wrapped__ = fn
    return wrapper


def _arg_len(args, result) -> int:
    """Length of the first argument after ``self``."""
    return len(args[1])


def _result_len(args, result) -> int:
    return len(result)


def _scatter_len(args, result) -> int:
    return len(args[4])


class Patcher:
    """Install wrappers and put every original back on exit."""

    def __init__(self) -> None:
        self._undo: list = []

    def function(self, fn, wrapper) -> None:
        """Replace ``fn`` in every ``repro.*`` namespace that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn, True))

    def method(self, cls, name: str, make) -> None:
        """Wrap ``cls.name`` (a classmethod stays one)."""
        had = name in cls.__dict__
        raw = cls.__dict__[name] if had else getattr(cls, name)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, name, new)
        self._undo.append((cls, name, raw, had))

    def restore(self) -> None:
        for owner, attr, original, had in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


#: layer -> (module, function names) for span wrappers.
SPAN_FUNCTIONS = {
    "alg.sort": ("repro.alg.sort", ("external_sort", "form_runs", "merge_runs")),
    "alg.distribute": ("repro.alg.distribute", ("distribute_by_pivots",)),
    "alg.sampling": (
        "repro.alg.sampling",
        ("approx_quantile_pivots", "chunk_samples_to_disk"),
    ),
    "alg.selection": (
        "repro.alg.selection",
        ("select_rank", "select_rank_fast", "median_of_five_file"),
    ),
    "alg.multipartition": (
        "repro.alg.multipartition",
        ("multi_partition", "multi_partition_at_ranks"),
    ),
    "core.memory_splitters": ("repro.core.memory_splitters", ("memory_splitters",)),
    "core.multiselect": (
        "repro.core.multiselect",
        ("multi_select", "multi_select_streamed"),
    ),
    "core.intermixed": ("repro.core.intermixed", ("intermixed_select",)),
    "core.splitters": (
        "repro.core.splitters",
        (
            "approximate_splitters",
            "right_grounded_splitters",
            "left_grounded_splitters",
            "two_sided_splitters",
        ),
    ),
    "core.partitioning": (
        "repro.core.partitioning",
        (
            "approximate_partition",
            "right_grounded_partition",
            "left_grounded_partition",
            "two_sided_partition",
        ),
    ),
    "em.streams": ("repro.em.streams", ("copy_file",)),
    "em.streams.merge": ("repro.em.streams", ("merge_sorted_files",)),
    "service.durability": ("repro.service.durability", ("recover",)),
    "shard.router": ("repro.shard.router", ("build_sharded_service",)),
}

#: (layer, module, class, method names) for span wrappers.
SPAN_METHODS = (
    ("service.frontend", "repro.service.frontend", "QueryFrontend", ("flush",)),
    (
        "service.online",
        "repro.service.online",
        "LazyPartitionIndex",
        ("batch_select", "range_count", "partition_of"),
    ),
    (
        "service.index",
        "repro.service.index",
        "PartitionIndex",
        ("batch_select", "range_count", "partition_of", "flush_updates", "build"),
    ),
    ("service.updates", "repro.service.updates", "DeltaBuffer", ("flush",)),
    ("service.durability", "repro.service.durability", "DurableStore", ("log_group",)),
    (
        "service.durability.snapshot",
        "repro.service.durability",
        "DurableStore",
        ("write_snapshot",),
    ),
    (
        "service.durability",
        "repro.service.durability",
        "DurablePartitionIndex",
        ("build_durable",),
    ),
    (
        "shard.router",
        "repro.shard.router",
        "ShardRouter",
        ("batch_select", "range_count", "partition_of"),
    ),
    ("shard.worker", "repro.shard.worker", "ShardWorker", ("step",)),
)

#: layer -> (module, class, method names) for hot wrappers (time only).
HOT_METHODS = {
    "em.streams": (
        ("repro.em.streams", "BlockWriter", ("write", "close")),
        ("repro.em.streams", "ChunkScanner", ("__next__",)),
    ),
    "em.file": (
        (
            "repro.em.file",
            "EMFile",
            ("read_block", "write_block", "append_block", "read_range", "append_blocks"),
        ),
    ),
    "shard.transport": (("repro.shard.transport", "Endpoint", ("send", "recv")),),
    "obs.metrics": (
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Gauge", ("set", "inc", "dec")),
        ("repro.obs.metrics", "Histogram", ("observe",)),
        ("repro.obs.metrics", "MetricFamily", ("labels",)),
    ),
}

#: Disk methods -> blocks moved per call.
DISK_METHODS = {
    "read": lambda args, result: 1,
    "write": lambda args, result: 1,
    "read_many": _arg_len,
    "write_many": _arg_len,
}

#: Kernel primitives -> records moved per call.
KERNEL_METHODS = {
    "gather_blocks": _result_len,
    "scatter_blocks": _scatter_len,
    "concat": _result_len,
    "sort_by_composite": _arg_len,
    "bucket_of": _arg_len,
    "partition_at": _arg_len,
    "rank_order": _arg_len,
    "group_by_bucket": _arg_len,
}


def _count(prof: LayerProfiler, key: str):
    def tally(args, result) -> None:
        prof.counts[key] += 1

    return tally


def _wal_entries(prof: LayerProfiler):
    """WAL entries a committed group wrote: one per append or delete,
    plus its commit marker (``DurableStore.log_group`` returns False when
    the WAL is full and nothing is written)."""

    def tally(args, committed) -> None:
        if committed:
            entries = args[2]
            prof.counts["service.durability.wal_entries"] += 1 + sum(
                len(e[1]) if e[0] == "append" else 1 for e in entries
            )

    return tally


def _resident_peak(prof: LayerProfiler):
    """Largest size the index's resident lease was granted."""

    def tally(args, result) -> None:
        lease = args[0]
        if lease.label == "svc-resident":
            key = "service.index.resident_peak_records"
            prof.counts[key] = max(prof.counts[key], lease.size)

    return tally


@contextmanager
def instrumented(prof: LayerProfiler):
    """Install every wrapper for the body; originals return on exit."""
    import importlib

    from repro.em import Disk, get_kernel
    from repro.em import records

    patcher = Patcher()
    try:
        for layer, (modname, names) in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name)
                patcher.function(fn, _span_wrapper(prof, layer, name, fn, True))
        for layer, modname, clsname, names in SPAN_METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            for name in names:
                patcher.method(
                    cls,
                    name,
                    lambda fn, n=f"{clsname}.{name}", lay=layer: _span_wrapper(
                        prof, lay, n, fn, True
                    ),
                )
        for layer, groups in HOT_METHODS.items():
            for modname, clsname, names in groups:
                cls = getattr(importlib.import_module(modname), clsname)
                for name in names:
                    patcher.method(
                        cls,
                        name,
                        lambda fn, lay=layer: _span_wrapper(prof, lay, "", fn, False),
                    )
        reader = importlib.import_module("repro.em.streams").BlockReader
        patcher.method(
            reader, "__iter__", lambda fn: _generator_wrapper(prof, "em.streams", fn)
        )
        for name, amount in DISK_METHODS.items():
            patcher.method(
                Disk,
                name,
                lambda fn, a=amount: _counted_wrapper(prof, "em.disk.blocks", fn, a),
            )
        kernel_cls = type(get_kernel(None))
        for name, amount in KERNEL_METHODS.items():
            patcher.method(
                kernel_cls,
                name,
                lambda fn, a=amount: _counted_wrapper(prof, "em.kernels.records", fn, a),
            )
        patcher.function(
            records.composite,
            _tally_wrapper(prof, records.composite, _count(prof, "em.records.composite_calls")),
        )
        store = importlib.import_module("repro.service.durability").DurableStore
        patcher.method(store, "log_group", lambda fn: _tally_wrapper(prof, fn, _wal_entries(prof)))
        lease = importlib.import_module("repro.em.machine").MemoryLease
        patcher.method(lease, "resize", lambda fn: _tally_wrapper(prof, fn, _resident_peak(prof)))
        yield prof
    finally:
        patcher.restore()


def chrome_trace(prof: LayerProfiler) -> dict:
    """The recorded spans as Chrome/Perfetto trace JSON (one thread)."""
    if not prof.spans:
        return {"traceEvents": []}
    base = min(t0 for _, _, t0, _, _ in prof.spans)
    events = [
        {
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": round((t0 - base) * 1e6, 3),
            "dur": round(dur * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"depth": depth},
        }
        for layer, name, t0, dur, depth in prof.spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
