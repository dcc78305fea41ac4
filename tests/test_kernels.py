"""The one data-movement kernel, proven against the numpy_v1 reference.

The kernel (:mod:`repro.em.kernels`) owns block movement and batch
record comparisons; the accounting layer (counters, leases, phases,
traces) stays in ``Disk``/``Machine``.  Substituting the per-block
reference for the kernel must therefore be *unobservable* in the model:
byte-identical answers and identical counters, per-phase breakdowns,
read-id sets, and access traces.  These tests prove that identity at
three levels — primitives, whole algorithms, the service's query/update
paths — and across every registered experiment in quick mode.  Each
whole-run comparison also checks that the reference's movement ops were
really called, so a module that bound the kernel at import time could
not turn the suite into a comparison of the kernel with itself.
"""

import inspect

import numpy as np
import pytest

from repro.em import Kernel, Machine, composite, get_kernel
from repro.em.kernels.numpy_v1 import NumpyV1Kernel
from repro.em.records import RECORD_DTYPE
from repro.workloads import load_input, random_permutation, zipf_like
from repro.workloads.queries import zipfian_trace

from .conftest import KERNEL_SIDES, MOVEMENT_OPS, kernel_side

KERNELS = (NumpyV1Kernel(), get_kernel())


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=RECORD_DTYPE)
    out["key"] = rng.integers(0, max(1, n // 2), size=n)  # duplicates
    out["uid"] = rng.permutation(n)
    out["grp"] = 0
    return out


# ----------------------------------------------------------------------
# One kernel, no selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_builtins_registered(self):
        # The reference subclasses the kernel and overrides exactly the
        # four movement ops; the compare ops are the kernel's own.
        assert issubclass(NumpyV1Kernel, Kernel)
        overridden = {
            name
            for name, value in vars(NumpyV1Kernel).items()
            if inspect.isfunction(value)
        }
        assert overridden == set(MOVEMENT_OPS)

    def test_get_kernel_by_name_and_default(self):
        assert get_kernel(None) is Machine(64, 8).kernel
        assert get_kernel().name == "vectorized_v2"
        with pytest.raises(TypeError):
            get_kernel("numpy_v1")

    def test_env_selection(self, monkeypatch):
        # No environment variable reaches the reference.
        monkeypatch.setenv("EM_KERNEL", "numpy_v1")
        assert Machine(memory=64, block=8).kernel.name == "vectorized_v2"

    def test_explicit_arg_beats_env(self):
        # No argument reaches it either.
        with pytest.raises(TypeError):
            Machine(memory=64, block=8, kernel="numpy_v1")

    def test_instance_passthrough(self, reference_kernel):
        # Inside the substitution fixture every new machine gets the
        # reference.
        assert isinstance(reference_kernel, NumpyV1Kernel)
        assert get_kernel() is reference_kernel
        assert Machine(memory=64, block=8).kernel is reference_kernel

    def test_substitution_ends_with_its_scope(self):
        with kernel_side("numpy_v1") as ref:
            assert Machine(memory=64, block=8).kernel is ref
        assert type(Machine(memory=64, block=8).kernel) is Kernel


# ----------------------------------------------------------------------
# Primitive identity
# ----------------------------------------------------------------------
class TestPrimitiveIdentity:
    """Every primitive returns byte-identical output on both sides."""

    @pytest.mark.parametrize("n", [0, 1, 7, 256, 1000])
    def test_sort_by_composite(self, n):
        recs = _records(n, seed=n)
        outs = [k.sort_by_composite(recs) for k in KERNELS]
        for o in outs[1:]:
            assert np.array_equal(outs[0], o)
        if n:
            assert np.all(np.diff(composite(outs[0])) > 0)

    @pytest.mark.parametrize("n", [0, 1, 255, 1000])
    def test_bucket_of_and_grouping(self, n):
        recs = _records(n, seed=n + 1)
        pivots = np.sort(
            np.random.default_rng(5).integers(0, 2**40, size=7)
        )
        idxs = [k.bucket_of(recs, pivots) for k in KERNELS]
        for i in idxs[1:]:
            assert np.array_equal(idxs[0], i)
        groups = [
            list(k.group_by_bucket(recs, idxs[0]))
            for k in KERNELS
        ]
        for g in groups[1:]:
            assert len(g) == len(groups[0])
            for (b0, r0), (b1, r1) in zip(groups[0], g):
                assert b0 == b1
                assert np.array_equal(r0, r1)
        # Groups preserve input order within buckets and skip empties.
        for b, r in groups[0]:
            assert len(r) > 0
            src = recs[idxs[0] == b]
            assert np.array_equal(r, src)

    def test_partition_and_rank_order(self):
        recs = _records(512, seed=3)
        kth = np.array([10, 100, 400])
        parts = [k.partition_at(recs, kth) for k in KERNELS]
        orders = [k.rank_order(recs, kth) for k in KERNELS]
        for p in parts[1:]:
            assert np.array_equal(parts[0], p)
        for o in orders[1:]:
            assert np.array_equal(orders[0], o)
        comp = composite(parts[0])
        for b in kth:
            assert comp[:b].max() < comp[b]

    def test_concat(self):
        parts = [_records(n, seed=n) for n in (0, 3, 64, 1)]
        outs = [k.concat(parts) for k in KERNELS]
        for o in outs[1:]:
            assert np.array_equal(outs[0], o)
        assert len(outs[0]) == 68
        empty = [k.concat([]) for k in KERNELS]
        for e in empty:
            assert len(e) == 0 and e.dtype == RECORD_DTYPE


# ----------------------------------------------------------------------
# Whole-algorithm identity: counters, phases, traces, bytes
# ----------------------------------------------------------------------
def _run_traced(side, scenario, **mach_kw):
    """Run ``scenario(machine)`` on one kernel side; return the full
    observable state: (reads, writes, per-phase, comparisons, mem peak,
    read-id set, access trace, output bytes), plus the kernel used."""
    mach_kw.setdefault("memory", 512)
    mach_kw.setdefault("block", 16)
    with kernel_side(side) as kernel:
        mach = Machine(**mach_kw)
        mach.disk.start_trace()
        out = scenario(mach)
    c = mach.snapshot()
    state = (
        c.reads,
        c.writes,
        dict(c.by_phase),
        mach.comparisons,
        mach.memory.peak,
        set(mach.disk.read_block_ids),
        mach.disk.stop_trace(),
    )
    return state, np.asarray(out), kernel


def _assert_identical(scenario, **mach_kw):
    ref_state, ref_out, ref = _run_traced("numpy_v1", scenario, **mach_kw)
    assert sum(ref.calls.values()) > 0, "the reference never ran"
    state, out, _ = _run_traced("vectorized_v2", scenario, **mach_kw)
    assert state[:6] == ref_state[:6], "counters diverge"
    assert state[6] == ref_state[6], "trace diverges"
    assert out.tobytes() == ref_out.tobytes(), "bytes diverge"


class TestAlgorithmIdentity:
    N = 3000

    def test_external_sort(self):
        recs = random_permutation(self.N, seed=1)

        def scenario(mach):
            from repro.alg.sort import external_sort

            f = load_input(mach, recs)
            out = external_sort(mach, f)
            data = out.to_numpy(counted=False)
            out.free()
            f.free()
            return data

        _assert_identical(scenario)

    def test_multipartition(self):
        recs = zipf_like(self.N, seed=2)

        def scenario(mach):
            from repro.alg.multipartition import multi_partition_at_ranks

            f = load_input(mach, recs)
            parts = multi_partition_at_ranks(mach, f, [500, 1500, 2500])
            data = np.concatenate(
                [composite(p) for p in parts.to_numpy_partitions()]
            )
            parts.free()
            f.free()
            return data

        _assert_identical(scenario)

    def test_selection(self):
        recs = random_permutation(self.N, seed=3)

        def scenario(mach):
            from repro.alg.selection import select_rank_fast

            f = load_input(mach, recs)
            x = select_rank_fast(mach, f, self.N // 3)
            f.free()
            return np.array([x])

        _assert_identical(scenario)

    def test_multiselect(self):
        recs = zipf_like(self.N, seed=4)
        ranks = np.random.default_rng(7).integers(1, self.N + 1, size=24)

        def scenario(mach):
            from repro.core import multi_select

            f = load_input(mach, recs)
            out = multi_select(mach, f, ranks)
            f.free()
            return out

        _assert_identical(scenario)

    def test_splitters(self):
        recs = random_permutation(self.N, seed=5)

        def scenario(mach):
            from repro.core import approximate_splitters

            f = load_input(mach, recs)
            res = approximate_splitters(
                mach, f, 16, self.N // 64, self.N // 4
            )
            f.free()
            return res.splitters

        _assert_identical(scenario)

    def test_service_queries_and_updates(self):
        recs = random_permutation(4000, seed=6)
        trace = zipfian_trace(64, 4000, seed=8)

        def scenario(mach):
            from repro.service import PartitionIndex

            f = load_input(mach, recs)
            index = PartitionIndex.build(mach, f, 16)
            f.free()
            got = [index.batch_select(trace)]
            index.append(np.arange(10**6, 10**6 + 300))
            for key in np.sort(recs["key"])[:120]:
                index.delete(int(key))
            index.flush_updates()
            got.append(index.batch_select(np.arange(1, index.n_live + 1)))
            index.close()
            return np.concatenate([composite(g) for g in got])

        _assert_identical(scenario, memory=2048, block=32)


# ----------------------------------------------------------------------
# Experiment-level identity: all registered experiments, quick mode
# ----------------------------------------------------------------------
def _experiment_ids():
    from repro.experiments import all_experiments

    return [e.exp_id for e in all_experiments()]


@pytest.mark.parametrize("exp_id", _experiment_ids())
def test_experiment_identity_across_kernels(exp_id):
    """Every experiment produces the identical result and identical
    aggregate machine counters under the kernel and the reference."""
    from repro.em.machine import observe_machines
    from repro.experiments import get_experiment

    outcomes = []
    for side in KERNEL_SIDES:
        machines = []
        with kernel_side(side) as kernel, observe_machines(machines.append):
            result = get_experiment(exp_id)(quick=True)
        outcomes.append(
            (
                result.to_dict(),
                len(machines),
                sum(m.disk.lifetime.reads for m in machines),
                sum(m.disk.lifetime.writes for m in machines),
                sum(m.lifetime_comparisons for m in machines),
                max((m.memory.peak for m in machines), default=0),
            )
        )
        if side == "numpy_v1":
            # Vacuity guard: the run really moved bytes through the
            # reference — on the sharded path, through all four ops.
            assert sum(kernel.calls.values()) > 0, "the reference never ran"
            if exp_id == "SHARDS":
                assert all(kernel.calls[op] > 0 for op in MOVEMENT_OPS)
    assert outcomes[0] == outcomes[1], f"{exp_id} diverges under the reference"
