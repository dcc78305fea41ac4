"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.em import Machine, composite, kernels, make_records
from repro.em.kernels.numpy_v1 import NumpyV1Kernel
from repro.workloads import load_input

# Derandomize hypothesis so the suite is bit-for-bit reproducible (the
# same policy the experiments follow with their fixed seeds).
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def small_machine() -> Machine:
    """A tiny machine (M=256, B=8) for fast exhaustive-ish tests."""
    return Machine(memory=256, block=8)


@pytest.fixture
def wide_machine() -> Machine:
    """The experiments' tall-cache machine (M=4096, B=64)."""
    return Machine(memory=4096, block=64)


@pytest.fixture
def narrow_machine() -> Machine:
    """The experiments' multi-pass machine (M=512, B=16)."""
    return Machine(memory=512, block=16)


def records_from_keys(keys, grps=0) -> np.ndarray:
    """Records with sequential uids from a plain key list."""
    return make_records(np.asarray(keys, dtype=np.int64), grps=grps)


def staged(machine: Machine, keys, grps=0):
    """Stage records with the given keys on the machine (uncounted)."""
    recs = records_from_keys(keys, grps)
    return recs, load_input(machine, recs)


def sorted_composites(records) -> np.ndarray:
    return np.sort(composite(records))


# ----------------------------------------------------------------------
# Kernel substitution: the differential suites run each scenario under
# the shared kernel and under the numpy_v1 reference.
# ----------------------------------------------------------------------

#: The ops the reference overrides; every other op is the kernel's own.
MOVEMENT_OPS = ("gather_blocks", "scatter_blocks", "concat", "group_by_bucket")

#: Both sides of a differential test, named as their parametrize ids.
KERNEL_SIDES = ("numpy_v1", "vectorized_v2")


def counting_reference() -> NumpyV1Kernel:
    """A fresh reference whose movement ops tally their calls in
    ``.calls`` — the evidence that a scenario really ran under it."""
    ref = NumpyV1Kernel()
    ref.calls = Counter()
    for op in MOVEMENT_OPS:
        method = getattr(ref, op)

        def counted(*args, _op=op, _method=method):
            ref.calls[_op] += 1
            return _method(*args)

        setattr(ref, op, counted)
    return ref


@contextmanager
def kernel_side(side: str):
    """Run the body on one side: ``"vectorized_v2"`` is the shared
    kernel, ``"numpy_v1"`` a :func:`counting_reference` installed as the
    module-level instance, so every Disk built inside resolves it.
    Yields the active kernel."""
    if side == "vectorized_v2":
        yield kernels.get_kernel()
        return
    ref = counting_reference()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_kernel", ref)
        yield ref


@pytest.fixture
def reference_kernel():
    """The numpy_v1 reference substituted for the whole test."""
    with kernel_side("numpy_v1") as ref:
        yield ref
