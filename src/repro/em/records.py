"""Record representation for the external-memory simulator.

The paper's model stores indivisible *elements* drawn from an ordered domain.
We represent an element as a fixed-size record with three 64-bit fields:

``key``
    the element's value in the ordered domain (what the problem statements
    compare);
``uid``
    a unique identifier used to break ties among equal keys, giving a total
    order — the standard symbolic-perturbation trick for comparison-based
    algorithms in the presence of duplicates;
``grp``
    a small integer tag used by the L-intermixed selection problem (§4.1),
    where each element carries a *group id*.  Zero for plain elements.

One record occupies one "word" of the model: a disk block holds ``B``
records and memory holds ``M`` records.  Since every record has the same
constant size this only changes constants relative to the paper.

Vectorized order
----------------
For fast in-memory manipulation (CPU time is free in the EM model, but we
still care about wall-clock time of the *simulation*) we combine
``(key, uid)`` into a single ``int64`` *composite* with
``composite = key * 2**UID_BITS + uid``.  To make this injective and
overflow-free, keys must lie in ``[KEY_MIN, KEY_MAX]`` and uids in
``[0, UID_MAX]``; :func:`make_records` validates the ranges.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RECORD_DTYPE",
    "KEY_MIN",
    "KEY_MAX",
    "UID_BITS",
    "UID_MAX",
    "make_records",
    "empty_records",
    "composite",
    "composite_of",
    "sort_records",
    "concat_records",
]

#: Structured dtype of one record (one "word" of the EM model).
RECORD_DTYPE = np.dtype([("key", np.int64), ("uid", np.int64), ("grp", np.int64)])

#: Number of low-order bits of the composite reserved for the uid.
UID_BITS = 31
#: Largest permitted uid (inclusive).
UID_MAX = (1 << UID_BITS) - 1
#: Smallest permitted key (inclusive).
KEY_MIN = -(1 << 31)
#: Largest permitted key (inclusive).
KEY_MAX = (1 << 31) - 1


def make_records(
    keys: np.ndarray,
    uids: np.ndarray | None = None,
    grps: np.ndarray | int = 0,
) -> np.ndarray:
    """Build a record array from parallel field arrays.

    Parameters
    ----------
    keys:
        Integer array of element values; each must lie in
        ``[KEY_MIN, KEY_MAX]``.
    uids:
        Optional unique ids in ``[0, UID_MAX]``; defaults to
        ``0, 1, ..., len(keys)-1``.  Uniqueness is the *caller's*
        responsibility when passing explicit uids.
    grps:
        Group ids (scalar or array); defaults to 0.

    Returns
    -------
    numpy.ndarray
        A fresh array with dtype :data:`RECORD_DTYPE`.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    n = len(keys)
    if n and (keys.min() < KEY_MIN or keys.max() > KEY_MAX):
        raise ValueError(f"keys must lie in [{KEY_MIN}, {KEY_MAX}]")
    if uids is None:
        uids = np.arange(n, dtype=np.int64)
    else:
        uids = np.asarray(uids, dtype=np.int64)
        if uids.shape != keys.shape:
            raise ValueError("uids must have the same shape as keys")
        if n and (uids.min() < 0 or uids.max() > UID_MAX):
            raise ValueError(f"uids must lie in [0, {UID_MAX}]")
    out = np.empty(n, dtype=RECORD_DTYPE)
    out["key"] = keys
    out["uid"] = uids
    out["grp"] = grps
    return out


def empty_records(n: int = 0) -> np.ndarray:
    """Return an uninitialized record array of length ``n``."""
    return np.empty(n, dtype=RECORD_DTYPE)


def composite(records: np.ndarray) -> np.ndarray:
    """Return the int64 total-order composite ``key * 2**UID_BITS + uid``.

    Monotone in the lexicographic order on ``(key, uid)``; injective given
    the field ranges enforced by :func:`make_records`.
    """
    return records["key"] * np.int64(1 << UID_BITS) + records["uid"]


def composite_of(key: int, uid: int) -> int:
    """Composite of a single ``(key, uid)`` pair (Python ints)."""
    return int(key) * (1 << UID_BITS) + int(uid)


def sort_records(records: np.ndarray) -> np.ndarray:
    """Return records sorted by the total order ``(key, uid)`` (a copy):
    the stable argsort of the composite.

    This is the body of ``Kernel.sort_by_composite``; algorithm code
    dispatches through ``machine.kernel.sort_by_composite`` instead
    (emlint rule R6).
    """
    order = np.argsort(composite(records), kind="stable")
    return records[order]


def concat_records(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate record arrays (handles the empty list).

    Preallocates and slice-assigns instead of ``np.concatenate``: for
    structured dtypes numpy re-promotes the field dtypes per input
    array, which dominates the runtime of many-small-block
    concatenations on the batched I/O path.

    This is the body of ``Kernel.concat``; algorithm code dispatches
    through ``machine.kernel.concat`` instead (emlint rule R6).
    """
    if not parts:
        return empty_records(0)
    if len(parts) == 1:
        return parts[0].copy()
    out = np.empty(sum(len(p) for p in parts), dtype=RECORD_DTYPE)
    pos = 0
    for p in parts:
        out[pos : pos + len(p)] = p
        pos += len(p)
    return out
