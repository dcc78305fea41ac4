"""Comparison counting — the model's CPU side.

The paper's model is *comparison-based*: CPU time is free, but the
information-theoretic arguments (Lemma 1, Theorem 7, the §1.2 references
to internal-memory Θ(N·lg K) bounds) all count comparisons.  The
simulator therefore tracks, alongside block I/Os, the number of
key-comparisons the algorithms perform, charged at the numpy-operation
granularity by these helpers:

* an in-memory sort of ``n`` records costs ``n·log2 n``;
* a batched binary search of ``n`` queries into ``m`` sorted values
  costs ``n·log2 m``;
* a vectorized compare/filter/merge step over ``n`` records costs ``n``;
* a median-of-5 over ``g`` groups costs ``6g`` (the classic constant).

The counts are *model costs of the operations actually executed*, so
they are exact for the decision-tree arguments; they live on the
:class:`~repro.em.machine.Machine` and reset with the I/O counters.
Charging stays deliberately outside :mod:`~repro.em.kernels`:
algorithms charge here and then move bytes through ``machine.kernel``,
so substituting the differential tests' reference kernel can never
change what is counted.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = ["cmp_sort", "cmp_search", "cmp_linear", "cmp_median5"]


def cmp_sort(machine: "Machine", n: int) -> None:
    """Charge an in-memory comparison sort of ``n`` records."""
    if n > 1:
        machine.charge_comparisons(n * math.log2(n))


def cmp_search(machine: "Machine", n_queries: int, haystack: int) -> None:
    """Charge ``n_queries`` binary searches into ``haystack`` sorted values."""
    if n_queries > 0 and haystack > 0:
        machine.charge_comparisons(n_queries * math.log2(max(2, haystack)))


def cmp_linear(machine: "Machine", n: int) -> None:
    """Charge one comparison per record (filters, merges, max-scans)."""
    if n > 0:
        machine.charge_comparisons(n)


def cmp_median5(machine: "Machine", n_records: int) -> None:
    """Charge medians-of-5 over ``n_records`` (6 comparisons per group)."""
    if n_records > 0:
        machine.charge_comparisons(6 * math.ceil(n_records / 5))
