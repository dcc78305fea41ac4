"""``numpy_v1`` — the per-block reference for the differential tests.

This is the straightforward numpy strategy the simulator's hot paths
used before batching landed, kept as the *reference* the shared
:class:`~repro.em.kernels.Kernel` is proven against: one copy per block
on gather/scatter (exactly what ``k`` successive
:meth:`Disk.read <repro.em.disk.Disk.read>` /
:meth:`Disk.write <repro.em.disk.Disk.write>` calls do),
``np.concatenate`` for record concatenation, and one boolean-mask pass
per bucket when grouping a chunk for distribution.  It overrides the
four movement ops and nothing else.

No name, environment variable or argument selects it.  It has two
users: ``tests/test_kernels.py``, whose differential runs install it in
place of the shared kernel (the seam is ``kernel_side`` in
``tests/conftest.py``), and the speed gate
``benchmarks/test_kernel_backend.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..records import RECORD_DTYPE
from . import Kernel

__all__ = ["NumpyV1Kernel"]


class NumpyV1Kernel(Kernel):
    """Per-block reference (audit-friendly, no layout tricks)."""

    name = "numpy_v1"

    def gather_blocks(
        self,
        blocks: dict[int, np.ndarray],
        origin: dict[int, tuple[np.ndarray, int]],
        block_ids: Sequence[int],
    ) -> np.ndarray:
        # One copy per block, then one concatenation — what k successive
        # Disk.read calls produce.  The origin layout hints are ignored.
        parts = [blocks[bid].copy() for bid in block_ids]
        return np.concatenate(parts)

    def scatter_blocks(
        self,
        blocks: dict[int, np.ndarray],
        origin: dict[int, tuple[np.ndarray, int]],
        block_ids: Sequence[int],
        data: np.ndarray,
        block_size: int,
    ) -> None:
        # One stored copy per block — what k successive Disk.write calls
        # do; each block becomes its own single-block arena.
        B = block_size
        for i, bid in enumerate(block_ids):
            stored = data[i * B : (i + 1) * B].copy()
            blocks[bid] = stored
            origin[bid] = (stored, 0)

    def concat(self, parts: list[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=RECORD_DTYPE)
        return np.concatenate(parts)

    def group_by_bucket(
        self, records: np.ndarray, bucket_idx: np.ndarray
    ) -> Iterable[tuple[int, np.ndarray]]:
        # One boolean mask per occupied bucket; masks preserve input
        # order, so groups match the fused kernel byte for byte.
        for b in np.unique(bucket_idx):
            yield int(b), records[bucket_idx == b]
