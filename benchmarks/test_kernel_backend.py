"""Speed gate: the data-movement kernel against the numpy_v1 reference.

Times the four movement primitives — arena gather, arena scatter,
concatenation, and bucket grouping — on a hot-path-scale instance (a
multi-thousand-block disk image and a multi-thousand-bucket
distribution pass, the shapes the experiment suite produces), asserts
that the kernel and the per-block reference produce byte-identical
outputs, asserts the kernel beats the reference by at least 5x
wall-clock, and records the table in
``benchmarks/out/KERNEL_BACKEND.txt``.  Set ``REPRO_BENCH_FULL=1`` for
the full-size instance (the default is a smaller CI size whose speedup
margin is still comfortably above the gate).

``sort_by_composite`` / ``bucket_of`` / ``partition_at`` /
``rank_order`` are not timed: the reference inherits them from the
kernel, so their ratio is 1.0 by construction.
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.em import get_kernel
from repro.em.kernels.numpy_v1 import NumpyV1Kernel
from repro.em.records import make_records

OUT_DIR = Path(__file__).parent / "out"
MIN_SPEEDUP = 5.0

#: Primitive names in report order.
OPS = ("gather", "scatter", "concat", "group")


def _digest(out) -> bytes:
    if isinstance(out, list):
        return b"".join(
            int(b).to_bytes(8, "little") + r.tobytes() for b, r in out
        )
    return np.asarray(out).tobytes()


def bench_kernels(n_blocks: int, n_buckets: int, reps: int, block: int = 64):
    """Time the reference, then the kernel, on the primitive suite.

    The instance: ``n_blocks`` full blocks staged contiguously in one
    arena (the layout ``Disk.write_many`` produces), a same-sized record
    payload, an ``n_buckets``-way bucket assignment, and a 500-part
    concatenation.  Each primitive runs ``reps`` times; the recorded
    figure is the total.  Returns ``({name: {op: seconds}}, identical)``.
    """
    n = n_blocks * block
    ids = list(range(n_blocks))
    payload = make_records(np.arange(n))
    blocks: dict = {}
    origin: dict = {}
    get_kernel().scatter_blocks(blocks, origin, ids, payload, block)
    bucket_idx = np.random.default_rng(0).integers(0, n_buckets, size=n)
    parts = np.array_split(payload, 500)

    def scatter(kern):
        kern.scatter_blocks(blocks, origin, ids, payload, block)
        return blocks[ids[0]]

    timings: dict[str, dict[str, float]] = {}
    digests: dict[str, bytes] = {}
    identical = True
    for kern in (NumpyV1Kernel(), get_kernel()):
        tasks = {
            "gather": lambda: kern.gather_blocks(blocks, origin, ids),
            "scatter": lambda: scatter(kern),
            "concat": lambda: kern.concat(parts),
            "group": lambda: list(kern.group_by_bucket(payload, bucket_idx)),
        }
        timings[kern.name] = {}
        for op in OPS:
            t0 = time.perf_counter()
            for _ in range(reps):
                out = tasks[op]()
            timings[kern.name][op] = time.perf_counter() - t0
            digest = _digest(out)
            identical &= digests.setdefault(op, digest) == digest
    return timings, identical


def render_bench(timings, identical, n_blocks, n_buckets, reps, block=64) -> str:
    """The KERNEL_BACKEND.txt table."""
    base = sum(timings["numpy_v1"].values())
    lines = [
        "kernel vs numpy_v1 reference benchmark",
        f"  instance: {n_blocks} blocks x B={block} "
        f"({n_blocks * block:,} records), {n_buckets} buckets, {reps} reps/op",
        "",
        f"  {'kernel':<16}" + "".join(f"{op:>10}" for op in OPS)
        + f"{'total':>10}{'speedup':>10}",
    ]
    for name, row in timings.items():
        total = sum(row.values())
        lines.append(
            f"  {name:<16}"
            + "".join(f"{row[op]:>9.3f}s" for op in OPS)
            + f"{total:>9.3f}s{base / total:>9.2f}x"
        )
    lines += [
        "",
        f"  outputs byte-identical to the reference: "
        f"{'yes' if identical else 'NO'}",
    ]
    return "\n".join(lines)


def test_kernel_backend_speedup_and_identity(benchmark):
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    shape = (
        dict(n_blocks=8192, n_buckets=2000, reps=3)
        if full
        else dict(n_blocks=4096, n_buckets=2000, reps=2)
    )
    timings, identical = benchmark.pedantic(
        lambda: bench_kernels(**shape), rounds=1, iterations=1
    )

    OUT_DIR.mkdir(exist_ok=True)
    text = render_bench(timings, identical, **shape)
    (OUT_DIR / "KERNEL_BACKEND.txt").write_text(text + "\n")

    totals = {name: sum(row.values()) for name, row in timings.items()}
    speedup = totals["numpy_v1"] / totals["vectorized_v2"]
    benchmark.extra_info["speedup_over_reference"] = round(speedup, 2)
    benchmark.extra_info["identical"] = identical
    for name, total in totals.items():
        benchmark.extra_info[f"total_{name}_s"] = round(total, 3)

    assert identical, "kernel and reference disagree byte-for-byte"
    assert speedup >= MIN_SPEEDUP, (
        f"kernel only {speedup:.2f}x over the numpy_v1 reference "
        f"(gate {MIN_SPEEDUP}x)\n{text}"
    )
