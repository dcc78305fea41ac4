"""SVC — the online partition service against its offline baselines.

The service claim (Barbay–Gupta, applied over this paper's partitioning
substrate): answering a *trace* of selection queries through the lazy
pivot tree costs far less than answering each query with an offline
multi-selection, and on skewed traces it even undercuts sorting once —
repeats hit refined subtrees (and the answer cache) for near-zero
incremental I/O.

One sweep row per (trace kind, N, K, Q) configuration, measuring

* the **online engine** (:class:`~repro.service.online.LazyPartitionIndex`
  behind the batching :class:`~repro.service.frontend.QueryFrontend`),
* the **per-query offline** baseline — one Theorem 4 ``multi_select``
  per query (estimated as Q × the measured cost of a single-rank
  multi-selection; that cost is rank-independent to within ±0.1 %, and
  the note on each run records the sampled spread),
* the **sort-everything** baseline — one measured external sort plus one
  block read per query.

Checks: online answers are the records of the queried ranks, checked
against an uncounted sort of the input outside any machine (the ground
truth, not a second EM run); the headline zipfian
row lands under 25 % of the per-query offline baseline (the ISSUE 4
acceptance bar); amortized I/O per query *falls* as the zipfian trace
grows (the online-learning effect); the second half of the headline
trace is cheaper per query than the first half; and even the
adversarial trace — built to force maximal refinement — stays within a
small constant of sort-everything.
"""

from __future__ import annotations

import numpy as np

from ..alg.sort import external_sort
from ..analysis.verify import VerificationError, check_multiselect
from ..core import multi_select
from ..obs.metrics import MetricsRegistry, metrics_scope
from ..service import LazyPartitionIndex, Query, QueryFrontend
from ..workloads.generators import load_input, random_permutation
from ..workloads.queries import QUERY_TRACES
from .base import ExperimentResult, measure_io, register, wide_machine

__all__ = ["answers_correct"]

#: (trace, alpha, N, K, Q); the (zipfian-1.1, 2^20, 256, 512) row is the
#: ISSUE 4 acceptance point, mirrored by the ``service-online`` budget.
_FULL = [
    ("zipfian", 1.1, 2**20, 256, 64),
    ("zipfian", 1.1, 2**20, 256, 512),
    ("zipfian", 1.1, 2**20, 256, 2048),
    ("zipfian", 1.5, 2**20, 256, 512),
    ("uniform", None, 2**18, 128, 256),
    ("adversarial", None, 2**18, 128, 256),
]
_QUICK = [
    ("zipfian", 1.1, 16_384, 32, 24),
    ("zipfian", 1.1, 16_384, 32, 96),
    ("uniform", None, 16_384, 32, 64),
    ("adversarial", None, 16_384, 32, 64),
]

_SEED = 7
_BATCH = 64  # the budget entry's flush size; kept identical here


def _make_trace(name: str, alpha, q: int, n: int) -> np.ndarray:
    fn = QUERY_TRACES[name]
    if name == "zipfian":
        return fn(q, n, seed=_SEED, alpha=alpha)
    return fn(q, n, seed=_SEED)


def _offline_per_query(records: np.ndarray, n: int) -> tuple[float, float]:
    """Measured I/O of one single-rank offline multi-selection.

    Returns ``(mean, spread)`` over three ranks spanning the file; the
    cost is rank-independent, so ``mean × Q`` estimates the per-query
    offline baseline without running Q full multi-selections.
    """
    mach = wide_machine()
    f = load_input(mach, records)
    costs = []
    for r in np.linspace(1, n, 3).astype(np.int64):
        _, cost = measure_io(
            mach, lambda r=r: multi_select(mach, f, np.array([r]))
        )
        costs.append(cost)
    f.free()
    return float(np.mean(costs)), float(np.ptp(costs))


def answers_correct(records: np.ndarray, ranks, answers) -> bool:
    """True iff ``answers`` are the records of the 1-based ``ranks``,
    checked against an uncounted sort of ``records`` outside any
    machine."""
    try:
        check_multiselect(
            records, ranks, np.array(list(answers), dtype=records.dtype)
        )
    except VerificationError:
        return False
    return True


def _sort_once(records: np.ndarray) -> int:
    """Measured I/O of sorting the input once (the prepay baseline)."""
    mach = wide_machine()
    f = load_input(mach, records)
    out, cost = measure_io(mach, lambda: external_sort(mach, f))
    out.free()
    f.free()
    return cost


@register("SVC", "online partition service vs offline baselines")
def svc(quick: bool = False) -> ExperimentResult:
    configs = _QUICK if quick else _FULL

    records_of: dict[int, np.ndarray] = {}
    per_query_of: dict[int, tuple[float, float]] = {}
    sort_io_of: dict[int, int] = {}
    for _, _, n, _, _ in configs:
        if n not in records_of:
            records_of[n] = random_permutation(n, seed=_SEED)
            per_query_of[n] = _offline_per_query(records_of[n], n)
            sort_io_of[n] = _sort_once(records_of[n])

    headers = [
        "trace", "N", "K", "Q", "distinct", "online io", "io/query",
        "io p50", "io p99", "offline est", "sorted est", "online/offline",
        "refine", "cached",
    ]
    rows = []
    answers_ok = True
    zipf11 = []  # (Q, amortized, online_io, offline_est, flushes)
    adversarial_ratio = None
    for name, alpha, n, k, q in configs:
        trace = _make_trace(name, alpha, q, n)
        label = f"{name}-{alpha}" if alpha is not None else name

        mach = wide_machine()
        f = load_input(mach, records_of[n])
        # Per-config registry: the engine/frontend pick it up ambiently
        # at construction and fill the per-query I/O histogram.
        registry = MetricsRegistry()
        with metrics_scope(registry):
            engine = LazyPartitionIndex(mach, f, k=k)
            frontend = QueryFrontend(mach, engine)
            answers, online_io = measure_io(
                mach,
                lambda: frontend.run(
                    [Query.select(int(r)) for r in trace], batch=_BATCH
                ),
            )
        hist = registry.histogram(
            "svc_query_io", labels=("engine",)
        ).labels(engine="lazy")
        stats = dict(engine.stats)
        flushes = list(frontend.flushes)
        engine.close()
        f.free()

        answers_ok &= answers_correct(records_of[n], trace, answers)

        per_q, _spread = per_query_of[n]
        offline_est = per_q * q
        sorted_est = sort_io_of[n] + q  # one block read per query
        frac = online_io / offline_est
        amortized = online_io / q
        rows.append((
            label, n, k, q, len(np.unique(trace)), online_io, round(amortized, 1),
            round(float(hist.quantile(0.5)), 1),
            round(float(hist.quantile(0.99)), 1),
            int(offline_est), sorted_est, round(frac, 4),
            stats["refinements"], stats["cache_hits"],
        ))
        if name == "zipfian" and alpha == 1.1:
            zipf11.append((q, amortized, online_io, offline_est, flushes))
        if name == "adversarial":
            adversarial_ratio = online_io / sorted_est

    zipf11.sort()
    amortized_seq = [a for _, a, *_ in zipf11]
    head_q, _, head_io, head_offline, head_flushes = zipf11[-1]
    half = len(head_flushes) // 2
    first = [fl.amortized_io for fl in head_flushes[:half]]
    second = [fl.amortized_io for fl in head_flushes[half:]]

    checks = [
        ("online answers match the sorted input", answers_ok),
        (
            f"acceptance: zipfian-1.1 Q={head_q} online < 25% of offline",
            head_io < 0.25 * head_offline,
        ),
        (
            "amortized I/O/query falls as the zipfian trace grows",
            all(x >= y for x, y in zip(amortized_seq, amortized_seq[1:]))
            and amortized_seq[-1] < amortized_seq[0],
        ),
        (
            "second half of the headline trace cheaper than the first",
            float(np.mean(second)) < float(np.mean(first)),
        ),
        (
            "adversarial trace within 3x of sort-everything",
            adversarial_ratio is not None and adversarial_ratio <= 3.0,
        ),
    ]
    notes = [
        f"seed = {_SEED}, flush batch = {_BATCH}, wide machine",
        "offline est = Q x measured single-rank multi_select "
        + ", ".join(
            f"(N=2^{int(np.log2(n))}: {pq:.0f} +/- {sp:.0f} I/Os)"
            for n, (pq, sp) in sorted(per_query_of.items())
        ),
        "sorted est = one measured external sort + one block read per query",
        f"adversarial online / sort-everything = {adversarial_ratio:.2f}",
    ]
    return ExperimentResult(
        exp_id="SVC",
        title="online partition service",
        claim=(
            "lazy online multiselection answers query traces for a small "
            "fraction of the per-query offline cost, amortizing toward "
            "zero marginal I/O on skewed traces"
        ),
        headers=headers,
        rows=rows,
        checks=checks,
        notes=notes,
    )
