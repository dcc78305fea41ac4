"""R6 — kernel-dispatch rule.

Hot-path record movement and batch comparisons dispatch through the
data-movement kernel (:mod:`repro.em.kernels`): algorithm code calls
``machine.kernel.sort_by_composite`` / ``.concat`` / ``.bucket_of`` /
``.partition_at`` / ``.rank_order`` instead of inlining the numpy
equivalent.  The differential tests substitute the per-block reference
for the kernel and prove the two identical; a direct
``sort_records``/``concat_records`` call — or a record-bearing
``np.argpartition``/``np.partition`` — in algorithm code bypasses
``machine.kernel``, so the substitution silently stops covering that
call site.

The em layer itself (and the kernels package in particular) is exempt:
that is where the primitives live.  Tests are exempt for the usual
reason — they build fixtures and cross-check the kernel against the raw
numpy forms on purpose.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding
from .rules_cpu import _is_np_attr, _mentions_records

__all__ = ["KernelBypassRule"]

#: Record helpers whose algorithm-layer use bypasses the kernel
#: (each has a kernel method with identical, byte-for-byte semantics).
_BYPASS_HELPERS = {
    "sort_records": "machine.kernel.sort_by_composite",
    "concat_records": "machine.kernel.concat",
}

#: numpy calls that select/partition records — kernel territory when the
#: operand is record data (plain index arithmetic stays fine).
_BYPASS_NP_ATTRS = {
    "argpartition": "machine.kernel.rank_order",
    "partition": "machine.kernel.partition_at",
}


@register
class KernelBypassRule(LintRule):
    """R6: hot-path record ops must dispatch through ``machine.kernel``."""

    rule_id = "R6"
    title = "record movement/comparison must dispatch through the kernel"
    rationale = (
        "Block movement, concatenation, batch sort/partition and bucket "
        "distribution dispatch through `machine.kernel`, and that "
        "dispatch is what the differential suite's reference "
        "substitution covers: it proves the kernel byte-identical to "
        "the per-block reference.  A direct "
        "`sort_records`/`concat_records` call — or a record-bearing "
        "`np.argpartition`/`np.partition` — in algorithm code skips "
        "`machine.kernel`, so the substitution never reaches that site "
        "and the differential tests stop exercising it."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if not ctx.in_algorithm_layer or ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _BYPASS_HELPERS:
                yield self.finding(
                    ctx,
                    node,
                    f"`{func.id}` bypasses the kernel (use "
                    f"`{_BYPASS_HELPERS[func.id]}`)",
                )
            elif _is_np_attr(func) and func.attr in _BYPASS_NP_ATTRS:
                if any(_mentions_records(a) for a in node.args) or any(
                    _mentions_records(kw.value) for kw in node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"record-bearing `np.{func.attr}` bypasses the "
                        f"kernel (use `{_BYPASS_NP_ATTRS[func.attr]}`)",
                    )
