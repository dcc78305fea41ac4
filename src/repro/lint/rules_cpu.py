"""R3 — comparison-counting rule.

The paper's model is comparison-based: alongside block transfers, the
simulator charges key comparisons through the
:mod:`repro.em.comparisons` helpers (``cmp_sort``, ``cmp_search``,
``cmp_linear``, ``cmp_median5``) or ``Machine.charge_comparisons``.  A
raw ``np.sort``/``sorted()``/record ``<`` in algorithm code — or a
kernel order op (``sort_by_composite``, ``bucket_of``, ``partition_at``,
``rank_order``) — performs comparisons the counter never sees unless a
charge pays for them.

The rule is local: a sink is clean only when *its own function* calls a
charge helper imported from ``repro.em.comparisons`` or calls
``.charge_comparisons``.  A charge made only by a caller or only inside
a callee does not count — the charge sits next to the comparisons it
pays for, where a reader can check its formula.  A local
``def cmp_sort`` shadow is not an import from the em module, so it
never excuses a sink.

The kernel does not charge for itself because the same op is charged by
different formulas at different sites (``sort_by_composite`` is a
``cmp_search`` in the frontier merge and a ``cmp_sort`` elsewhere), so
only the call site knows the count.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding

__all__ = ["RawComparisonRule"]

#: Functions that perform key comparisons without charging them.
_SINK_FUNCS = frozenset(
    {"sorted", "min", "max"}  # builtins over record arrays
)
_SINK_NP_ATTRS = frozenset(
    {
        "sort", "argsort", "lexsort", "partition", "argpartition",
        "searchsorted",
    }
)
#: em helpers that sort/compare records but (by design) leave the
#: charging to their caller.
_SINK_HELPERS = frozenset({"sort_records"})
#: Kernel methods that order records; the call site charges them.
_KERNEL_ORDER_OPS = frozenset(
    {"sort_by_composite", "bucket_of", "partition_at", "rank_order"}
)

#: The charge helpers of :mod:`repro.em.comparisons`.
_CHARGE_HELPERS = frozenset(
    {"cmp_sort", "cmp_search", "cmp_linear", "cmp_median5"}
)
_CHARGE_MODULE = "repro.em.comparisons"

#: Names whose presence in a comparison operand marks it as a *record*
#: comparison (the total order the model counts).
_RECORD_MARKERS = frozenset({"composite", "composite_of"})


def _is_np_attr(func: ast.AST) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _mentions_records(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in _RECORD_MARKERS:
                return True
        elif isinstance(sub, ast.Subscript):
            sl = sub.slice
            if isinstance(sl, ast.Constant) and sl.value in ("key", "uid"):
                return True
    return False


def _is_kernel(node: ast.AST) -> bool:
    """``machine.kernel``, a ``kernel`` local, or ``get_kernel()``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "kernel"
    if isinstance(node, ast.Name):
        return node.id == "kernel"
    if isinstance(node, ast.Call):
        f = node.func
        return getattr(f, "id", getattr(f, "attr", None)) == "get_kernel"
    return False


def _call_sink(node: ast.Call) -> str | None:
    """Sink name if this call performs uncharged record comparisons."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _SINK_HELPERS:
            return func.id
        if func.id in _SINK_FUNCS and any(
            _mentions_records(a) for a in node.args
        ):
            return func.id
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _KERNEL_ORDER_OPS and _is_kernel(func.value):
        return f"kernel.{func.attr}"
    if _is_np_attr(func) and func.attr in _SINK_NP_ATTRS:
        if any(_mentions_records(a) for a in node.args) or any(
            _mentions_records(kw.value) for kw in node.keywords
        ):
            return f"np.{func.attr}"
        return None
    if func.attr == "sort" and _mentions_records(func.value):
        return ".sort()"
    return None


def _charge_names(ctx: ModuleContext) -> frozenset[str]:
    """Local names bound to a charge helper by an import from
    ``repro.em.comparisons`` and not shadowed by a ``def`` here."""
    package = list(Path(ctx.relpath).parts[:-1])
    if "repro" in package:
        package = package[package.index("repro"):]
    names: set[str] = set()
    shadows: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shadows.add(node.name)
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            base = package[: len(package) - node.level + 1]
            module = ".".join([*base, module] if module else base)
        if module == _CHARGE_MODULE:
            names.update(
                a.asname or a.name for a in node.names
                if a.name in _CHARGE_HELPERS
            )
    return frozenset(names - shadows)


@register
class RawComparisonRule(LintRule):
    """R3: record comparisons must be charged in the function that makes
    them."""

    rule_id = "R3"
    title = "record comparisons must route through em.comparisons"
    rationale = (
        "CPU cost in the model is key comparisons; the lemma-level "
        "claims (decision-tree lower bounds, Θ(N·lg K) internal work) "
        "are checked against the machine's comparison counter.  A "
        "`np.sort`/`sorted()`/`sort_records` call, a kernel order op "
        "(`sort_by_composite`, `bucket_of`, `partition_at`, "
        "`rank_order`) or a raw `<`/`<=` over record composites is "
        "clean only when its own function calls a `cmp_*` helper "
        "imported from `repro.em.comparisons` or `.charge_comparisons`. "
        "Anything else performs comparisons the counter misses, or "
        "pays for them somewhere a reader cannot check."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if not ctx.in_algorithm_layer or ctx.is_test:
            return
        charge_names = _charge_names(ctx)
        charged: set[ast.AST] = set()
        sinks: list[tuple[ast.AST, str]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name) and func.id in charge_names
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "charge_comparisons"
                ):
                    charged.add(ctx.enclosing_function(node))
                sink = _call_sink(node)
                if sink is not None:
                    sinks.append((node, f"`{sink}` compares records"))
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops
            ):
                if any(
                    _mentions_records(o)
                    for o in (node.left, *node.comparators)
                ):
                    sinks.append((
                        node,
                        "raw order comparison over record keys/composites",
                    ))
        for node, what in sinks:
            scope = ctx.enclosing_function(node)
            if scope in charged:
                continue
            where = (
                f"`{scope.name}`" if scope is not ctx.tree
                else "module scope"
            )
            yield self.finding(
                ctx,
                node,
                f"{what} but {where} calls no `cmp_*` helper from "
                f"`repro.em.comparisons` (charge it in the same "
                f"function)",
            )
