"""R5 — lease-lifecycle rule.

``MemoryAccountant.lease`` reserves part of the model's memory ``M``;
a lease that is never released keeps shrinking the budget every caller
sees (``Machine.load_limit``), so composed algorithms mysteriously run
out of memory.  The exception-safe idioms::

    with machine.memory.lease(size, "label"):
        ...

    lease = machine.memory.lease(size, "label")
    try:
        ...
    finally:
        lease.release()

The rule is local to the module.  A lease is clean when it is held in a
``with``, released in a ``finally`` of the same function, or stored on
``self`` with a release (or ``with``) of that attribute by the class or
a class related to it in the same module.  Anything else is a finding —
including a lease returned to the caller or passed to another function,
since following it there would take a whole-program analysis.  The
runtime ``LeaseLeakError`` at ``Machine.close`` (sanitize mode) is the
dynamic backstop.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding

__all__ = ["LeaseLifecycleRule"]


def _is_release_of(node: ast.AST, name: str) -> bool:
    """``<name>.release()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "release"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
    )


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` for ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _local_disposition(scope: ast.AST, var: str) -> tuple[str, str | None]:
    """What the function ``scope`` does with the local lease ``var``:
    ``("finally"|"with"|"returned"|"attr"|"passed"|"local", detail)``."""
    finally_released = entered = returned = False
    stored = passed = None
    for node in ast.walk(scope):
        if isinstance(node, ast.Try):
            finally_released |= any(
                _is_release_of(sub, var)
                for stmt in node.finalbody for sub in ast.walk(stmt)
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            entered |= any(
                isinstance(i.context_expr, ast.Name)
                and i.context_expr.id == var
                for i in node.items
            )
        elif isinstance(node, ast.Return):
            returned |= (
                isinstance(node.value, ast.Name) and node.value.id == var
            )
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.value, ast.Name)
            and node.value.id == var
        ):
            stored = _self_attr(node.targets[0]) or stored
        elif isinstance(node, ast.Call) and passed is None:
            if not _is_release_of(node, var) and any(
                isinstance(a, ast.Name) and a.id == var for a in node.args
            ):
                f = node.func
                passed = getattr(f, "id", getattr(f, "attr", "?"))
    if finally_released:
        return "finally", None
    if entered:
        return "with", None
    if returned:
        return "returned", None
    if stored is not None:
        return "attr", stored
    if passed is not None:
        return "passed", passed
    return "local", None


def _released_attrs(ctx: ModuleContext) -> dict[str, set[str]]:
    """Class name -> ``self`` attributes it releases or ``with``-enters."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(ctx.tree):
        attrs: list[str | None] = []
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
        ):
            attrs = [_self_attr(node.func.value)]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            attrs = [_self_attr(i.context_expr) for i in node.items]
        attrs = [a for a in attrs if a]
        if not attrs:
            continue
        cls = next(
            (a for a in ctx.ancestors(node) if isinstance(a, ast.ClassDef)),
            None,
        )
        if cls is not None:
            out.setdefault(cls.name, set()).update(attrs)
    return out


def _related_classes(ctx: ModuleContext, name: str) -> set[str]:
    """``name`` plus its ancestors and descendants among this module's
    classes (bases matched by their last dotted component)."""
    edges = [
        (node.name, b.id if isinstance(b, ast.Name) else getattr(b, "attr", ""))
        for node in ast.walk(ctx.tree) if isinstance(node, ast.ClassDef)
        for b in node.bases
    ]
    related = {name}
    grew = True
    while grew:
        grew = False
        for cls, base in edges:
            if (cls in related) != (base in related):
                related |= {cls, base}
                grew = True
    return related


@register
class LeaseLifecycleRule(LintRule):
    """R5: every lease is released on all paths — via ``with``, a
    ``finally``, or an attribute its class releases."""

    rule_id = "R5"
    title = "leases need an exception-safe release"
    rationale = (
        "A leaked `MemoryLease` permanently shrinks the free memory the "
        "accountant reports, so later phases and composed callers see a "
        "smaller machine than `M` — the classic source of spurious "
        "`MemoryBudgetError`s and, worse, of algorithms silently "
        "switching to more I/O-expensive small-memory code paths.  An "
        "exception between `lease()` and `release()` must not leak: use "
        "`with`, release in a `finally` of the acquiring function, or "
        "store it on an object whose class (or a related class in the "
        "same module) releases the attribute.  A lease returned to a "
        "caller or handed to another function is a finding: the "
        "release must be visible where the lease is taken."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if ctx.is_test:
            return
        released = None
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lease"
            ):
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.withitem):
                continue
            disposition, detail, var = "other", None, None
            if isinstance(parent, ast.Return):
                disposition = "returned"
            elif isinstance(parent, ast.Expr):
                disposition = "bare"
            elif isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                target = parent.targets[0]
                if isinstance(target, ast.Name):
                    var = target.id
                    disposition, detail = _local_disposition(
                        ctx.enclosing_function(node), var
                    )
                elif (attr := _self_attr(target)) is not None:
                    disposition, detail = "attr", attr
            if disposition in ("finally", "with"):
                continue
            cls = next(
                (a.name for a in ctx.ancestors(node)
                 if isinstance(a, ast.ClassDef)),
                None,
            )
            if disposition == "attr" and cls is not None:
                if released is None:
                    released = _released_attrs(ctx)
                if any(
                    detail in released.get(c, ())
                    for c in _related_classes(ctx, cls)
                ):
                    continue
            yield self.finding(ctx, node, _MESSAGES[disposition].format(
                var=var, detail=detail, cls=cls
            ))


_MESSAGES = {
    "attr": (
        "lease stored on self.{detail} but no method of `{cls}` (or a "
        "related class in this module) ever releases or context-exits "
        "it — a write-only lease attribute is a structural leak"
    ),
    "returned": (
        "lease is returned to the caller; release it where it is taken "
        "(`with` or a `finally`) so the release is visible here"
    ),
    "passed": (
        "lease assigned to `{var}` is passed to `{detail}()`; release it "
        "in a `finally` here — a callee's release is not checked"
    ),
    "local": (
        "lease assigned to `{var}` is neither used as a context manager "
        "nor released in a `finally`; an exception here leaks the memory"
    ),
    "bare": (
        "lease result is discarded on the spot — the reservation can "
        "never be released"
    ),
    "other": (
        "lease result must be held in a `with`, released in a `finally`, "
        "or stored on an owning object"
    ),
}
