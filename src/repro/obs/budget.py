"""The I/O-budget regression gate.

``benchmarks/budgets.json`` commits, for every solver in
:data:`repro.obs.solvers.SOLVERS`, a **constant-factor envelope** ``c``
against the paper's Θ-shape: at the solver's reference parameter point,
the measured I/O count must satisfy ``measured ≤ c · formula(point)``.
The Θ-constants themselves are unknowable, so ``c`` is calibrated from
the current implementation (measured ratio × a small headroom) — the
gate therefore does not validate the theory (the experiments do that);
it stops a future change from silently bloating a hot path's constant
factor.  ``repro report --check-budgets`` (and the CI budget job) fail
loudly when any envelope is exceeded.

Regenerate envelopes after an *intentional* cost change with
``repro budgets --write`` and commit the diff — the diff itself then
documents the regression you accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..analysis.report import render_table
from .solvers import SOLVERS, run_solver

__all__ = [
    "BUDGETS_SCHEMA_VERSION",
    "BudgetCheck",
    "default_budgets_path",
    "check_budgets",
    "render_budget_report",
    "write_budgets",
]

BUDGETS_SCHEMA_VERSION = 1

#: Headroom multiplier applied to the measured ratio when writing
#: envelopes: loose enough to absorb refactors that shuffle a few I/Os,
#: tight enough that a ~10% bloat of a hot path trips the gate.
DEFAULT_HEADROOM = 1.08


@dataclass(frozen=True)
class BudgetCheck:
    """Outcome of checking one solver against its envelope."""

    solver: str
    formula: str
    measured: int
    bound: float
    ratio: float
    envelope: float
    ok: bool

    @property
    def limit(self) -> float:
        """The gate's threshold in I/Os: ``envelope · bound``."""
        return self.envelope * self.bound


def default_budgets_path() -> Path:
    """``benchmarks/budgets.json`` of the repository checkout when
    recognizable, else relative to the current directory."""
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "budgets.json"
    return Path("benchmarks") / "budgets.json"


def _load(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != BUDGETS_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported budgets schema {doc.get('schema')!r} "
            f"(expected {BUDGETS_SCHEMA_VERSION})"
        )
    return doc


def check_budgets(path: str | Path | None = None) -> list[BudgetCheck]:
    """Replay every budgeted solver and check it against its envelope.

    Unknown solver names in the file raise (a renamed algorithm must
    update its budget, not silently skip the gate); solvers missing
    from the file are reported as failures with envelope 0 — adding an
    algorithm to the registry without committing a budget fails loudly
    too.
    """
    budgets_path = Path(path) if path is not None else default_budgets_path()
    doc = _load(budgets_path)
    entries = doc["budgets"]
    unknown = set(entries) - set(SOLVERS)
    if unknown:
        raise KeyError(
            f"{budgets_path} budgets unknown solvers: {sorted(unknown)}"
        )
    checks: list[BudgetCheck] = []
    for name, solver in SOLVERS.items():
        label = solver.formula.__name__
        entry = entries.get(name)
        if entry is None:
            checks.append(
                BudgetCheck(
                    solver=name, formula=label,
                    measured=0, bound=0.0, ratio=float("inf"),
                    envelope=0.0, ok=False,
                )
            )
            continue
        run = run_solver(name, entry.get("point"))
        envelope = float(entry["envelope"])
        checks.append(
            BudgetCheck(
                solver=name,
                formula=label,
                measured=run["io"],
                bound=run["bound"],
                ratio=run["ratio"],
                envelope=envelope,
                ok=run["io"] <= envelope * run["bound"],
            )
        )
    return checks


def render_budget_report(checks: list[BudgetCheck]) -> str:
    """Render gate results as a table plus a one-line verdict."""
    rows = [
        (
            c.solver, c.formula, c.measured, f"{c.bound:.1f}",
            f"{c.ratio:.3f}", f"{c.envelope:.3f}", f"{c.limit:.0f}",
            "PASS" if c.ok else "FAIL",
        )
        for c in checks
    ]
    table = render_table(
        ["solver", "formula", "io", "bound", "ratio", "envelope",
         "limit", "verdict"],
        rows,
        title="I/O-budget gate (measured <= envelope * theory shape)",
    )
    ok = all(c.ok for c in checks)
    verdict = (
        "budget gate: PASS"
        if ok
        else "budget gate: FAIL — an algorithm exceeds its committed "
        "I/O envelope (regenerate intentionally with `repro budgets "
        "--write` and commit the diff)"
    )
    return f"{table}\n{verdict}"


def write_budgets(
    path: str | Path | None = None, headroom: float = DEFAULT_HEADROOM
) -> Path:
    """Measure every registered solver and (re)write the budgets file.

    Each entry commits the solver's reference point, the formula name,
    the measured I/O count at write time, and the envelope
    ``ratio × headroom`` (rounded up to 3 decimals).
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    budgets_path = Path(path) if path is not None else default_budgets_path()
    entries = {}
    for name, solver in SOLVERS.items():
        run = run_solver(name)
        entries[name] = {
            "title": solver.title,
            "formula": solver.formula.__name__,
            "point": {
                k: v for k, v in solver.defaults.items() if v
            },
            "measured": run["io"],
            "bound": round(run["bound"], 3),
            "ratio": round(run["ratio"], 6),
            "envelope": _ceil3(run["ratio"] * headroom),
        }
    doc = {
        "schema": BUDGETS_SCHEMA_VERSION,
        "description": (
            "Per-algorithm constant-factor I/O envelopes against the "
            "theory formulas of repro.bounds.formulas, measured at the "
            "committed reference points (see repro.obs.budget)."
        ),
        "headroom": headroom,
        "budgets": entries,
    }
    budgets_path.parent.mkdir(parents=True, exist_ok=True)
    budgets_path.write_text(json.dumps(doc, indent=2) + "\n")
    return budgets_path


def _ceil3(value: float) -> float:
    """Round up to 3 decimals (envelopes must never round below the
    measured ratio)."""
    import math

    return math.ceil(value * 1000) / 1000
